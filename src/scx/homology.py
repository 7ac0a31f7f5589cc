"""Signed cochain calculus on complexes: coboundaries, Laplacians, spectra.

Cochains are represented in the standard basis indexed by faces in
ascending vertex order; all signs come from permutation parity.  The
three Laplacians (lower, upper, full) are assembled twice — once from
the explicit entry formulas, once as matrix products of coboundary and
boundary maps — and the two integer matrices are required to agree
entrywise before anything downstream sees them.

Betti numbers are computed two independent ways as well: exactly, from
rational ranks of the coboundary matrices, and numerically, as the
kernel dimension of the full Laplacian (harmonic representatives).  The
exact ranks are taken modulo primes below 2**31 and certified over Q:
a rank found modulo some prime is a lower bound, and once the product
of the primes used exceeds the Hadamard bound on the next-larger minors
no larger rank is possible (see numerics.rational).  The
homological connectivity eta is one more than the first index with a
nonvanishing reduced Betti number, or infinity when none exists.

Laplacians, spectra, missing-layer top eigenvalues and coboundary ranks
are remembered on the complex (its ``_memo``, whose keys only this
module knows), so a Betti vector ranks each coboundary once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex
from .numerics import eigenvalues_sym, rank_exact

__all__ = [
    "OrientedBasis",
    "LaplacianSet",
    "SpectrumReport",
    "sign",
    "evaluate_cochain",
    "coboundary_matrix",
    "boundary_matrix",
    "laplacian_from_formula",
    "laplacian_from_products",
    "laplacians",
    "spectrum",
    "spectral_gap",
    "missing_top_eigenvalue",
    "betti_exact",
    "betti_hodge",
    "eta",
    "KERNEL_TOL",
]

#: Default threshold below which a Laplacian eigenvalue counts as zero.
KERNEL_TOL = 1e-7


# -- signs ------------------------------------------------------------


def _perm_parity(perm) -> int:
    """Sign of a permutation given as the image sequence of 0..m-1."""
    seen = [False] * len(perm)
    par = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            par = -par
    return par

def sign(sigma, tau) -> int:
    """Relative sign of an ordered simplex and an ordered subsimplex.

    Equals the sign of the permutation carrying the ordering of sigma to
    the ordering (sigma minus tau, in sigma's induced order) followed by
    tau in tau's own order.  Dropping the i-th vertex of an ascending
    simplex therefore gives (-1)**i, the usual coboundary sign.
    """
    sigma = tuple(sigma)
    tau = tuple(tau)
    sset = set(sigma)
    tset = set(tau)
    if len(sset) != len(sigma) or len(tset) != len(tau):
        raise ValueError("repeated vertices in an ordered simplex")
    if not tset <= sset:
        raise ValueError(f"{tau} is not a subsimplex of {sigma}")
    rest = [v for v in sigma if v not in tset]
    target = rest + list(tau)
    pos = {v: i for i, v in enumerate(sigma)}
    return _perm_parity([pos[v] for v in target])


def evaluate_cochain(phi, index, ordered) -> float:
    """Value on an ordered simplex of a cochain given in the ascending basis."""
    key = tuple(sorted(ordered))
    if key not in index:
        raise KeyError(f"{key} is not a basis simplex")
    return sign(tuple(ordered), key) * phi[index[key]]


# -- bases and matrices ----------------------------------------------


@dataclass(frozen=True)
class OrientedBasis:
    """The standard cochain basis in dimension k: ascending k-faces."""

    k: int
    simplices: tuple
    index: dict

    @classmethod
    def of(cls, x: Complex, k: int) -> "OrientedBasis":
        return cls(k, x.faces(k), dict(x.face_index(k)) if k >= 0 else {(): 0})


def _dims(x: Complex, k: int) -> int:
    """Dimension of the k-cochain space (reduced convention)."""
    if k == -1:
        return 1
    if k < -1:
        return 0
    return x.n_faces(k)


def coboundary_matrix(x: Complex, k: int) -> np.ndarray:
    """The map from k-cochains to (k+1)-cochains in the standard bases.

    Row sigma, column tau carries the sign of dropping from sigma the
    vertex missing from tau; for k = -1 this is the all-ones column.
    """
    rows = _dims(x, k + 1)
    cols = _dims(x, k)
    if k < -1:
        return np.zeros((rows, cols), dtype=np.int64)
    if k == -1:
        return np.ones((rows, 1), dtype=np.int64)
    mat = np.zeros((rows, cols), dtype=np.int64)
    idx = x.face_index(k)
    for r, f in enumerate(x.faces(k + 1)):
        s = 1
        for i in range(k + 2):
            mat[r, idx[f[:i] + f[i + 1 :]]] = s
            s = -s
    return mat


def boundary_matrix(x: Complex, k: int) -> np.ndarray:
    """Adjoint of the degree-k coboundary in the standard bases."""
    return coboundary_matrix(x, k).T.copy()


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # BLAS product of +-1 matrices; exact since every inner sum is far
    # below 2**53.
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return np.rint(prod).astype(np.int64)


def laplacian_from_formula(x: Complex, k: int):
    """Lower and upper Laplacians assembled entry by entry.

    Off-diagonal entries exist only for faces sharing all but one
    vertex; their sign is the product of the two reorder signs, read off
    the positions of the two swapped vertices.
    """
    if k < -1:
        raise ValueError("cochain spaces vanish below degree -1")
    if k == -1:
        minus = np.zeros((1, 1), dtype=np.int64)
        plus = np.array([[x.n_faces(0)]], dtype=np.int64)
        return minus, plus
    faces = x.faces(k)
    masks = x.face_masks(k)
    m = len(faces)
    minus = np.zeros((m, m), dtype=np.int64)
    plus = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        minus[i, i] = k + 1
        plus[i, i] = x.degree(faces[i])
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            mj = masks[j]
            inter = mi & mj
            if inter.bit_count() != k:
                continue
            ub = mi & ~inter
            wb = mj & ~inter
            par = (mi & (ub - 1)).bit_count() + (mj & (wb - 1)).bit_count()
            s = -1 if par % 2 else 1
            minus[i, j] = minus[j, i] = s
            if x.contains_mask(mi | mj):
                plus[i, j] = plus[j, i] = -s
    return minus, plus


def laplacian_from_products(x: Complex, k: int):
    """Lower and upper Laplacians as boundary/coboundary products."""
    if k < -1:
        raise ValueError("cochain spaces vanish below degree -1")
    dk = coboundary_matrix(x, k)
    dkm1 = coboundary_matrix(x, k - 1)
    minus = _int_matmul(dkm1, dkm1.T)
    plus = _int_matmul(dk.T, dk)
    return minus, plus


@dataclass(frozen=True)
class LaplacianSet:
    """Lower, upper and full Laplacian in one cochain degree."""

    k: int
    minus: np.ndarray
    plus: np.ndarray
    full: np.ndarray


def laplacians(x: Complex, k: int) -> LaplacianSet:
    """All three degree-k Laplacians, cross-checked between assemblies."""
    key = ("laplacians", k)
    if key in x._memo:
        return x._memo[key]
    fm, fp = laplacian_from_formula(x, k)
    pm, pp = laplacian_from_products(x, k)
    if not (np.array_equal(fm, pm) and np.array_equal(fp, pp)):
        raise RuntimeError(
            f"laplacian assemblies disagree in degree {k}; "
            "entry formulas and coboundary products must match"
        )
    x._memo[key] = LaplacianSet(k, fm, fp, fm + fp)
    return x._memo[key]


# -- spectra ----------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of one full Laplacian, with the guard used."""

    k: int
    eigenvalues: tuple
    mu: float
    lambda_max: float
    tol: float


def spectrum(x: Complex, k: int, tol: float | None = None) -> SpectrumReport:
    """Eigenvalues of the degree-k full Laplacian, sorted ascending.

    Certifies the a-priori bounds: every eigenvalue must lie within the
    guard of [0, n].  Raises ValueError when the cochain space is zero;
    use spectral_gap for the infinity-sentinel convention.
    """
    if _dims(x, k) == 0:
        raise ValueError(f"no cochains in degree {k}")
    if tol is None:
        tol = 1e-8 * max(1.0, float(x.n))
    key = ("spectrum", k, tol)
    if key in x._memo:
        return x._memo[key]
    full = laplacians(x, k).full
    evs = eigenvalues_sym(full.astype(np.float64))
    mu = float(evs[0])
    lam = float(evs[-1])
    if mu < -tol or lam > x.n + tol:
        raise RuntimeError(
            f"eigenvalue outside the certified range [0, n]: mu={mu}, max={lam}, n={x.n}"
        )
    x._memo[key] = SpectrumReport(k, tuple(float(e) for e in evs), mu, lam, tol)
    return x._memo[key]


def spectral_gap(x: Complex, k: int) -> float:
    """Smallest degree-k Laplacian eigenvalue; +inf on an empty basis."""
    if _dims(x, k) == 0:
        return math.inf
    return spectrum(x, k).mu


def missing_top_eigenvalue(x: Complex, i: int) -> float:
    """Largest upper-Laplacian eigenvalue of the dimension-i missing layer.

    The layer complex has the full (i-1)-skeleton and one top face per
    missing i-face; the relevant matrix is its upper Laplacian in degree
    i-1.
    """
    if i not in x.missing_dims():
        raise ValueError(f"no missing faces of dimension {i}")
    key = ("missing-top", i)
    if key in x._memo:
        return x._memo[key]
    y = x.missing_complex(i)
    plus = laplacians(y, i - 1).plus
    evs = eigenvalues_sym(plus.astype(np.float64))
    x._memo[key] = float(evs[-1]) if len(evs) else 0.0
    return x._memo[key]


# -- cohomology -------------------------------------------------------


def _coboundary_rank(x: Complex, k: int) -> int:
    """Rank over Q of the degree-k coboundary, memoized on the complex:
    the Betti numbers of degrees k and k+1 both need it."""
    key = ("coboundary-rank", k)
    if key not in x._memo:
        x._memo[key] = rank_exact(coboundary_matrix(x, k))
    return x._memo[key]


def betti_exact(x: Complex, k: int) -> int:
    """Reduced Betti number from exact rational ranks.

    dim C^k minus the ranks of the coboundaries out of and into degree
    k, each certified over Q by primes and a Hadamard bound.
    """
    nk = _dims(x, k)
    if nk == 0:
        return 0
    return nk - _coboundary_rank(x, k) - _coboundary_rank(x, k - 1)


def betti_hodge(x: Complex, k: int, tol: float = KERNEL_TOL) -> int:
    """Reduced Betti number as the numerical kernel dimension of the Laplacian."""
    if k < -1 or _dims(x, k) == 0:
        return 0
    evs = spectrum(x, k).eigenvalues
    return sum(1 for e in evs if e < tol)


def eta(x: Complex):
    """Homological connectivity: first nonvanishing reduced Betti index plus one.

    Returns math.inf when every reduced Betti number through the top
    dimension vanishes.
    """
    for k in range(-1, x.dim + 1):
        if betti_exact(x, k) != 0:
            return k + 1
    return math.inf

"""Signed cochain calculus on complexes: coboundaries, Laplacians, spectra.

Cochains are represented in the standard basis indexed by faces in
ascending vertex order; all signs come from permutation parity.  Each
degree's coboundary is held once, as a signed incidence from which the
dense coboundary and boundary matrices are scattered.  The lower and
upper Laplacians are assembled twice, from the entry formulas over each
face's one-vertex swaps and as products scatter-added from the
incidences, and the two integer results must agree entrywise before
anything downstream sees them.

Betti numbers are computed two independent ways as well: exactly, from
rational ranks of the coboundary matrices, and numerically, as the
kernel dimension of the full Laplacian (harmonic representatives).  The
exact ranks are taken modulo primes below 2**31 and certified over Q:
a rank found modulo some prime is a lower bound, and once the product
of the primes used exceeds the Hadamard bound on the next-larger minors
no larger rank is possible (see numerics.rational).  The
homological connectivity eta is one more than the first index with a
nonvanishing reduced Betti number, or infinity when none exists.

The top eigenvalue of a missing layer is solved on the smaller of two
matrices with the same nonzero spectrum: the layer's upper Laplacian
d^T d in degree i-1 or its lower Laplacian d d^T in degree i (Horak and
Jost, Spectra of combinatorial Laplace operators on simplicial
complexes, 2013).

Every dense coboundary or Laplacian passes one size guard first: above
2**25 entries it is refused with a ValueError giving its shape.

Incidences, Laplacians, spectra, missing-layer top eigenvalues and
coboundary ranks are remembered on the complex (its ``_memo``, whose
keys only this module knows), so a Betti vector ranks each coboundary
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex
from .numerics import eigenvalues_sym, rank_exact

__all__ = [
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

#: Most entries of one dense coboundary or Laplacian (2**25 int64 entries
#: are 256 MiB).
_DENSE_ENTRIES = 1 << 25


def _zeros(rows: int, cols: int) -> np.ndarray:
    """An int64 zero matrix; a shape above the dense budget is refused
    with a ValueError before anything is allocated."""
    if rows * cols > _DENSE_ENTRIES:
        raise ValueError(f"dense {rows} x {cols} matrix exceeds the budget of "
                         f"{_DENSE_ENTRIES} entries")
    return np.zeros((rows, cols), dtype=np.int64)


# -- signs ------------------------------------------------------------


def _perm_parity(perm) -> int:
    """Sign of a permutation given as the image sequence of 0..m-1:
    -1 to the power of m minus its number of cycles."""
    seen = set()
    cycles = 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            j = i
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


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


# -- the signed incidence and its readers -----------------------------


def _incidence(x: Complex, k: int) -> np.ndarray:
    """The degree-k coboundary (k >= -2) as a fixed-width index array.

    Row r lists the positions of the k-faces left by dropping each vertex
    of the r-th (k+1)-face in turn; dropping the i-th carries the sign
    (-1)**i, which is not stored.  Degrees k and k+1 both read it.
    """
    key = ("incidence", k)
    if key not in x._memo:
        pos = {m: i for i, m in enumerate(x.face_masks(k))}
        up = x.faces(k + 1)
        flat = [pos[m ^ 1 << v] for f, m in zip(up, x.face_masks(k + 1)) for v in f]
        x._memo[key] = np.array(flat, dtype=np.intp).reshape(len(up), k + 2)
    return x._memo[key]


def _signs(width: int) -> np.ndarray:
    """(-1)**i for i < width: the sign of dropping the i-th vertex."""
    return np.array([(-1) ** i for i in range(width)], dtype=np.int64)


def coboundary_matrix(x: Complex, k: int) -> np.ndarray:
    """The map from k-cochains to (k+1)-cochains in the standard bases.

    Row sigma, column tau carries the sign of dropping from sigma the
    vertex missing from tau; for k = -1 this is the all-ones column.
    """
    mat = _zeros(x.n_faces(k + 1), x.n_faces(k))
    if k >= -1:
        inc = _incidence(x, k)
        mat[np.arange(len(inc))[:, None], inc] = _signs(k + 2)
    return mat


def boundary_matrix(x: Complex, k: int) -> np.ndarray:
    """Adjoint of the degree-k coboundary in the standard bases."""
    return coboundary_matrix(x, k).T.copy()


def laplacian_from_formula(x: Complex, k: int):
    """Lower and upper Laplacians assembled entry by entry.

    Off-diagonal entries exist only for faces sharing all but one
    vertex, so each face is paired with its one-vertex swaps: drop a
    vertex u, add a vertex w outside.  The sign is the product of the
    two reorder signs, read off the positions of u and w; the upper
    entry is set when the union is a face.  The diagonal holds k+1 and
    the number of faces one dimension up.
    """
    if k < -1:
        raise ValueError("cochain spaces vanish below degree -1")
    faces = x.faces(k)
    masks = x.face_masks(k)
    pos = {m: i for i, m in enumerate(masks)}
    m = len(faces)
    minus = _zeros(m, m)
    np.fill_diagonal(minus, k + 1)
    plus = _zeros(m, m)
    for i, (f, mi) in enumerate(zip(faces, masks)):
        degree = 0
        for w in range(x.n):
            wb = 1 << w
            if mi & wb:
                continue
            up = x.contains_mask(mi | wb)
            degree += up
            below = (mi & (wb - 1)).bit_count()
            for t, u in enumerate(f):
                j = pos.get(mi ^ 1 << u | wb)
                if j is not None:
                    s = -1 if (t + below - (u < w)) % 2 else 1
                    minus[i, j] = s
                    if up:
                        plus[i, j] = -s
        plus[i, i] = degree
    return minus, plus


def laplacian_from_products(x: Complex, k: int):
    """Lower and upper Laplacians d_{k-1} d_{k-1}^T and d_k^T d_k,
    scatter-added from the incidences.  Each row of the degree-k
    incidence adds the outer product of its signed entries to the upper
    one; the lower one pairs the degree-(k-1) entries sharing a column."""
    if k < -1:
        raise ValueError("cochain spaces vanish below degree -1")
    m = x.n_faces(k)
    inc = _incidence(x, k)
    sgn = _signs(k + 2)
    plus = _zeros(m, m)
    np.add.at(plus, (inc[:, :, None], inc[:, None, :]), sgn[:, None] * sgn)
    low = _incidence(x, k - 1)  # one row per k-face
    order = np.argsort(low.ravel(), kind="stable")
    col = low.ravel()[order]
    row, slot = np.divmod(order, k + 1)
    sgn = _signs(k + 1)[slot]
    # entry e pairs with the size[e] entries of its column, from start[e] on
    start = np.searchsorted(col, col)
    size = np.searchsorted(col, col, side="right") - start
    left = np.repeat(np.arange(col.size), size)
    right = np.repeat(start + size - np.cumsum(size), size) + np.arange(left.size)
    minus = _zeros(m, m)
    np.add.at(minus, (row[left], row[right]), sgn[left] * sgn[right])
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
        raise RuntimeError(f"laplacian assemblies disagree in degree {k}; "
                           "entry formulas and coboundary products must match")
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


def _range_tol(x: Complex) -> float:
    """Default guard on the certified eigenvalue range [0, n]."""
    return 1e-8 * max(1.0, float(x.n))


def spectrum(x: Complex, k: int, tol: float | None = None) -> SpectrumReport:
    """Eigenvalues of the degree-k full Laplacian, sorted ascending.

    Certifies the a-priori bounds: every eigenvalue must lie within the
    guard of [0, n].  Raises ValueError on a zero cochain space or a
    guard that is negative or not finite; see spectral_gap for +inf.
    """
    if x.n_faces(k) == 0:
        raise ValueError(f"no cochains in degree {k}")
    if tol is None:
        tol = _range_tol(x)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    key = ("spectrum", k, tol)
    if key in x._memo:
        return x._memo[key]
    full = laplacians(x, k).full
    evs = eigenvalues_sym(full.astype(np.float64))
    mu = float(evs[0])
    lam = float(evs[-1])
    if mu < -tol or lam > x.n + tol:
        raise RuntimeError(
            f"eigenvalue outside the certified range [0, n]: mu={mu}, max={lam}, n={x.n}")
    x._memo[key] = SpectrumReport(k, tuple(float(e) for e in evs), mu, lam, tol)
    return x._memo[key]


def spectral_gap(x: Complex, k: int) -> float:
    """Smallest degree-k Laplacian eigenvalue; +inf on an empty basis."""
    if x.n_faces(k) == 0:
        return math.inf
    return spectrum(x, k).mu


def missing_top_eigenvalue(x: Complex, i: int) -> float:
    """Largest eigenvalue of the dimension-i missing layer's Laplacians.

    The layer complex y has the full (i-1)-skeleton and one top face per
    missing i-face.  Its upper Laplacian in degree i-1 (d^T d, one row
    per (i-1)-face) and its lower Laplacian in degree i (d d^T, one row
    per missing i-face) share their nonzero eigenvalues, so the smaller
    of the two is solved; both come through ``laplacians`` and so are
    cross-checked between assemblies.  The value must lie within the
    guard of [0, n], as in ``spectrum``.
    """
    if i not in x.missing_dims():
        raise ValueError(f"no missing faces of dimension {i}")
    key = ("missing-top", i)
    if key in x._memo:
        return x._memo[key]
    y = x.missing_complex(i)
    if y.n_faces(i) < y.n_faces(i - 1):
        mat = laplacians(y, i).minus
    else:
        mat = laplacians(y, i - 1).plus
    lam = float(eigenvalues_sym(mat.astype(np.float64))[-1])
    tol = _range_tol(x)
    if not -tol <= lam <= x.n + tol:
        raise RuntimeError(
            f"eigenvalue outside the certified range [0, n]: max={lam}, n={x.n}")
    x._memo[key] = lam
    return lam


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
    nk = x.n_faces(k)
    if nk == 0:
        return 0
    return nk - _coboundary_rank(x, k) - _coboundary_rank(x, k - 1)


def betti_hodge(x: Complex, k: int, tol: float = KERNEL_TOL) -> int:
    """Reduced Betti number as the numerical kernel dimension of the Laplacian."""
    if x.n_faces(k) == 0:
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

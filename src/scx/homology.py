"""Signed cochain calculus on complexes: coboundaries, Laplacians, spectra.

Cochains are represented in the standard basis indexed by the faces in
the order of ``Complex.face_masks``, lexicographic in their ascending
vertex tuples; all signs come from permutation parity.  Each degree's
coboundary is built once, row by row from the face masks alone (a
mask's bits read lowest first are its vertices ascending): the exact
ranks read the rows as they come, the float readers an index array of
them.  Only the entry formula reads the faces as vertex tuples.  The
lower and upper Laplacians are assembled twice, from the entry formulas
(which read the cofaces off the missing faces, never off the faces one
degree up) and as products scatter-added from the index arrays, and the
two integer results must agree entrywise before anything downstream
sees them.

Betti numbers are computed two independent ways as well: exactly, from
rational ranks of the coboundaries (sparse eliminations of the rows,
without numpy; see numerics.rational), and numerically, from the float
spectra of each coboundary's smaller Gram matrix (see betti_hodge).
When the two ranks modulo the first prime sum to the dimension of the
cochain space, both are exact and the Betti number is 0, with no second
prime.  Each modular rank is taken after the one a degree below and
stops at f_k minus it, a bound because the coboundary squares to zero
(Dumas, Heckenbach, Saunders and Welker, Computing simplicial homology
based on efficient Smith normal form algorithms, 2003).  The kernel of
the full Laplacian is the reduced cohomology, so ``spectral_gap`` is
exactly 0.0, with no eigensolve, in a degree whose exact Betti number
is nonzero.  The homological connectivity eta is one more than the first
index with a nonvanishing reduced Betti number, or infinity when none
exists.  The numerical ranks and the top eigenvalue of a missing layer
read one spectrum: that of a coboundary's smaller Gram matrix, d^T d or
d d^T, which share their nonzero eigenvalues (Horak and Jost, Spectra
of combinatorial Laplace operators on simplicial complexes, 2013).

Every dense coboundary or Laplacian passes one size guard first: above
2**25 entries it is refused with a ValueError giving its shape; ranks
pass the fill budget of numerics.rational instead.  At most four dense
m x m integer matrices are alive at once: the formula pair and the
products pair until they are compared.  The full Laplacian is formed
only when first read, after the products pair is gone; the eigensolver
adds one float working copy, and solves each distinct principal block
of the nonzero pattern once (pg33's degree-1 Laplacian is 130 identical
6 x 6 blocks).  The float readers' index arrays, Laplacians, spectra,
Gram spectra and coboundary ranks are remembered on the complex (in its
``_memo``, under keys of this module's own); a spectrum the range guard
refuses is not, and neither are the rows an exact rank reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._lazy import lazy_import
from .complexes import Complex, _vertices_of
from .numerics import SparseRows, eigenvalues_sym, rank_exact, rank_first_prime

np = lazy_import("numpy")

__all__ = [
    "LaplacianSet",
    "SpectrumReport",
    "sign",
    "coboundary_matrix",
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


# -- the signed incidence and its readers -----------------------------


class _SignedRows:
    """The degree-k coboundary (k >= -2), its rows built afresh from the
    face masks on each pass: for each (k+1)-face in turn, the positions of
    the k-faces left by dropping each bit, and the signs (-1)**i of
    dropping the i-th lowest, the i-th vertex.  A pass holds one row and
    one position dict."""

    def __init__(self, x: Complex, k: int):
        self.x, self.k = x, k

    def __iter__(self):
        x, k = self.x, self.k
        pos = {m: i for i, m in enumerate(x.face_masks(k))}
        signs = [(-1) ** i for i in range(k + 2)]
        for m in x.face_masks(k + 1):
            cols, rest = [], m
            while rest:  # lowest bit first: the vertices ascending
                low = rest & -rest
                rest ^= low
                cols.append(pos[m ^ low])
            yield cols, signs


def _incidence(x: Complex, k: int) -> np.ndarray:
    """The columns of ``_SignedRows(x, k)`` as a fixed-width index array,
    read by the float readers of degrees k and k+1; signs are not stored."""
    key = ("incidence", k)
    if key not in x._memo:
        flat = [c for cols, _ in _SignedRows(x, k) for c in cols]
        x._memo[key] = np.array(flat, dtype=np.intp).reshape(x.n_faces(k + 1), k + 2)
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


def laplacian_from_formula(x: Complex, k: int):
    """Lower and upper Laplacians assembled entry by entry.

    Off-diagonal entries exist only for faces sharing all but one
    vertex, so each face is paired with its one-vertex swaps: drop a
    vertex u, add a vertex w outside.  The sign is the product of the
    two reorder signs, read off the positions of u and w; the upper
    entry is set when the union is a face.  The diagonal holds k+1 and
    the number of faces one dimension up.  The cofaces are read from the
    missing faces alone: f + w is a face iff no missing face minus w
    lies inside f, so a face's coface vertices are those outside it
    that complete none of its subsets.
    """
    if k < -1:
        raise ValueError("cochain spaces vanish below degree -1")
    faces = x.faces(k)
    masks = x.face_masks(k)
    pos = {m: i for i, m in enumerate(masks)}
    completing: dict[int, int] = {}  # missing face minus w -> every such w
    for mu in x.missing_masks:
        for v in _vertices_of(mu):
            completing[mu ^ 1 << v] = completing.get(mu ^ 1 << v, 0) | 1 << v
    present = ((1 << x.n) - 1) & ~completing.get(0, 0)  # no missing vertex
    m = len(faces)
    minus = _zeros(m, m)
    np.fill_diagonal(minus, k + 1)
    plus = _zeros(m, m)
    for i, (f, mi) in enumerate(zip(faces, masks)):
        cofaces, sub = present & ~mi, mi
        while sub:  # the nonempty subsets of f
            cofaces &= ~completing.get(sub, 0)
            sub = (sub - 1) & mi
        plus[i, i] = cofaces.bit_count()
        for w in range(x.n):
            wb = 1 << w
            if mi & wb:
                continue
            below = (mi & (wb - 1)).bit_count()
            for t, u in enumerate(f):
                j = pos.get(mi ^ 1 << u | wb)
                if j is not None:
                    s = -1 if (t + below - (u < w)) % 2 else 1
                    minus[i, j] = s
                    if cofaces & wb:
                        plus[i, j] = -s
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
    """Lower and upper Laplacian in one cochain degree; the full one,
    their sum, is formed the first time it is read and then kept."""

    k: int
    minus: np.ndarray
    plus: np.ndarray

    @cached_property
    def full(self) -> np.ndarray:
        return self.minus + self.plus


def laplacians(x: Complex, k: int) -> LaplacianSet:
    """The degree-k Laplacians, cross-checked between assemblies."""
    key = ("laplacians", k)
    if key in x._memo:
        return x._memo[key]
    fm, fp = laplacian_from_formula(x, k)
    pm, pp = laplacian_from_products(x, k)
    if not (np.array_equal(fm, pm) and np.array_equal(fp, pp)):
        raise RuntimeError(f"laplacian assemblies disagree in degree {k}; "
                           "entry formulas and coboundary products must match")
    x._memo[key] = LaplacianSet(k, fm, fp)
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
    """The guard on the certified eigenvalue range [0, n]."""
    return 1e-8 * max(1.0, float(x.n))


def _eigenvalues_in_range(x: Complex, mat: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a Laplacian or Gram matrix of x, which must
    all lie within the guard ``_range_tol(x)`` of [0, n], the certified
    range.  A RuntimeError otherwise."""
    evs = eigenvalues_sym(mat)
    tol = _range_tol(x)
    if evs[0] < -tol or evs[-1] > x.n + tol:
        raise RuntimeError(f"eigenvalue outside the certified range [0, n]: "
                           f"min={float(evs[0])}, max={float(evs[-1])}, n={x.n}")
    return evs


def spectrum(x: Complex, k: int) -> SpectrumReport:
    """Eigenvalues of the degree-k full Laplacian, sorted ascending.

    Certifies the a-priori bounds: every eigenvalue must lie within the
    guard ``_range_tol(x)`` of [0, n], which the report keeps as ``tol``.
    Raises ValueError on a zero cochain space; see spectral_gap for +inf.
    """
    if x.n_faces(k) == 0:
        raise ValueError(f"no cochains in degree {k}")
    key = ("spectrum", k)
    if key not in x._memo:
        evs = _eigenvalues_in_range(x, laplacians(x, k).full)
        x._memo[key] = SpectrumReport(k, tuple(float(e) for e in evs), float(evs[0]),
                                      float(evs[-1]), _range_tol(x))
    return x._memo[key]


def spectral_gap(x: Complex, k: int) -> float:
    """Smallest degree-k Laplacian eigenvalue; +inf on an empty basis.

    The kernel of L_k is the reduced cohomology in degree k (see
    betti_hodge), so when ``betti_exact`` is nonzero the gap is exactly
    0.0, certified without an eigensolve; otherwise it is the float
    ``spectrum(x, k).mu``."""
    if x.n_faces(k) == 0:
        return math.inf
    if betti_exact(x, k) != 0:
        return 0.0
    return spectrum(x, k).mu


def _gram_eigenvalues(x: Complex, k: int) -> np.ndarray:
    """Sorted eigenvalues of the smaller Gram matrix of the degree-k
    coboundary: d_k^T d_k (side f_k, the upper Laplacian in degree k) or
    d_k d_k^T (side f_{k+1}, the lower Laplacian in degree k+1), which
    share their nonzero spectrum; both come through ``laplacians`` and so
    are cross-checked between assemblies.  Empty when either side is (so
    below degree -1 and out of the top degree).  Every eigenvalue must
    lie within the guard of [0, n], as in ``spectrum``; memoized once per
    degree."""
    key = ("gram", k)
    if key not in x._memo:
        lo, hi = x.n_faces(k), x.n_faces(k + 1)
        if lo == 0 or hi == 0:
            x._memo[key] = np.zeros(0)
        else:
            mat = laplacians(x, k + 1).minus if hi < lo else laplacians(x, k).plus
            x._memo[key] = _eigenvalues_in_range(x, mat)
    return x._memo[key]


def missing_top_eigenvalue(x: Complex, i: int) -> float:
    """Largest eigenvalue of the dimension-i missing layer's Laplacians.

    The layer complex y has the full (i-1)-skeleton and one top face per
    missing i-face.  Its upper Laplacian in degree i-1 and its lower
    Laplacian in degree i are the Gram matrices of its degree-(i-1)
    coboundary, so the top of ``_gram_eigenvalues(y, i - 1)`` is theirs.
    """
    if i not in x.missing_dims():
        raise ValueError(f"no missing faces of dimension {i}")
    return float(_gram_eigenvalues(x.missing_complex(i), i - 1)[-1])


# -- cohomology -------------------------------------------------------


def _coboundary_rows(x: Complex, k: int) -> SparseRows:
    """The degree-k coboundary for the exact ranks; nothing of it is stored."""
    return SparseRows((x.n_faces(k + 1), x.n_faces(k)), _SignedRows(x, k))


def _coboundary_rank_mod(x: Complex, k: int) -> int:
    """Rank of the degree-k coboundary modulo the first prime, a lower
    bound on its rank over Q; memoized on the complex.  With a side of
    at most one face it is that side: every row holds k+2 signs.

    Otherwise the degree below is ranked first, and the elimination
    stops at f_k minus its rank: the coboundary squares to zero, so
    rank_p d_k <= rank_Q d_k <= f_k - rank_Q d_{k-1} <= f_k - rank_p d_{k-1},
    and once that many pivots are found no row left can add one."""
    key = ("coboundary-rank-mod", k)
    if key not in x._memo:
        side = min(x.n_faces(k), x.n_faces(k + 1))
        if side < 2:
            x._memo[key] = side
        else:
            target = x.n_faces(k) - _coboundary_rank_mod(x, k - 1)
            x._memo[key] = rank_first_prime(_coboundary_rows(x, k), target)
    return x._memo[key]


def _coboundary_rank(x: Complex, k: int) -> int:
    """Rank over Q of the degree-k coboundary, memoized on the complex:
    the Betti numbers of degrees k and k+1 both need it.  A modular rank
    equal to the smaller side is already exact; otherwise ``rank_exact``
    goes on from the second prime."""
    key = ("coboundary-rank", k)
    if key not in x._memo:
        first = _coboundary_rank_mod(x, k)
        exact = first == min(x.n_faces(k), x.n_faces(k + 1))
        x._memo[key] = first if exact else rank_exact(_coboundary_rows(x, k), first=first)
    return x._memo[key]


def betti_exact(x: Complex, k: int) -> int:
    """Reduced Betti number from exact rational ranks.

    dim C^k minus the ranks of the coboundaries out of and into degree
    k.  Both are first taken modulo one prime.  Over Q the two ranks sum
    to at most f_k (the coboundary squares to zero) and each is at least
    its modular rank, so when the modular ranks sum to f_k both are
    exact and the Betti number is 0.  Otherwise each rank is certified
    over Q by more primes and a Hadamard bound.  The modular ranks of
    every degree below k are taken too (each bounds the elimination one
    degree up; see ``_coboundary_rank_mod``) and memoized.  A nonzero
    value certifies ``spectral_gap(x, k) == 0.0``.
    """
    nk = x.n_faces(k)
    if nk == 0:
        return 0
    up, down = _coboundary_rank_mod(x, k), _coboundary_rank_mod(x, k - 1)
    if up + down == nk:
        x._memo[("coboundary-rank", k)] = up
        x._memo[("coboundary-rank", k - 1)] = down
        return 0
    return nk - _coboundary_rank(x, k) - _coboundary_rank(x, k - 1)


def _numerical_rank(x: Complex, k: int, tol: float) -> int:
    """Numerical rank of the degree-k coboundary: the eigenvalues at
    least tol of its smaller Gram matrix."""
    return int(np.count_nonzero(_gram_eigenvalues(x, k) >= tol))


def betti_hodge(x: Complex, k: int, tol: float = KERNEL_TOL) -> int:
    """Reduced Betti number as the numerical kernel dimension of the
    full Laplacian L_k = d_{k-1} d_{k-1}^T + d_k^T d_k.

    The coboundary squares to zero, so the two summands have orthogonal
    ranges and dim ker L_k = f_k - rank d_{k-1} - rank d_k (Eckmann,
    Harmonische Funktionen und Randwertaufgaben in einem Komplex, 1944).
    Each rank is counted on the smaller Gram matrix of its coboundary
    (Horak and Jost, 2013), as the eigenvalues at least tol, so a Betti
    vector makes one float eigensolve per coboundary and none of a full
    Laplacian.  Raises ValueError on a tol that is not finite and
    positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    nk = x.n_faces(k)
    if nk == 0:
        return 0
    return nk - _numerical_rank(x, k - 1, tol) - _numerical_rank(x, k, tol)


def eta(x: Complex):
    """Homological connectivity: first nonvanishing reduced Betti index plus one.

    Returns math.inf when every reduced Betti number through the top
    dimension vanishes.  A vertex in no missing face lies in every
    facet, so the complex is a cone, contractible, and answered without
    any rank.  The complex on zero vertices (beta_-1 = 1) is no cone.
    """
    if x.apexes:
        return math.inf
    for k in range(-1, x.dim + 1):
        if betti_exact(x, k) != 0:
            return k + 1
    return math.inf

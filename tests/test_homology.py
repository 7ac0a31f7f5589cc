"""Cochain signs, Laplacians, spectra and Betti numbers.

Sign identities are checked against a straight permutation-parity
oracle on random reorderings.  Laplacians are validated three ways:
entry formulas versus coboundary products, closed forms on full
simplices and clique complexes, and known spectra (affine plane,
complete multipartite graphs).  Betti numbers from exact ranks must
match the harmonic (kernel-counting) computation everywhere, and, as
property tests, the reduced Euler characteristic, Alexander duality and
the Kunneth formula for joins.
"""

import hashlib
import math
import random
import time
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scx.homology as homology
import scx.numerics.eigen as eigen
from scx.campaigns import complete_multipartite_complex
from scx.complexes import Complex, _vertices_of, from_facets, from_missing_faces, intersection
from scx.homology import (
    KERNEL_TOL,
    betti_exact,
    betti_hodge,
    coboundary_matrix,
    eta,
    laplacian_from_formula,
    laplacian_from_products,
    laplacians,
    missing_top_eigenvalue,
    sign,
    spectral_gap,
    spectrum,
)
from scx.matroids import ag23_complex, pg33_complex
from scx.numerics import SparseRows, eigenvalues_sym, rank_exact
from scx.randomgen import random_complex


def ag23_lines():
    pts = [(x, y) for x in range(3) for y in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    lines = set()
    for p, q in combinations(pts, 2):
        r = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
        if r != p and r != q:
            lines.add(tuple(sorted((idx[p], idx[q], idx[r]))))
    return sorted(lines)


def ag23():
    return from_missing_faces(9, ag23_lines())


def random_antichain(rng, n):
    cards = rng.sample(range(1, n), rng.randint(1, min(2, n - 1)))
    fam = set()
    for c in cards:
        for mu in combinations(range(n), c):
            if rng.random() < 0.3:
                fam.add(frozenset(mu))
    minimal = [s for s in fam if not any(t < s for t in fam)]
    return [tuple(sorted(s)) for s in minimal]


def perm_parity_oracle(seq, reordered):
    """Sign of the permutation sending one ordering to another, by inversions."""
    pos = {v: i for i, v in enumerate(seq)}
    images = [pos[v] for v in reordered]
    inv = sum(
        1
        for a, b in combinations(range(len(images)), 2)
        if images[a] > images[b]
    )
    return -1 if inv % 2 else 1


# -- the sign function -------------------------------------------------


def test_sign_drop_vertex_convention():
    assert sign([0, 1, 2], [1, 2]) == 1
    assert sign([0, 1, 2], [0, 2]) == -1
    assert sign([0, 1, 2], [0, 1]) == 1
    assert sign([5], []) == 1


def test_sign_rejects_non_subsimplex():
    with pytest.raises(ValueError):
        sign([0, 1, 2], [3])
    with pytest.raises(ValueError):
        sign([0, 1, 1], [1])


def test_sign_matches_permutation_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 7)
        sigma = rng.sample(range(20), m)
        tau = rng.sample(sigma, rng.randint(0, m))
        # against the definition: sign of sigma -> (sigma minus tau, tau)
        rest = [v for v in sigma if v not in tau]
        assert sign(sigma, tau) == perm_parity_oracle(sigma, rest + tau)


def test_sign_identity_part1():
    # sgn(s,t) = sgn(s,t~) sgn(t~,t), and the facet variant through s~
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randint(1, 7)
        sigma = rng.sample(range(20), m)
        tau = rng.sample(sigma, rng.randint(0, m))
        tau2 = rng.sample(tau, len(tau))
        assert sign(sigma, tau) == sign(sigma, tau2) * sign(tau2, tau)
        if len(tau) == m - 1:
            sigma2 = rng.sample(sigma, m)
            assert sign(sigma, tau) == sign(sigma, sigma2) * sign(sigma2, tau)


def cochain_on(faces, rng):
    return np.array([rng.uniform(-1, 1) for _ in faces])


def test_sign_identities_on_cochains():
    # parts 2-5, with a cochain extended skew-symmetrically from the
    # ascending basis
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(3, 7)
        k = rng.randint(1, n - 2)
        x = from_missing_faces(n, [])
        faces = x.faces(k)
        index = {f: i for i, f in enumerate(faces)}
        phi = cochain_on(faces, rng)

        def val(ordered):
            key = tuple(sorted(ordered))
            return sign(ordered, key) * phi[index[key]]

        sigma = rng.sample(range(n), k + 2)
        tau = rng.sample(sigma, k + 1)
        eta_f = rng.sample(sigma, k + 1)
        theta = rng.sample(sorted(set(tau) & set(eta_f)), k)
        tau2, eta2 = rng.sample(tau, k + 1), rng.sample(eta_f, k + 1)
        sigma2, theta2 = rng.sample(sigma, k + 2), rng.sample(theta, k)
        # part 2
        assert val(tau) ** 2 == pytest.approx(val(tau2) ** 2)
        # part 3
        assert sign(sigma, tau) * val(tau) == pytest.approx(sign(sigma, tau2) * val(tau2))
        assert sign(tau, theta) * val(tau) == pytest.approx(sign(tau2, theta) * val(tau2))
        # part 4
        assert sign(sigma, tau) * sign(sigma, eta_f) * val(tau) * val(eta_f) == pytest.approx(
            sign(sigma2, tau2) * sign(sigma2, eta2) * val(tau2) * val(eta2)
        )
        # part 5
        assert sign(tau, theta) * sign(eta_f, theta) * val(tau) * val(eta_f) == pytest.approx(
            sign(tau2, theta2) * sign(eta2, theta2) * val(tau2) * val(eta2)
        )


# -- coboundary and boundary matrices ---------------------------------


def test_coboundary_minus_one_is_ones_column():
    x = from_missing_faces(4, [])
    d = coboundary_matrix(x, -1)
    assert d.shape == (4, 1)
    assert np.array_equal(d, np.ones((4, 1), dtype=np.int64))


def test_hollow_triangle_d0():
    x = from_missing_faces(3, [(0, 1, 2)])
    d0 = coboundary_matrix(x, 0)
    # rows are edges (01), (02), (12); columns vertices
    assert np.array_equal(d0, np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]))
    assert rank_exact(d0) == 2


def boundary_matrix(x, k):
    """The degree-k boundary entry by entry from ``sign``: row tau,
    column sigma holds sign(sigma, tau) when tau is sigma less a vertex."""
    rows, cols = x.faces(k), x.faces(k + 1)
    index = {tau: i for i, tau in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, sigma in enumerate(cols):
        for v in sigma:
            tau = tuple(u for u in sigma if u != v)
            mat[index[tau], j] = sign(sigma, tau)
    return mat


def test_boundary_is_transpose():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(3, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        for k in range(-1, x.dim + 1):
            assert np.array_equal(boundary_matrix(x, k), coboundary_matrix(x, k).T)


def test_dd_zero_everywhere():
    rng = random.Random(15)
    complexes = [ag23(), from_missing_faces(5, [])]
    for _ in range(25):
        n = rng.randint(2, 7)
        complexes.append(from_missing_faces(n, random_antichain(rng, n)))
    for x in complexes:
        for k in range(-2, x.dim + 1):
            prod = coboundary_matrix(x, k + 1) @ coboundary_matrix(x, k)
            assert not prod.any()


# -- Laplacian assembly ------------------------------------------------


def test_full_simplex_laplacian_is_n_identity():
    for n in (3, 5, 6):
        x = from_missing_faces(n, [])
        for k in range(0, n - 1):
            ls = laplacians(x, k)
            m = ls.full.shape[0]
            assert np.array_equal(ls.full, n * np.eye(m, dtype=np.int64))


def test_clique_complex_l0_is_j_plus_graph_laplacian():
    # the 70-vertex case takes face bitmasks past 64 bits
    rng = random.Random(16)
    for n in [rng.randint(3, 8) for _ in range(20)] + [70]:
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        non_edges = [e for e in combinations(range(n), 2) if e not in set(edges)]
        x = from_missing_faces(n, non_edges) if non_edges else from_missing_faces(n, [])
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in edges:
            adj[u, v] = adj[v, u] = 1
        deg = np.diag(adj.sum(axis=1))
        expected = np.ones((n, n), dtype=np.int64) + deg - adj
        assert np.array_equal(laplacians(x, 0).full, expected)


def test_assemblies_agree_on_random_complexes():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        for k in range(-1, x.dim + 1):
            fm, fp = laplacian_from_formula(x, k)
            pm, pp = laplacian_from_products(x, k)
            assert np.array_equal(fm, pm)
            assert np.array_equal(fp, pp)
            ls = laplacians(x, k)
            assert np.array_equal(ls.full, ls.minus + ls.plus)
            assert np.array_equal(ls.full, ls.full.T)


def test_formula_lists_no_faces_one_degree_up(monkeypatch):
    # the formula reads each face's cofaces off the missing faces: it
    # lists no (k+1)-face and tests no vertex set for membership
    extended, tested = [], []
    extend, contains = Complex._extend, Complex.contains_mask
    monkeypatch.setattr(Complex, "_extend", lambda self, j: extended.append(j) or extend(self, j))
    monkeypatch.setattr(Complex, "contains_mask",
                        lambda self, m: tested.append(m) or contains(self, m))
    rng = random.Random(23)
    cases = [(pg33_complex, 1), (lambda: from_missing_faces(6, [[0, 1]]), 3)]
    for _ in range(30):
        n = rng.randint(2, 7)
        missing = random_antichain(rng, n)
        cases += [(lambda n=n, missing=missing: from_missing_faces(n, missing), k)
                  for k in range(-1, from_missing_faces(n, missing).dim + 1)]
    for build, k in cases:
        x = build()
        extended.clear()
        tested.clear()  # the constructor's antichain check tests membership
        laplacian_from_formula(x, k)
        assert max(extended, default=-1) <= k
        assert np.array_equal(laplacians(x, k).plus, laplacian_from_products(x, k)[1])
        assert not tested, (x, k)


@pytest.mark.parametrize("build, k", [
    (lambda: from_missing_faces(5, [[0, 1, 2]]), 0),
    (lambda: from_missing_faces(5, [[0, 1, 2]]), 1),
    (lambda: from_missing_faces(6, [[0, 1], [2, 3, 4]]), 2),
    (pg33_complex, 1),
])
def test_cross_check_catches_a_face_lost_by_the_enumeration(monkeypatch, build, k):
    # the formula does not read the (k+1)-faces, so an enumeration that
    # drops one of them makes the two assemblies disagree
    extend = Complex._extend

    def dropping(self, j):
        extend(self, j)
        if j == k + 1:
            self._masks[j] = self._masks[j][:-1]

    monkeypatch.setattr(Complex, "_extend", dropping)
    with pytest.raises(RuntimeError, match="assemblies disagree in degree"):
        laplacians(build(), k)


# sha256 over (dtype, shape, bytes) of the lower and upper Laplacians
# and the coboundary in one degree: any change to an assembly, a sign or
# the face order changes these integer matrices
PINNED_DEGREES = {
    ("pg33", -1): "595fbd41af8221b75cfa7efdb779964e4b02d91d1560fd12eb781701f4f00311",
    ("pg33", 0): "92eeb9402b197b8637299bc4a0208b6cf494024ef59dd315f0fc7873d46c0ed0",
    ("pg33", 1): "d90fb3c55a424892a95412876b9c2ef7cae5075d8f7719fd1993097b1e617300",
    ("ag23", -1): "9e55d29ca1fa3145b0675a24944ffb8d57f6f4a4e0647e3b885afe9e20154d90",
    ("ag23", 0): "6f37d454861e835aa399e5dfc33c46bf3e9b168ac5d53b650f63730c2954b58f",
    ("ag23", 1): "bf55f5ee391d16665a3120e78f430bbf7cf6921005b266cea57cb0d91e951087",
    ("ag23", 2): "8e0d594e32f0a4da86b1c374d045d91dffb768e2dd6b7264318b9cbec6cad30b",
    ("ag23", 3): "a3c61d5a9993ef9b201e998e8bf5e362e16e9fd296689163d1a97e7e1689f386",
}
# the same digests, hex-encoded and chained over every degree of 50
# random complexes on at most 8 vertices (random_antichain, seed 7)
PINNED_RANDOM = "df984480018d000ad19a37ad2cdc5d4623b9ad78b47be669a8fc0fcda80b9954"


def degree_digest(x, k):
    fm, fp = laplacian_from_formula(x, k)
    pm, pp = laplacian_from_products(x, k)
    assert np.array_equal(fm, pm) and np.array_equal(fp, pp)
    h = hashlib.sha256()
    for a in (fm, fp, coboundary_matrix(x, k)):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_integer_matrices_match_pinned_digests():
    geometries = {"pg33": pg33_complex(), "ag23": ag23_complex()}
    assert geometries["ag23"].dim == 3
    got = {(name, k): degree_digest(geometries[name], k) for name, k in PINNED_DEGREES}
    assert got == PINNED_DEGREES


def test_random_integer_matrices_match_pinned_digest():
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(50):
        n = rng.randint(2, 8)
        x = from_missing_faces(n, random_antichain(rng, n))
        for k in range(-1, x.dim + 1):
            h.update(degree_digest(x, k).encode())
    assert h.hexdigest() == PINNED_RANDOM


def test_product_assembly_never_densifies_a_coboundary():
    # pg33's degree-1 coboundary is 9360 x 780: 58 MB as dense int64,
    # while the two 780 x 780 results take 9.7 MB
    x = pg33_complex()
    tracemalloc.start()
    try:
        laplacian_from_products(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_pg33_laplacians_keep_three_dense_matrices_alive():
    # Each dense 780 x 780 copy of pg33's degree-1 Laplacian is 4.9 MB.  The
    # formula pair is compared with one products half at a time, so three
    # are alive at the peak; the rest is the index arrays, the face lists
    # and the comparison's booleans.
    x = pg33_complex()
    m = x.n_faces(1)
    assert not x._memo
    tracemalloc.start()
    try:
        laplacians(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * 8 * m * m


def test_pg33_spectrum_working_set():
    # Each dense 780 x 780 copy of pg33's degree-1 Laplacian is 4.9 MB.  The
    # products halves are dropped before the full Laplacian is formed, and
    # the eigensolver holds float copies of the distinct blocks and no index
    # arrays, so under five copies are alive at the peak.
    x = pg33_complex()
    assert not x._memo
    tracemalloc.start()
    try:
        spectrum(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 780**2 * 8


def test_coboundary_rank_reads_rows_as_they_are_built():
    # 200 vertices minus one edge: d_0 has 19,899 rows, about 2.9 MB as
    # one list and tuple per row; the elimination holds one row at a time
    # and stores 199 short rows.
    x = Complex(200, [0b11])
    x.faces(1)
    tracemalloc.start()
    try:
        assert homology._coboundary_rank(x, 0) == 199
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e5


def test_ranking_pg33_d1_keeps_nothing_but_the_rank():
    # the 9360 x 780 d_1 is read row by row as its rows are built from the
    # face masks: no index array is made, and none is left behind but the
    # modular ranks of d_1 and of the two degrees below, which bound it
    x = pg33_complex()
    x.faces(2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert homology._coboundary_rank(x, 1) == 741
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(x._memo) == [("coboundary-rank", k) for k in (-1, 0, 1)]
    assert peak - before < 600e3 and kept - before < 20e3, (peak - before, kept - before)


def test_pg33_degree1_laplacian_is_130_identical_blocks(monkeypatch):
    # Off the diagonal, the entries of two edges cancel when their union
    # is a face, which leaves the six edges in each of the 130 lines of
    # PG(3,3) coupled only among themselves; every line gives the same
    # 6 x 6 block, solved once.
    full = laplacians(pg33_complex(), 1).full
    blocks = eigen._blocks(full)
    assert len(blocks) == 130 and all(len(b) == 6 for b in blocks)
    first = full[np.ix_(blocks[0], blocks[0])]
    assert all(np.array_equal(full[np.ix_(b, b)], first) for b in blocks)
    assert np.allclose(eigenvalues_sym(first), [36, 36, 36, 40, 40, 40], atol=1e-12)
    calls = []
    kernel = eigen._jacobi

    def counting(a, tol):
        calls.append(a.shape[0])
        return kernel(a, tol)

    monkeypatch.setattr(eigen, "_jacobi", counting)
    w = eigenvalues_sym(full)
    assert calls == [6]
    assert np.array_equal(w, np.repeat(eigenvalues_sym(first), 130))


def test_pg33_degree1_eigensolve_keeps_one_float_working_copy():
    # The float64 copy of the 780 x 780 input is the only dense matrix
    # allocated; the symmetry test's m x m booleans add an eighth of it.
    full = laplacians(pg33_complex(), 1).full
    m = full.shape[0]
    tracemalloc.start()
    try:
        eigenvalues_sym(full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * m * m


def test_pg33_degree1_eigensolve_copies_no_whole_matrix():
    # The integer input is validated and split as it is: a float64 copy is
    # made of the one distinct 6 x 6 block only.  The symmetry test's
    # m x m booleans are an eighth of an int64 copy.
    full = laplacians(pg33_complex(), 1).full
    m = full.shape[0]
    tracemalloc.start()
    try:
        eigenvalues_sym(full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * m * m


def test_ag23_l1_shape_and_assembly():
    x = ag23()
    ls = laplacians(x, 1)
    assert ls.full.shape == (36, 36)
    pm, pp = laplacian_from_products(x, 1)
    assert np.array_equal(ls.minus, pm) and np.array_equal(ls.plus, pp)
    assert laplacians(x, 1) is ls  # cached


def test_degree_minus_one_laplacian():
    x = from_missing_faces(4, [(0,), (1,)])
    ls = laplacians(x, -1)
    assert ls.minus.shape == (1, 1) and ls.minus[0, 0] == 0
    assert ls.plus[0, 0] == 2  # two surviving vertices


# -- spectra -----------------------------------------------------------


def test_complete_multipartite_gap():
    # parts of equal size: smallest vertex-Laplacian eigenvalue (r-1)n/r
    rng = random.Random(18)
    for r, size in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        n = r * size
        parts = [range(i * size, (i + 1) * size) for i in range(r)]
        non_edges = [e for p in parts for e in combinations(p, 2)]
        x = from_missing_faces(n, non_edges)
        assert spectral_gap(x, 0) == pytest.approx((r - 1) * n / r, abs=1e-8)


def test_ag23_gap_and_spectrum_report():
    x = ag23()
    rep = spectrum(x, 1)
    assert rep.mu == pytest.approx(6.0, abs=1e-8)
    assert rep.lambda_max <= 9 + rep.tol
    assert rep.eigenvalues == tuple(sorted(rep.eigenvalues))
    assert len(rep.eigenvalues) == 36
    assert spectral_gap(x, 1) == 6.0  # certified: L_1 - 6I is PSD and singular


def test_spectrum_bounds_on_random_complexes():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(2, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        for k in range(-1, x.dim + 1):
            if x.n_faces(max(k, 0)) == 0 and k >= 0:
                continue
            rep = spectrum(x, k)
            assert rep.mu >= -rep.tol
            assert rep.lambda_max <= n + rep.tol


def test_gap_sentinel_and_spectrum_error():
    x = from_missing_faces(3, [(0, 1, 2)])
    assert spectral_gap(x, 2) == math.inf
    assert spectral_gap(x, 5) == math.inf
    with pytest.raises(ValueError):
        spectrum(x, 2)
    assert spectral_gap(x, -1) == 3.0  # one-dimensional space, value n0


def _solved_sides(monkeypatch):
    """Record the side of every matrix handed to the eigensolver."""
    sides = []

    def solver(mat):
        sides.append(mat.shape[0])
        return eigenvalues_sym(mat)

    monkeypatch.setattr(homology, "eigenvalues_sym", solver)
    return sides


def test_missing_top_eigenvalue(monkeypatch):
    # tops that are not integers: each is one float solve of the smaller side
    sides = _solved_sides(monkeypatch)
    cycle, path = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [(0, 1), (1, 2), (2, 3)]
    for n, missing, i, side, lam in [
        (5, cycle, 1, 5, (5 + 5**0.5) / 2),                  # equal sides: the 5-cycle's graph Laplacian
        (4, path, 1, 3, 2 + 2**0.5),                         # a path: 3 edges against 4 vertices
        (5, path + [(3, 4), (0, 2), (1, 3)], 1, 5, 4.481194304092016),  # 6 edges against 5 vertices
        (5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], 2, 3, 3 + 2**0.5),  # 3 triangles against 10 edges
    ]:
        x = from_missing_faces(n, missing)
        del sides[:]
        assert missing_top_eigenvalue(x, i) == pytest.approx(lam, abs=1e-8)
        assert sides == [side]
        with pytest.raises(ValueError):
            missing_top_eigenvalue(x, i - 1)


def test_an_integer_missing_top_is_certified_without_an_eigensolve(monkeypatch):
    sides = _solved_sides(monkeypatch)
    for n, missing, i, lam in [
        (4, [(0,), (2,)], 0, 2.0),              # missing vertices: C(n, 0) = 1 row
        (3, [(0, 1), (0, 2), (1, 2)], 1, 3.0),  # equal sides: the triangle's graph Laplacian
        (2, [(0, 1)], 1, 2.0),                  # a single missing edge
        (9, ag23_lines(), 2, 3.0),              # ag23: 12 lines against 36 edges
        (4, [(0, 1, 2)], 2, 3.0),               # one missing triangle
    ]:
        x = from_missing_faces(n, missing)
        assert missing_top_eigenvalue(x, i) == lam
        assert sides == []


def test_missing_top_eigenvalue_solves_the_smaller_laplacian(monkeypatch):
    rng = random.Random(20)
    cases = [random_complex(rng) for _ in range(120)]
    sides = _solved_sides(monkeypatch)
    float_sides = set()
    for x in cases:
        for i in sorted(x.missing_dims()):
            y = x.missing_complex(i)
            del sides[:]
            lam = missing_top_eigenvalue(x, i)
            solved = list(sides)
            upper = eigenvalues_sym(laplacians(y, i - 1).plus.astype(np.float64))[-1]
            assert abs(lam - upper) <= 1e-9 * max(1.0, upper)
            if abs(upper - round(upper)) > 1e-9:  # no integer: the float path
                assert solved == [min(y.n_faces(i - 1), y.n_faces(i))]
                float_sides.add("d^T d" if y.n_faces(i - 1) <= y.n_faces(i) else "d d^T")
            else:
                assert solved == [] and lam == round(upper)
    assert float_sides == {"d^T d", "d d^T"}


def test_missing_top_eigenvalue_range_guard(monkeypatch):
    x = from_missing_faces(4, [(0, 1), (1, 2), (2, 3)])  # top 2 + sqrt 2: the float path
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda mat: np.full(len(mat), x.n + 1.0))
    for _ in range(2):  # a refused spectrum is not remembered: refused again
        with pytest.raises(RuntimeError, match="certified range"):
            missing_top_eigenvalue(x, 1)
    monkeypatch.undo()
    upper = laplacians(x.missing_complex(1), 0).plus.astype(np.float64)
    assert missing_top_eigenvalue(x, 1) == pytest.approx(np.linalg.eigvalsh(upper)[-1], abs=1e-9)


def test_a_gram_matrix_with_its_top_above_n_skips_the_certificate(monkeypatch):
    # G has eigenvalues n - 3 and n + 1 and its diagonal below n: nI - G
    # is not PSD, so no integer r <= n certifies the top, and after that
    # one test no bisection runs; the float path's range guard refuses n + 1
    x = from_missing_faces(4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(homology, "_gram", lambda y, k: np.array([[x.n - 1, 2], [2, x.n - 1]]))
    tests, real = [], homology.psd_rank
    monkeypatch.setattr(homology, "psd_rank", lambda rows: tests.append(rows) or real(rows))
    with pytest.raises(RuntimeError, match="certified range"):
        missing_top_eigenvalue(x, 1)
    assert tests == [[[1, -2], [-2, 1]]]


def test_a_layer_over_the_work_budget_is_refused_untested(monkeypatch):
    # the 129 missing edges of a path on 130 vertices: the smaller Gram
    # matrix is the layer's lower Laplacian on those edges, one connected
    # 129 x 129 block past the budget of 2**21 = 128**3
    x = from_missing_faces(130, [(i, i + 1) for i in range(129)])
    monkeypatch.setattr(homology, "psd_rank", lambda rows: pytest.fail("tested"))
    monkeypatch.setattr(eigen, "_jacobi", lambda a, tol: pytest.fail("solved"))
    with pytest.raises(ValueError, match="129 x 129 matrix: 1 block.*above the budget of 2097152"):
        missing_top_eigenvalue(x, 1)


# -- Betti numbers and connectivity -----------------------------------


def test_hollow_triangle_betti_and_eta():
    x = from_missing_faces(3, [(0, 1, 2)])
    assert [betti_exact(x, k) for k in (-1, 0, 1)] == [0, 0, 1]
    assert eta(x) == 2


def test_two_points_betti_and_eta():
    x = from_missing_faces(2, [(0, 1)])
    assert betti_exact(x, 0) == 1
    assert eta(x) == 1


def test_ag23_betti_and_eta():
    x = ag23()
    assert betti_exact(x, 2) == 1
    assert [betti_exact(x, k) for k in (-1, 0, 1)] == [0, 0, 0]
    assert eta(x) == 3


def test_full_simplex_eta_infinite():
    assert eta(from_missing_faces(4, [])) == math.inf
    assert eta(from_missing_faces(1, [])) == math.inf


def test_empty_complex_eta_zero():
    x = from_missing_faces(2, [(0,), (1,)])
    assert betti_exact(x, -1) == 1
    assert eta(x) == 0


def full_betti_eta(x):
    """eta read off the whole reduced Betti vector, -1 through the top."""
    nonzero = [k for k in range(-1, x.dim + 1) if betti_exact(x, k)]
    return nonzero[0] + 1 if nonzero else math.inf


def test_eta_of_a_cone_matches_the_full_betti_vector():
    # an apex joined to a random complex: the apex lies in no missing
    # face, and every reduced Betti number of the cone vanishes
    rng = random.Random(31)
    for _ in range(80):
        base = random_complex(rng, n_max=7)
        apex = rng.randrange(base.n + 1)
        relabel = [v + (v >= apex) for v in range(base.n)]
        cone = from_missing_faces(base.n + 1, [[relabel[v] for v in f] for f in base.missing_faces])
        assert eta(cone) == math.inf
        assert full_betti_eta(from_missing_faces(cone.n, cone.missing_faces)) == math.inf
        assert eta(base) == full_betti_eta(from_missing_faces(base.n, base.missing_faces))


def test_eta_of_a_cone_runs_no_rank(monkeypatch):
    ranked = []
    real = homology._coboundary_rank
    monkeypatch.setattr(homology, "_coboundary_rank",
                        lambda x, k: ranked.append(k) or real(x, k))
    cone = from_missing_faces(10, [(0, 1, 2), (3, 4), (5, 6, 7, 8)])  # apex 9
    assert eta(cone) == math.inf
    assert ranked == [] and cone._memo == {}
    # the zero-vertex complex is no cone: beta_-1 = 1 is ranked
    assert eta(Complex(0, [])) == 0
    assert eta(from_missing_faces(3, [(0, 1, 2)])) == 2
    assert ranked


def test_betti_agreement_and_euler_characteristic():
    rng = random.Random(20)
    for _ in range(30):
        n = rng.randint(2, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        chi_faces = sum((-1) ** k * x.n_faces(k) for k in range(-1, x.dim + 1))
        chi_betti = sum((-1) ** k * betti_exact(x, k) for k in range(-1, x.dim + 1))
        assert chi_faces == chi_betti
        for k in range(-1, x.dim + 1):
            assert betti_exact(x, k) == betti_hodge(x, k)
        assert betti_exact(x, x.dim + 1) == 0
        assert betti_exact(x, -3) == 0


def test_betti_hodge_matches_the_full_laplacian_kernel():
    # the Gram-rank count against the kernel dimension of the full
    # Laplacian, counted on its whole spectrum; degrees -1 through the
    # top, and both Gram sides of a coboundary, are taken
    rng = random.Random(22)
    smaller_side = set()
    for _ in range(60):
        x = random_complex(rng, n_max=8)
        for k in range(-1, x.dim + 1):
            kernel = sum(e < KERNEL_TOL for e in spectrum(x, k).eigenvalues)
            assert betti_hodge(x, k) == kernel
            if x.n_faces(k + 1):
                smaller_side.add("d^T d" if x.n_faces(k) <= x.n_faces(k + 1) else "d d^T")
    assert smaller_side == {"d^T d", "d d^T"}


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_betti_hodge_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    x = ag23()
    for k in (1, x.dim + 1):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            betti_hodge(x, k, tol=tol)


@pytest.mark.parametrize("value", [-1.0, 10.0])
def test_betti_hodge_range_guard(monkeypatch, value):
    x = from_missing_faces(4, [(0, 1, 2)])
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda mat: np.full(len(mat), value))
    for _ in range(2):  # a refused spectrum is not remembered: refused again
        with pytest.raises(RuntimeError, match="certified range"):
            betti_hodge(x, 1)
    monkeypatch.undo()
    full = laplacians(x, 1).full.astype(np.float64)
    assert betti_hodge(x, 1) == int(np.sum(np.linalg.eigvalsh(full) < KERNEL_TOL))


def test_one_prime_certificate_matches_the_certified_ranks():
    # betti_exact against f_k minus both ranks from rank_exact (primes
    # and a Hadamard bound) on a fresh copy of each complex, and its
    # Betti vector against the reduced Euler characteristic; both the
    # one-prime path (beta 0) and the fallback are taken
    rng = random.Random(21)
    vanishing = nonvanishing = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        fresh = Complex(x.n, x.missing_masks)
        bettis = [betti_exact(x, k) for k in range(-1, x.dim + 1)]
        for k, b in zip(range(-1, x.dim + 1), bettis):
            ranks = rank_exact(coboundary_matrix(fresh, k)) + rank_exact(coboundary_matrix(fresh, k - 1))
            assert b == x.n_faces(k) - ranks
            assert x._memo[("coboundary-rank", k)] == rank_exact(coboundary_matrix(fresh, k))
            vanishing += b == 0
            nonvanishing += b != 0
        chi = sum((-1) ** k * x.n_faces(k) for k in range(-1, x.dim + 1))
        assert chi == sum((-1) ** k * b for k, b in zip(range(-1, x.dim + 1), bettis))
    assert vanishing >= 40 and nonvanishing >= 5


def test_pg33_beta1_takes_one_elimination_per_coboundary(monkeypatch):
    # ranks 741 + 39 = 780 = f_1 modulo the first prime certify both
    # ranks and beta_1 = 0 with no second prime: one sparse elimination
    # of each coboundary's incidence rows, d_1 stopping at its bound
    # 780 - 39 = 741 after 1369 of its 9360 rows
    import scx.numerics.rational as rational

    calls, reads = [], {}
    real = rational._rank_mod

    def counting(a, p, target=None):
        calls.append(a.shape)

        def rows():
            for i, row in enumerate(a.rows, 1):
                reads[a.shape] = i
                yield row
        return real(SparseRows(a.shape, rows()), p, target)

    monkeypatch.setattr(rational, "_rank_mod", counting)
    pg33 = pg33_complex()
    x = Complex(pg33.n, pg33.missing_masks)
    assert betti_exact(x, 1) == 0
    assert sorted(calls) == [(780, 40), (9360, 780)]
    assert reads[(9360, 780)] == 1369
    assert (x._memo[("coboundary-rank", 1)], x._memo[("coboundary-rank", 0)]) == (741, 39)


def test_a_rank_at_its_bound_takes_one_prime(monkeypatch):
    # the join of five 3-point sets, a wedge of 2**5 4-spheres: no
    # homology below degree 4, so each of d_0..d_3 reaches f_k minus the
    # rank below modulo the first prime, and that certifies it with no
    # further prime (d_3, 243 x 405, reaches 405 - 194 = 211 pivots)
    import scx.numerics.rational as rational

    calls = []
    real = rational._rank_mod
    monkeypatch.setattr(rational, "_rank_mod",
                        lambda a, p, bound=None: calls.append(a.shape) or real(a, p, bound))
    assert betti_exact(complete_multipartite_complex(5, 3), 4) == 32
    assert sorted(calls) == [(90, 15), (243, 405), (270, 90), (405, 270)]


def test_every_exact_rank_goes_through_rank_exact(monkeypatch):
    # the one rank entry: tracing that wraps rank_exact sees every
    # elimination betti_exact makes
    ranked = []
    real = homology.rank_exact
    monkeypatch.setattr(homology, "rank_exact", lambda a, bound: ranked.append(a.shape) or real(a, bound))
    pg33 = pg33_complex()
    assert betti_exact(Complex(pg33.n, pg33.missing_masks), 1) == 0
    assert ranked == [(780, 40), (9360, 780)]


@pytest.mark.parametrize("name, n, missing, k, rank", [
    ("K200 d0", 200, [(0, 1)], 0, 199),
    ("pg33 d1", None, None, 1, 741),
])
def test_large_coboundary_ranks_are_fast(name, n, missing, k, rank):
    x = pg33_complex() if n is None else from_missing_faces(n, missing)
    t0 = time.process_time()
    assert homology._coboundary_rank(x, k) == rank
    assert time.process_time() - t0 < 0.5, name


def test_betti_and_eta_never_build_a_dense_coboundary(monkeypatch):
    # beta_1 of the hollow triangle, taken first, certifies its d_0
    # (rank 2 of 3) through rank_exact at the bound 3 - 1
    monkeypatch.setattr(homology, "coboundary_matrix", lambda *a: pytest.fail("dense coboundary"))
    ranked = []
    real = homology.rank_exact
    monkeypatch.setattr(homology, "rank_exact", lambda a, bound: ranked.append(a.shape) or real(a, bound))
    hollow = from_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    assert [betti_exact(hollow, k) for k in (1, 0, -1)] == [1, 0, 0]
    assert (3, 3) in ranked
    assert eta(from_missing_faces(3, [(0, 1, 2)])) == 2
    assert eta(ag23_complex()) == 3
    assert eta(from_missing_faces(4, [])) == math.inf


def dense_rank_mod(mat, p):
    """Rank modulo p of an integer array by Gaussian elimination, column
    by column, on rows of Python ints."""
    a = [[e % p for e in row] for row in mat.tolist()]
    rank = 0
    for j in range(mat.shape[1]):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][j], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][j] * inv % p
            a[i] = [(e - f * q) % p for e, q in zip(a[i], a[rank])]
        rank += 1
    return rank


@st.composite
def any_complex(draw, n_max=7):
    """A complex on n <= n_max vertices, half the time generated by random
    proper subsets as facets (vertices in none of them are missing), half
    the time by random minimal non-faces of two to four vertices (clique
    complexes and their relatives, where homology is common)."""
    n = draw(st.integers(1, n_max))
    if draw(st.booleans()):
        size = st.integers(min(2, n - 1), n - 1)
        gens = draw(st.lists(size.flatmap(lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k)),
                             min_size=1, max_size=2 * n))
        return from_facets(n, gens)
    fam = draw(st.sets(st.frozensets(st.integers(0, n - 1), min_size=min(2, n), max_size=4), max_size=3 * n))
    return from_missing_faces(n, [sorted(s) for s in fam if not any(t < s for t in fam)])


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(any_complex())
def test_betti_exact_satisfies_the_reduced_euler_characteristic(x):
    top = x.dim
    chi_faces = sum((-1) ** k * x.n_faces(k) for k in range(-1, top + 1))
    chi_betti = sum((-1) ** k * betti_exact(x, k) for k in range(-1, top + 1))
    assert chi_faces == chi_betti
    assert all(betti_exact(x, k) == 0 for k in range(top + 1, x.n + 1))


@PROPERTY_SETTINGS
@given(any_complex())
def test_sparse_rank_mod_p_matches_dense_elimination(x):
    import scx.numerics.rational as rational

    for p in (2**31 - 1, 3):
        for k in range(-1, x.dim + 1):
            dense = dense_rank_mod(coboundary_matrix(x, k), p)
            assert rational._rank_mod(homology._coboundary_rows(x, k), p) == dense, (p, k)
            if p > 3:
                assert homology._coboundary_rank(x, k) == dense, k


@PROPERTY_SETTINGS
@given(any_complex())
def test_exact_rows_and_the_float_incidence_come_from_one_builder(x):
    for k in range(-2, x.dim + 2):
        rows = homology._coboundary_rows(x, k)
        inc = homology._incidence(x, k)
        assert rows.shape == (x.n_faces(k + 1), x.n_faces(k)) and inc.shape == (rows.shape[0], k + 2)
        signs = [(-1) ** i for i in range(k + 2)]
        assert list(rows.rows) == list(rows.rows) == [(r, signs) for r in inc.tolist()]


@PROPERTY_SETTINGS
@given(any_complex())
def test_faces_are_the_vertex_tuples_of_the_masks(x):
    for k in range(-1, x.n + 1):
        want = tuple(f for f in combinations(range(x.n), k + 1) if x.contains(f))
        assert x.faces(k) == tuple(map(_vertices_of, x.face_masks(k))) == want, k


@PROPERTY_SETTINGS
@given(any_complex())
def test_spectral_gap_is_certified_zero_exactly_on_cohomology(x):
    # ker L_k is the reduced cohomology in degree k: the gap is 0.0 from
    # betti_exact alone, and the eigensolve it skips would read about 0;
    # elsewhere an integer within 1e-9 of the float gap is certified
    for k in range(-1, x.dim + 1):
        gap, mu = spectral_gap(x, k), spectrum(x, k).mu
        if betti_exact(x, k) != 0:
            assert gap == 0.0 and abs(mu) <= 1e-9, k
        else:  # an integer gap is certified exactly, any other stays float
            assert gap == (round(mu) if abs(mu - round(mu)) <= 1e-9 else mu) != 0.0, k


@PROPERTY_SETTINGS
@given(any_complex())
def test_a_missing_top_is_certified_exactly_when_its_float_value_is_an_integer(x):
    # the float path runs exactly when the solved top lies more than 1e-9
    # from every integer; a certified top is that integer
    solved = []
    with mock.patch.object(homology, "eigenvalues_sym",
                           lambda a: solved.append(a.shape) or eigenvalues_sym(a)):
        for i in sorted(x.missing_dims()):
            y = x.missing_complex(i)
            del solved[:]
            lam = missing_top_eigenvalue(x, i)
            want = eigenvalues_sym(homology._gram(y, i - 1))[-1]
            near = abs(want - round(want)) <= 1e-9
            assert abs(lam - want) <= 1e-9, i
            assert bool(solved) != near, i
            assert lam == (round(want) if near else want), i


def test_spectral_gap_solves_nothing_when_cohomology_is_nonzero(monkeypatch):
    # beta_2(ag23) != 0 (eta = 3), so mu_2 = 0 needs no eigensolve;
    # mu_1 = 6 still does
    solved = []
    real = homology.eigenvalues_sym
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda a: solved.append(a.shape) or real(a))
    x = ag23_complex()
    assert betti_exact(x, 2) != 0
    assert spectral_gap(x, 2) == 0.0 and solved == []
    assert spectral_gap(x, 1) == pytest.approx(6.0, abs=1e-9) and solved


def test_the_certificate_decides_a_near_integer_gap(monkeypatch):
    # mu_1(ag23) = 6.  A float solve reading 6 + 1e-12 is certified to 6.0
    # exactly; one reading 5 + 1e-12 puts r = 5 below the spectrum, where
    # L - 5I is PSD but not singular, so that float stays uncertified
    real = homology.eigenvalues_sym
    for shift, want in [(1e-12, 6.0), (-1 + 1e-12, None)]:
        monkeypatch.setattr(homology, "eigenvalues_sym", lambda a, d=shift: real(a) + d)
        gap = spectral_gap(ag23_complex(), 1)
        if want is None:
            assert gap != 5.0 and abs(gap - 5.0) <= 1e-9
        else:
            assert gap == want


def test_exact_betti_numbers_and_eta_read_no_vertex_tuples(monkeypatch):
    # the exact ranks read the coboundary rows off the face masks alone
    monkeypatch.setattr(Complex, "faces", lambda self, k: pytest.fail("Complex.faces"))
    rng = random.Random(29)
    complexes = [ag23(), from_facets(4, [(0, 1), (1, 2), (2, 3), (0, 3)])]
    for _ in range(30):
        n = rng.randint(2, 7)
        complexes.append(from_missing_faces(n, random_antichain(rng, n)))
    finite = 0
    for x in complexes:
        bettis = [betti_exact(x, k) for k in range(-1, x.dim + 1)]
        first = next((k for k, b in enumerate(bettis, -1) if b), None)
        assert eta(Complex(x.n, x.missing_masks)) == (math.inf if first is None else first + 1)
        finite += first is not None
    assert finite >= 2


def alexander_dual(x):
    """X* = {s : V minus s is not a face of X}; its minimal non-faces are
    the complements of X's facets."""
    return from_missing_faces(x.n, [[v for v in range(x.n) if v not in f] for f in x.facets()])


@PROPERTY_SETTINGS
@given(any_complex())
def test_betti_exact_satisfies_alexander_duality(x):
    """b~_i(X) = b~_{n-i-3}(X*) for every i."""
    assume(x.missing_faces)  # the full simplex has a void dual
    dual = alexander_dual(x)
    for i in range(-1, x.n):
        assert betti_exact(x, i) == betti_exact(dual, x.n - i - 3), i


def join(x, y):
    """X*Y on n_X + n_Y vertices: its minimal non-faces are X's and Y's,
    the latter shifted by n_X."""
    shifted = [[v + x.n for v in f] for f in y.missing_faces]
    return from_missing_faces(x.n + y.n, list(x.missing_faces) + shifted)


@PROPERTY_SETTINGS
@given(any_complex(n_max=5), any_complex(n_max=5))
def test_betti_exact_satisfies_kunneth_for_joins(x, y):
    """b~_{k+1}(X*Y) = sum over i+j=k of b~_i(X) b~_j(Y), with i, j >= -1."""
    bx = {i: betti_exact(x, i) for i in range(-1, x.n)}
    by = {j: betti_exact(y, j) for j in range(-1, y.n)}
    xy = join(x, y)
    for k in range(-2, x.n + y.n - 1):
        want = sum(bx[i] * by.get(k - i, 0) for i in range(-1, x.n))
        assert betti_exact(xy, k + 1) == want, k


def test_alexander_dual_of_the_hollow_triangle():
    # the facets' complements are the three vertices, so the dual is
    # {empty set}: b~_1(X) = 1 = b~_{-1}(X*)
    x = from_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    dual = alexander_dual(x)
    assert dual.missing_faces == ((0,), (1,), (2,))
    assert betti_exact(x, 1) == betti_exact(dual, -1) == 1


def test_betti_invariant_under_blowup():
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(2, 5)
        x = from_missing_faces(n, random_antichain(rng, n))
        a = [rng.randint(1, 2) for _ in range(n)]
        xa = x.blowup(a)
        for k in range(-1, max(x.dim, xa.dim) + 1):
            assert betti_exact(xa, k) == betti_exact(x, k)
        assert eta(xa) == eta(x)


def test_intersection_helper():
    a = from_missing_faces(4, [(0, 1)])
    b = from_missing_faces(4, [(1, 2, 3)])
    x = intersection([a, b])
    assert x.missing_faces == ((0, 1), (1, 2, 3))
    assert intersection([a]).missing_faces == a.missing_faces
    with pytest.raises(ValueError):
        intersection([])
    with pytest.raises(ValueError):
        intersection([a, from_missing_faces(3, [])])


# -- dense size guard ---------------------------------------------------


def test_dense_budget_refuses_before_allocating(monkeypatch):
    assert homology._DENSE_ENTRIES == 1 << 25
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    for shape in ((1 << 25) + 1, 1), (4097, 8192):
        with pytest.raises(ValueError, match=f"dense {shape[0]} x {shape[1]} matrix exceeds"):
            homology._zeros(*shape)


def test_dense_budget_guards_the_coboundary_and_both_assemblies():
    x = pg33_complex()
    for build in (laplacian_from_formula, laplacian_from_products):
        with pytest.raises(ValueError, match="dense 9360 x 9360 matrix"):
            build(x, 2)
    with pytest.raises(ValueError, match="dense 72540 x 9360 matrix"):
        coboundary_matrix(x, 2)

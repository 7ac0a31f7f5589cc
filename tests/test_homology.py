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
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scx.homology as homology
from scx.complexes import Complex, from_facets, from_missing_faces, intersection
from scx.homology import (
    betti_exact,
    betti_hodge,
    boundary_matrix,
    coboundary_matrix,
    eta,
    evaluate_cochain,
    laplacian_from_formula,
    laplacian_from_products,
    laplacians,
    missing_top_eigenvalue,
    sign,
    spectral_gap,
    spectrum,
)
from scx.matroids import ag23_complex, pg33_complex
from scx.numerics import eigenvalues_sym, rank_exact
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
        index = x.face_index(k)
        phi = cochain_on(faces, rng)

        def val(ordered):
            return evaluate_cochain(phi, index, ordered)

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


def test_evaluate_cochain_skew():
    x = from_missing_faces(4, [])
    index = x.face_index(1)
    phi = np.arange(1.0, 7.0)
    assert evaluate_cochain(phi, index, (0, 1)) == phi[index[(0, 1)]]
    assert evaluate_cochain(phi, index, (1, 0)) == -phi[index[(0, 1)]]
    with pytest.raises(KeyError):
        evaluate_cochain(phi, index, (0, 0, 1))


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
    assert spectral_gap(x, 1) == rep.mu


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
    sides = _solved_sides(monkeypatch)
    for n, missing, i, side, lam in [
        (4, [(0,), (2,)], 0, 1, 2.0),              # missing vertices: C(n, 0) = 1 row
        (3, [(0, 1), (0, 2), (1, 2)], 1, 3, 3.0),  # equal sides: the triangle's graph Laplacian
        (2, [(0, 1)], 1, 1, 2.0),                  # a single missing edge
        (9, ag23_lines(), 2, 12, 3.0),             # ag23: 12 lines against 36 edges
    ]:
        x = from_missing_faces(n, missing)
        del sides[:]
        assert missing_top_eigenvalue(x, i) == pytest.approx(lam, abs=1e-8)
        assert sides == [side]
        with pytest.raises(ValueError):
            missing_top_eigenvalue(x, i - 1)


def test_missing_top_eigenvalue_solves_the_smaller_laplacian(monkeypatch):
    rng = random.Random(20)
    cases = [random_complex(rng) for _ in range(120)]
    sides = _solved_sides(monkeypatch)
    for x in cases:
        for i in sorted(x.missing_dims()):
            y = x.missing_complex(i)
            del sides[:]
            lam = missing_top_eigenvalue(x, i)
            assert sides == [min(y.n_faces(i - 1), y.n_faces(i))]
            upper = eigenvalues_sym(laplacians(y, i - 1).plus.astype(np.float64))[-1]
            assert abs(lam - upper) <= 1e-9 * max(1.0, upper)


def test_missing_top_eigenvalue_range_guard(monkeypatch):
    x = from_missing_faces(4, [(0, 1, 2)])
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda mat: np.full(len(mat), x.n + 1.0))
    with pytest.raises(RuntimeError, match="certified range"):
        missing_top_eigenvalue(x, 2)
    assert ("missing-top", 2) not in x._memo


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

"""Jacobi eigensolver against closed forms, numpy's LAPACK oracle and its
own whole-matrix run on block-diagonal inputs."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import scx.numerics.eigen
from scx import homology
from scx.numerics.eigen import EigenError, distinct_blocks, eigenvalues_sym
from scx.randomgen import random_complex


def octahedron_l0():
    """J + graph Laplacian of the complete 3-partite graph with parts of 2."""
    n = 6
    parts = [(0, 1), (2, 3), (4, 5)]
    adj = np.ones((n, n)) - np.eye(n)
    for a, b in parts:
        adj[a, b] = adj[b, a] = 0.0
    deg = np.diag(adj.sum(axis=1))
    return np.ones((n, n)) + deg - adj


def test_diagonal():
    w = eigenvalues_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3], atol=1e-12)


def test_scaled_identity():
    w = eigenvalues_sym(5.0 * np.eye(10))
    assert np.allclose(w, 5.0, atol=1e-12)


def test_octahedron_vertex_laplacian():
    w = eigenvalues_sym(octahedron_l0())
    assert np.allclose(w, [4, 4, 4, 6, 6, 6], atol=1e-9)
    assert abs(w[0] - 4.0) < 1e-10


def test_hand_charpoly_cases():
    # [[2,1],[1,2]]: roots of (2-t)^2 = 1 -> 1, 3
    w = eigenvalues_sym([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(w, [1, 3], atol=1e-10)
    # path on 3 vertices adjacency: roots of t^3 = 2t -> -sqrt2, 0, sqrt2
    w = eigenvalues_sym([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.allclose(w, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-10)


def test_against_lapack():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = int(rng.integers(1, 13))
        a = rng.normal(size=(m, m))
        a = a + a.T
        w = eigenvalues_sym(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, ref, atol=1e-9 * max(1.0, np.linalg.norm(a)))


@pytest.mark.parametrize("tiny", [1e-200, 1e-310])
def test_tiny_off_diagonal_does_not_overflow(tiny):
    # a[0,2] is still tiny after the (0,1) rotation, so theta = 3/a[0,2]
    # leaves the range where theta*theta (or, subnormal, theta) is finite.
    a = np.array([[0.0, 1.0, tiny], [1.0, 0.0, 0.0], [tiny, 0.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = eigenvalues_sym(a)
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        eigenvalues_sym([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eigenvalues_sym([[np.nan]])
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))


def test_degenerate_sizes():
    assert eigenvalues_sym(np.zeros((0, 0))).shape == (0,)
    assert np.allclose(eigenvalues_sym([[7.0]]), [7.0])


def test_no_convergence_is_refused(monkeypatch):
    monkeypatch.setattr(scx.numerics.eigen, "SWEEP_LIMIT", 0)
    with pytest.raises(EigenError, match="did not converge"):
        eigenvalues_sym([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(EigenError, match=r"\(block side 2 of matrix side 2\)"):
        eigenvalues_sym([[2.0, 1.0], [1.0, 2.0]])
    a = np.array([[2.0, 0, 1, 0], [0, 5, 0, 0], [1, 0, 2, 0], [0, 0, 0, 5]])
    with pytest.raises(EigenError, match=r"\(block side 2 of matrix side 4\)"):
        eigenvalues_sym(a)


def random_symmetric(rng, m, integer):
    b = rng.integers(-6, 7, size=(m, m)) if integer else rng.normal(size=(m, m))
    return b + b.T


def test_integer_input_matches_its_float_twin_bit_for_bit():
    # an integer matrix is split in its own dtype, a float one in float64
    rng = np.random.default_rng(11)
    for _ in range(40):
        one = random_symmetric(rng, int(rng.integers(1, 16)), integer=True)
        split = block_diagonal(rng, [random_symmetric(rng, k, integer=True) for k in (3, 1, 3, 2)])
        for a in (one, split, split.astype(np.int32)):
            got = eigenvalues_sym(a)
            assert got.dtype == np.float64
            assert np.array_equal(got, eigenvalues_sym(a.astype(np.float64)))


def test_input_neither_integer_nor_float_is_converted_first():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert np.array_equal(eigenvalues_sym([[half, third], [third, half]]),
                          eigenvalues_sym([[0.5, 1 / 3], [1 / 3, 0.5]]))
    assert np.array_equal(eigenvalues_sym(np.eye(3, dtype=bool)), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_sym([[Fraction(1), None], [None, Fraction(1)]])


def block_diagonal(rng, blocks):
    """The blocks on the diagonal of a random symmetric permutation that
    interleaves their rows but keeps the row order within each block."""
    m = sum(len(b) for b in blocks)
    a = np.zeros((m, m), dtype=blocks[0].dtype)
    rows = rng.permutation(m)
    at = 0
    for b in blocks:
        idx = np.sort(rows[at:at + len(b)])
        a[np.ix_(idx, idx)] = b
        at += len(b)
    return a


@pytest.mark.parametrize("integer", [False, True])
def test_input_is_never_mutated(integer):
    rng = np.random.default_rng(5)
    one = random_symmetric(rng, 12, integer)
    four = block_diagonal(rng, [random_symmetric(rng, k, integer) for k in (4, 1, 4, 3)])
    for a in (one, four):
        before = a.copy()
        eigenvalues_sym(a)
        assert a.dtype == before.dtype
        assert np.array_equal(a, before)


def test_masked_off_norm_is_the_triu_indices_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 60))
        a = random_symmetric(rng, m, integer=False) * 10.0 ** rng.integers(-150, 150)
        before = a.copy()
        iu = np.triu_indices(m, 1)
        want = math.sqrt(2.0 * float(np.sum(a[iu] ** 2)))
        got = scx.numerics.eigen._off_norm(a, ~np.tri(m, dtype=bool))
        assert got == want
        assert np.array_equal(a, before)


def test_blocks_are_the_components_of_the_nonzero_pattern():
    a = np.eye(7)
    for p, q in [(0, 5), (5, 2), (3, 6)]:
        a[p, q] = a[q, p] = -1.0
    a[4, 4] = 0.0  # a zero row is a block of its own
    got = scx.numerics.eigen._blocks(a)
    assert [b.tolist() for b in got] == [[0, 2, 5], [1], [3, 6], [4]]
    assert [b.tolist() for b in scx.numerics.eigen._blocks(np.ones((5, 5)))] == [[0, 1, 2, 3, 4]]
    assert len(scx.numerics.eigen._blocks(np.diag([1.0, 2.0, 3.0]))) == 3


def path_laplacian(m):
    """The graph Laplacian of a path on m vertices: one connected block."""
    a = np.diag(np.r_[1, np.full(m - 2, 2), 1])
    i = np.arange(m - 1)
    a[i, i + 1] = a[i + 1, i] = -1
    return a


def test_distinct_blocks_keep_each_block_once_with_its_copies():
    rng = np.random.default_rng(4)
    b3, b2 = random_symmetric(rng, 3, True) + 20, random_symmetric(rng, 2, True) + 20
    a = block_diagonal(rng, [b3, np.array([[5]]), b3, b2, np.array([[5]]), b3])
    pairs = distinct_blocks(a)
    assert sorted(copies.shape for _, copies in pairs) == [(1, 2), (2, 1), (3, 3)]
    for b, copies in pairs:
        for idx in copies:
            assert np.array_equal(a[np.ix_(idx, idx)], b)
        assert np.shares_memory(b, a) == (len(b) == 1)  # side 1: a view, no copy
    assert sorted(np.concatenate([c.ravel() for _, c in pairs]).tolist()) == list(range(13))
    one = path_laplacian(5)
    [(b, copies)] = distinct_blocks(one)
    assert b is one and copies.tolist() == [[0, 1, 2, 3, 4]]
    assert distinct_blocks(np.zeros((0, 0))) == []


def test_the_work_budget_counts_each_distinct_block_once(monkeypatch):
    rng = np.random.default_rng(8)
    b3, b2 = random_symmetric(rng, 3, False), random_symmetric(rng, 2, False)
    a = block_diagonal(rng, [b3, b3, b2, b3, b2])
    monkeypatch.setattr(scx.numerics.eigen, "MAX_BLOCK_WORK", 3**3 + 2**3)
    assert len(eigenvalues_sym(a)) == 13
    monkeypatch.setattr(scx.numerics.eigen, "MAX_BLOCK_WORK", 3**3 + 2**3 - 1)
    with pytest.raises(ValueError, match=r"^13 x 13 matrix: 5 block\(s\), 2 distinct, "
                                         r"largest side 3; sides cubed sum to 35, "
                                         r"above the budget of 34$"):
        eigenvalues_sym(a)


def test_a_connected_matrix_over_the_work_budget_is_refused_unsolved(monkeypatch):
    # 129**3 = 2146689 is past the budget of 2**21 = 128**3
    monkeypatch.setattr(scx.numerics.eigen, "_jacobi", lambda a, tol: pytest.fail("solved"))
    with pytest.raises(ValueError, match="129 x 129 matrix: 1 block.*largest side 129; "
                                         "sides cubed sum to 2146689, above the budget of 2097152"):
        eigenvalues_sym(path_laplacian(129))


def whole_matrix_run(a):
    """The kernel on the whole matrix at once, sorted as eigenvalues_sym sorts."""
    a = np.array(a, dtype=np.float64)
    tol = scx.numerics.eigen.OFF_TOL * float(np.linalg.norm(a))
    assert scx.numerics.eigen._jacobi(a, tol) >= 0
    return np.sort(np.diag(a), kind="stable")


def test_permuted_block_diagonal_is_the_whole_matrix_run_bit_for_bit(monkeypatch):
    # With OFF_TOL = 0 both runs sweep until the off-diagonal is exactly
    # zero, after which a sweep rotates nothing.  Rotations of different
    # blocks touch disjoint entries and keep the zeros between blocks +0,
    # so each block ends the same alone as inside the whole matrix.
    monkeypatch.setattr(scx.numerics.eigen, "OFF_TOL", 0.0)
    rng = np.random.default_rng(23)
    for _ in range(40):
        integer = bool(rng.integers(0, 2))
        blocks = [random_symmetric(rng, int(k), integer) for k in rng.integers(1, 7, size=3)]
        blocks += [blocks[int(j)] for j in rng.integers(0, 3, size=int(rng.integers(0, 3)))]
        a = block_diagonal(rng, blocks)
        assert np.array_equal(eigenvalues_sym(a), whole_matrix_run(a))


def test_identical_blocks_are_solved_once(monkeypatch):
    calls = []
    kernel = scx.numerics.eigen._jacobi

    def counting(a, tol):
        calls.append(a.shape[0])
        return kernel(a, tol)

    monkeypatch.setattr(scx.numerics.eigen, "_jacobi", counting)
    rng = np.random.default_rng(8)
    b3, b2 = random_symmetric(rng, 3, False), random_symmetric(rng, 2, False)
    a = block_diagonal(rng, [b3, b3, b2, b3, b2])
    w = eigenvalues_sym(a)
    assert sorted(calls) == [2, 3]
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-12 * np.linalg.norm(a))


def test_each_block_converges_to_its_own_norm():
    # Under the whole matrix's bound, 1e-12 * |A| ~ 3e-6, the small block
    # would be left unrotated with eigenvalues 2e-8, 2e-8.
    pair = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = np.zeros((4, 4))
    a[np.ix_([0, 2], [0, 2])] = 1e6 * pair
    a[np.ix_([1, 3], [1, 3])] = 1e-8 * pair
    w = eigenvalues_sym(a)
    assert np.allclose(w, [1e-8, 3e-8, 1e6, 3e6], rtol=1e-12, atol=0)


def test_entries_below_the_threshold_are_not_rotated():
    # (2, 3) sits at half the threshold tol/m: the sweep rotates (0, 1),
    # then the whole off-diagonal, sqrt(2) * tol/(2m), passes the test.
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    a[0, 1] = a[1, 0] = 5.0
    tol = scx.numerics.eigen.OFF_TOL * float(np.linalg.norm(a))
    a[2, 3] = a[3, 2] = tol / 8
    assert scx.numerics.eigen.OFF_TOL * float(np.linalg.norm(a)) == tol
    before = a.copy()
    assert scx.numerics.eigen._jacobi(a, tol) == 1
    assert a[0, 1] == 0.0 and a[0, 0] != before[0, 0]
    for p, q in [(2, 3), (3, 2), (2, 2), (3, 3)]:
        assert a[p, q] == before[p, q]


def test_complex_laplacians_against_lapack():
    # Integer Laplacians of the sides that dominate the spectral suites.
    # Each eigenvalue is within the off-diagonal's Frobenius norm (Weyl),
    # at most tol, plus the rounding of the rotations, m * eps * |A|.
    rng = random.Random(17)
    sides = set()
    while len(sides) < 12:
        x = random_complex(rng, n=rng.choice([7, 8]))
        for k in range(3):
            lap = homology.laplacians(x, k).full
            m = lap.shape[0]
            if not 17 <= m <= 70:
                continue
            sides.add(m)
            norm = float(np.linalg.norm(lap))
            tol = scx.numerics.eigen.OFF_TOL * norm
            ref = np.linalg.eigvalsh(lap.astype(np.float64))
            w = eigenvalues_sym(lap)
            assert np.max(np.abs(w - ref)) <= tol + m * np.finfo(np.float64).eps * norm
            a = lap.astype(np.float64)
            assert scx.numerics.eigen._jacobi(a, tol) >= 0
            assert scx.numerics.eigen._off_norm(a, ~np.tri(m, dtype=bool)) <= tol

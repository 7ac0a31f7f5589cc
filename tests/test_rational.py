"""Exact rank and rational matrices against sympy's independent arithmetic."""

import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import scx.homology as homology
import scx.numerics.rational as rational
from scx.homology import coboundary_matrix
from scx.numerics.rational import psd_rank, rank_exact
from scx.randomgen import random_complex


def test_rank_trivial():
    assert rank_exact(np.zeros((3, 4), dtype=np.int64)) == 0
    assert rank_exact([]) == 0
    assert rank_exact(np.eye(5, dtype=np.int64)) == 5


def test_rank_hollow_triangle_boundaries():
    # coboundary C^0 -> C^1 of the triangle graph: rows are edges
    d0 = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    assert rank_exact(d0) == 2
    # no 2-faces: the 0x3 matrix has rank 0
    assert rank_exact(np.zeros((0, 3), dtype=np.int64)) == 0


def test_rank_matches_sympy_on_random_int_matrices():
    rng = random.Random(314)
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        want = sympy.Matrix(rows).rank()
        assert rank_exact(rows) == want
        assert rank_exact(list(map(list, zip(*rows)))) == want  # rank(M) = rank(M^T)


def test_rank_rational_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
        [Fraction(2, 1), Fraction(4, 3)],
    ]
    want = sympy.Matrix([[sympy.Rational(str(e)) for e in r] for r in rows]).rank()
    assert rank_exact(rows) == want
    # Hilbert segment: notoriously ill-conditioned in floats, exact here
    hil = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert rank_exact(hil) == 5
    # rows cleared of denominators separately: a rank-deficient stack
    dep = [[Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)],
           [Fraction(2, 3), Fraction(4, 5), Fraction(2, 7)],
           [Fraction(1, 2), 0, Fraction(-1, 9)]]
    assert rank_exact(dep) == sympy.Matrix([[sympy.Rational(str(e)) for e in r] for r in dep]).rank() == 2


def test_rank_rejects_non_integral_floats():
    with pytest.raises(ValueError):
        rank_exact([[0.5]])
    assert rank_exact([[2.0, 4.0]]) == 1  # integral floats are accepted


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 1.5])
def test_rank_rejects_non_finite_and_fractional_floats(bad):
    with pytest.raises(ValueError):
        rank_exact([[bad, 1.0]])
    with pytest.raises(ValueError):
        rank_exact(np.array([[1.0, bad]]))


def test_rank_rejects_ragged_rows():
    with pytest.raises(ValueError):
        rank_exact([[1, 2], [3]])


# The primes rank_exact works modulo, in the order it takes them: the
# largest below 2**31 first.
P0 = sympy.prevprime(2**31)
P1 = sympy.prevprime(P0)
P2 = sympy.prevprime(P1)


def test_primes_run_down_from_the_largest_below_2_31():
    want = [sympy.prevprime(2**31)]
    while len(want) < 25:
        want.append(sympy.prevprime(want[-1]))
    assert list(islice(rational._primes(), 25)) == want


def test_the_first_prime_takes_no_primality_test(monkeypatch):
    # M31 = 2**31 - 1 comes first untested; each later prime is searched
    # for downward, testing every odd number on the way
    tested = []
    is_prime = rational._is_prime
    monkeypatch.setattr(rational, "_is_prime", lambda q: tested.append(q) or is_prime(q))
    assert next(rational._primes()) == P0 == 2**31 - 1
    assert rank_exact([[2, 1], [1, 2]]) == 2
    assert tested == []
    assert rank_exact([[P0 * P1, 0], [0, 1]]) == 2  # needs P0, P1 and P2
    assert tested == list(range(2**31 - 3, P2 - 1, -2))


@pytest.mark.parametrize(
    "rows, want",
    [
        # the only nonzero 2-minor is divisible by the first prime: rank 1
        # modulo P0, so one prime alone would answer 1
        ([[P0, 0], [0, 1]], 2),
        # ... by the first two primes
        ([[P0 * P1, 0], [0, 1]], 2),
        ([[P0 * P1, 0, 0], [0, 1, 0], [0, 0, 0]], 2),
        # the only nonzero entry vanishes modulo the first three primes
        ([[0, P0 * P1 * P2], [0, 0]], 1),
        # a 2x3 matrix of rank 2 whose 2-minors all vanish modulo P0
        ([[1, 1, 1], [1, 1 + P0, 1 + 2 * P0]], 2),
    ],
)
def test_rank_is_certified_past_primes_dividing_every_minor(rows, want):
    assert sympy.Matrix(rows).rank() == want
    assert rank_exact(rows) == want
    dtype = np.int64 if max(abs(e) for r in rows for e in r) < 2**63 else object
    assert rank_exact(np.array(rows, dtype=dtype)) == want
    assert rank_exact(np.array(rows, dtype=dtype).T) == want


def test_rank_matches_sympy_on_random_coboundary_like_matrices():
    # sparse +-1 matrices, rank-deficient by construction often enough
    rng = random.Random(2718)
    for _ in range(60):
        m = rng.randint(1, 14)
        n = rng.randint(1, 14)
        rows = [[rng.choice((-1, 1)) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.5:  # a dependent row
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        want = sympy.Matrix(rows).rank()
        assert rank_exact(np.array(rows, dtype=np.int64)) == want
        assert rank_exact(rows) == want


def test_rank_matches_sympy_on_coboundaries_of_random_complexes():
    rng = random.Random(1618)
    for _ in range(25):
        x = random_complex(rng, n_max=7)
        for k in range(-1, x.dim):
            d = coboundary_matrix(x, k)
            want = sympy.Matrix(d.tolist()).rank()
            assert rank_exact(d) == want
            assert rank_exact(homology._coboundary_rows(x, k)) == want  # the incidence rows


def test_rank_with_entries_beyond_31_bits():
    rng = random.Random(161)
    for _ in range(20):
        m, n, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        big = 2 ** rng.choice((31, 40, 62, 90))
        b = [[rng.randint(-big, big) for _ in range(r)] for _ in range(m)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
        want = sympy.Matrix(rows).rank()
        assert rank_exact(rows) == want
        assert rank_exact([[Fraction(e, 7) for e in row] for row in rows]) == want
    # int64 and uint64 arrays near their limits: exact squared norms
    top = 2**61 + 12345
    a = np.array([[top, top - 1], [top - 1, top - 2]], dtype=np.int64)
    assert rank_exact(a) == sympy.Matrix(a.tolist()).rank() == 2
    assert rank_exact(np.array([[top, 2 * top], [-top, -2 * top]], dtype=np.int64)) == 1
    u = np.array([[2**64 - 1, 2**63], [2**63, 2**62]], dtype=np.uint64)
    assert rank_exact(u) == sympy.Matrix([[int(e) for e in r] for r in u]).rank() == 2


def test_is_prime_matches_trial_division():
    def trial_division(q):
        return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))

    for q in range(-3, 10**5):
        assert rational._is_prime(q) == trial_division(q), q
    assert rational._is_prime(2**31 - 1)
    # Carmichael numbers, and a strong pseudoprime to bases 2, 3 and 5
    # that base 7 exposes
    for q in (561, 1105, 25326001):
        assert not rational._is_prime(q)
    assert sympy.isprime(2**31 - 1) and not sympy.isprime(25326001)


def test_rank_mod_stopping_at_an_upper_bound_keeps_the_rank():
    # a target at or above the rank modulo p stops the elimination early
    # but never changes the rank it returns: on coboundaries (target f_k
    # minus the rank one degree down, valid over any field since d d = 0)
    # and on random integer rows (the rank itself, and above it)
    rng = random.Random(577)
    for p in (2**31 - 1, 3):
        for _ in range(25):
            x = random_complex(rng, n_max=7)
            below = 0
            for k in range(-1, x.dim + 1):
                rows = homology._coboundary_rows(x, k)
                rank = rational._rank_mod(rows, p)
                assert rational._rank_mod(rows, p, x.n_faces(k) - below) == rank, (p, k)
                below = rank
        for _ in range(60):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            dense = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)]
            rows = rational._sparse(dense)
            rank = rational._rank_mod(rows, p)
            for target in (rank, rank + rng.randint(1, 3)):
                assert rational._rank_mod(rows, p, target) == rank, (p, target)


def _psd_rank_oracle(rows):
    """Rank when PSD, else None, from sympy's exact real roots of the
    characteristic polynomial (a symmetric matrix has only real ones)."""
    if not rows:
        return 0
    roots = sympy.real_roots(sympy.Matrix(rows).charpoly())
    assert len(roots) == len(rows)
    if any(r < 0 for r in roots):
        return None
    return sum(1 for r in roots if r != 0)


@st.composite
def symmetric_int_matrices(draw, side_max=5):
    """Symmetric integer matrices of side at most side_max: half the time
    B^T B for an integer B (PSD, often singular), else arbitrary."""
    n = draw(st.integers(0, side_max))
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n + 1))
        return [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(it)
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_int_matrices())
def test_psd_rank_matches_sympys_exact_eigenvalues(rows):
    copy = [list(r) for r in rows]
    assert psd_rank(rows) == _psd_rank_oracle(rows)
    assert rows == copy


@pytest.mark.parametrize("rows, want", [
    ([], 0),                                          # the empty matrix
    ([[0, 0], [0, 0]], 0),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 2),     # PSD and singular: the triangle's Laplacian
    ([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], None),  # 3I - that Laplacian, less one: eigenvalue -1
    ([[3, 0], [0, 0]], 1),                            # a zero diagonal with a zero row
    ([[0, 1], [1, 5]], None),                         # a zero diagonal with a nonzero row ...
    ([[0, 1], [1, 0]], None),                         # ... and with no positive pivot left
    ([[1, 1, 1], [1, 1, 0], [1, 0, 1]], None),        # zero diagonals left by the first pivot
    ([[-1]], None),                                   # a negative diagonal
    ([[5, 1], [1, -2]], None),
    ([[4, 2], [2, 1]], 1),                            # singular after one pivot
])
def test_psd_rank_cases(rows, want):
    assert psd_rank(rows) == want == _psd_rank_oracle(rows)


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], [[1, 0]], [[1], [0, 1]]])
def test_psd_rank_refuses_a_matrix_that_is_not_square_and_symmetric(rows):
    with pytest.raises(ValueError, match="square symmetric"):
        psd_rank(rows)

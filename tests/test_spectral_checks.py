"""Inequality/identity checkers on known-tight and random instances.

The affine-plane complex is the extremal case for most of the
inequalities here: margins are asserted to vanish where theory says
they must.  Random campaigns are small; the heavier seeded sweeps live
in the acceptance suite.
"""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from scx.complexes import from_missing_faces
from scx.homology import sign, spectral_gap
from scx.spectral_checks import (
    check_complement_identity,
    check_connectivity_eigen,
    check_degree_sum,
    check_gap_lower_bound,
    check_gap_recursion,
    check_intersection_gap,
    check_upper_energy,
    check_vanishing_threshold,
)


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


def random_complex(rng, n_max=7):
    while True:
        n = rng.randint(3, n_max)
        cards = rng.sample(range(1, n), rng.randint(1, min(2, n - 1)))
        fam = set()
        for c in cards:
            for mu in combinations(range(n), c):
                if rng.random() < 0.3:
                    fam.add(frozenset(mu))
        minimal = [tuple(sorted(s)) for s in fam if not any(t < s for t in fam)]
        if minimal:
            return from_missing_faces(n, sorted(minimal))


# -- gap recursion ----------------------------------------------------


def test_gap_recursion_clique_complex_is_classic_bound():
    # d=1, k=1: k mu_k >= (k+1) mu_{k-1} - n
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(4, 7)
        non_edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        if not non_edges:
            continue
        x = from_missing_faces(n, non_edges)
        rec = check_gap_recursion(x, 1)
        assert rec.passed
        assert rec.lhs == pytest.approx(spectral_gap(x, 1) if math.isfinite(rec.lhs) else rec.lhs)


def test_gap_recursion_ag23_tight_at_k2():
    rec = check_gap_recursion(ag23(), 2)
    assert rec.passed
    assert rec.lhs == pytest.approx(0.0, abs=1e-8)
    assert rec.rhs == pytest.approx(0.0, abs=1e-8)


def test_gap_recursion_validates_k():
    with pytest.raises(ValueError):
        check_gap_recursion(ag23(), 1)
    with pytest.raises(ValueError):
        check_gap_recursion(from_missing_faces(4, []), 0)


def test_gap_recursion_vacuous_above_dimension():
    x = from_missing_faces(3, [(0, 1, 2)])
    rec = check_gap_recursion(x, 2)
    assert rec.passed and rec.note.startswith("vacuous")


def test_gap_recursion_random_sweep():
    rng = random.Random(32)
    for _ in range(40):
        x = random_complex(rng)
        d = x.max_missing_dim()
        for k in range(d, x.dim + 2):
            assert check_gap_recursion(x, k).passed


# -- vanishing threshold ----------------------------------------------


def test_threshold_rejects_no_missing_faces():
    with pytest.raises(ValueError):
        check_vanishing_threshold(from_missing_faces(4, []), 1)


def test_threshold_ag23_sharpness():
    # mu_1 = 6 equals the k=2 threshold (1 - 1/3) * 9, so the corollary
    # does not apply -- and indeed H^2 is nonzero
    rec = check_vanishing_threshold(ag23(), 2)
    assert rec.passed and "not applicable" in rec.note
    assert rec.lhs == pytest.approx(6.0, abs=1e-8)
    assert rec.rhs == pytest.approx(6.0, abs=1e-8)


def test_threshold_fires_on_near_complete_graph():
    # K_5 minus one edge: mu_0 = 3 > (1 - 1/2) * 5, so cohomology
    # vanishes in degrees 0..1
    x = from_missing_faces(5, [(0, 1)])
    rec = check_vanishing_threshold(x, 1)
    assert rec.passed and rec.note == ""
    assert rec.details["betti"] == {0: 0, 1: 0}


def test_threshold_random_sweep():
    rng = random.Random(33)
    fired = 0
    for _ in range(60):
        x = random_complex(rng)
        d = x.max_missing_dim()
        for k in range(d - 1, x.dim + 2):
            rec = check_vanishing_threshold(x, k)
            assert rec.passed
            fired += rec.note == ""
    assert fired > 0  # the hypothesis does fire sometimes


# -- intersection gap -------------------------------------------------


def test_intersection_single_complex_equality():
    rec = check_intersection_gap([ag23()], 1)
    assert rec.passed and rec.margin == pytest.approx(0.0, abs=1e-9)


def test_intersection_with_itself_is_max_eig_bound():
    x = ag23()
    rec = check_intersection_gap([x, x], 1)
    assert rec.passed
    assert rec.lhs == pytest.approx(6.0, abs=1e-8)
    assert rec.rhs == pytest.approx(2 * 6.0 - 9, abs=1e-8)


def test_intersection_random_pairs():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(3, 6)
        a = random_complex(rng, n_max=n)
        while a.n != n:
            a = random_complex(rng, n_max=n)
        b = random_complex(rng, n_max=n)
        while b.n != n:
            b = random_complex(rng, n_max=n)
        for k in range(0, 3):
            assert check_intersection_gap([a, b], k).passed


def test_intersection_requires_common_vertex_set():
    with pytest.raises(ValueError):
        check_intersection_gap([from_missing_faces(3, []), from_missing_faces(4, [])], 0)


# -- complement identity ----------------------------------------------


def test_complement_identity_ag23():
    rec = check_complement_identity(ag23(), 2)
    assert rec.passed
    assert rec.details["matrix_deviation"] == 0
    assert rec.lhs == pytest.approx(6.0, abs=1e-8)  # mu_1 of the relaxation
    assert rec.details["top_eig"] == pytest.approx(3.0, abs=1e-8)


def test_complement_identity_graph_case():
    # for a graph layer the identity is the complement-graph Laplacian
    # relation, so it holds for any complex with missing edges
    rng = random.Random(35)
    for _ in range(10):
        n = rng.randint(3, 7)
        non_edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if not non_edges:
            continue
        x = from_missing_faces(n, non_edges)
        assert check_complement_identity(x, 1).passed


def test_complement_identity_random_all_layers():
    rng = random.Random(36)
    for _ in range(25):
        x = random_complex(rng)
        for i in sorted(x.missing_dims()):
            rec = check_complement_identity(x, i)
            assert rec.passed, (x, i, rec)


def test_complement_identity_requires_layer():
    with pytest.raises(ValueError):
        check_complement_identity(ag23(), 1)


# -- gap lower bound and connectivity bound ---------------------------


def test_gap_lower_bound_ag23_tight():
    rec = check_gap_lower_bound(ag23(), 1)
    assert rec.passed
    assert rec.margin == pytest.approx(0.0, abs=1e-8)


def test_gap_lower_bound_random():
    rng = random.Random(37)
    for _ in range(30):
        x = random_complex(rng)
        for k in range(0, x.dim + 2):
            assert check_gap_lower_bound(x, k).passed


def test_connectivity_eigen_tight_cases():
    for x, lhs in [
        (ag23(), 9.0),
        (from_missing_faces(3, [(0, 1, 2)]), 3.0),
        (from_missing_faces(2, [(0, 1)]), 2.0),
    ]:
        rec = check_connectivity_eigen(x)
        assert rec.passed
        assert rec.lhs == pytest.approx(lhs, abs=1e-8)
        assert rec.margin == pytest.approx(0.0, abs=1e-8)


def test_connectivity_eigen_vacuous_when_contractible():
    rec = check_connectivity_eigen(from_missing_faces(4, []))
    assert rec.passed and "vacuous" in rec.note


def test_connectivity_eigen_random():
    rng = random.Random(38)
    for _ in range(30):
        assert check_connectivity_eigen(random_complex(rng)).passed


# -- upper energy -----------------------------------------------------


def test_upper_energy_zero_cochain():
    y = ag23().missing_complex(2)
    rec = check_upper_energy(y, np.zeros(y.n_faces(1)))
    assert rec.passed and rec.lhs == 0.0 and rec.rhs == 0.0


def test_upper_energy_indicator_cochain():
    y = ag23().missing_complex(2)
    phi = np.zeros(y.n_faces(1))
    phi[0] = 1.0
    rec = check_upper_energy(y, phi)
    assert rec.passed
    assert rec.lhs == pytest.approx(y.degree(y.faces(1)[0]))
    assert rec.rhs >= rec.lhs


def test_upper_energy_random():
    rng = random.Random(39)
    for _ in range(15):
        x = random_complex(rng, n_max=6)
        for i in sorted(x.missing_dims()):
            if i < 1:
                continue
            y = x.missing_complex(i)
            for _ in range(3):
                phi = np.array([rng.uniform(-1, 1) for _ in range(y.n_faces(i - 1))])
                assert check_upper_energy(y, phi).passed


def test_upper_energy_rhs_matches_a_tuple_evaluation_through_sign():
    # the cochain's value on an ordered simplex is its entry at the
    # sorted face times the relative sign of the two orders; the sum is
    # taken over the same faces and pairs in the same order, so the
    # floats agree exactly
    rng = random.Random(41)
    layers = 0
    for _ in range(40):
        x = random_complex(rng, n_max=7)
        for i in sorted(x.missing_dims()):
            if i < 1:
                continue
            y = x.missing_complex(i)
            j = y.dim - 1
            index = {f: p for p, f in enumerate(y.faces(j))}
            phi = np.array([rng.gauss(0.0, 1.0) for _ in index])

            def val(ordered):
                key = tuple(sorted(ordered))
                return sign(ordered, key) * phi[index[key]]

            want = 0.0
            for sigma in y.faces(j - 1):
                outside = [v for v in range(y.n) if v not in sigma]
                for v, w in combinations(outside, 2):
                    if y.contains(sigma + (v, w)):
                        want += (val((v,) + sigma) - val((w,) + sigma)) ** 2
            assert check_upper_energy(y, phi).rhs == float(want)
            layers += 1
    assert layers >= 20


def test_upper_energy_validates_length():
    y = ag23().missing_complex(2)
    with pytest.raises(ValueError):
        check_upper_energy(y, np.zeros(3))


# -- degree sum -------------------------------------------------------


def test_degree_sum_away_from_missing_faces_closed_form():
    # sigma far from the only missing face: every core count is zero and
    # both sides reduce to (k+1)(1 + deg sigma)
    x = from_missing_faces(7, [(0, 1)])
    sigma = (2, 3, 4, 5)
    rec = check_degree_sum(x, sigma)
    assert rec.passed
    assert rec.lhs == rec.rhs == 4 * (1 + x.degree(sigma))
    assert all(c == 0 for c in rec.details["core_counts"].values())


def test_degree_sum_ag23_all_two_faces():
    x = ag23()
    for sigma in x.faces(2):
        assert check_degree_sum(x, sigma).passed


def test_degree_sum_errors():
    x = ag23()
    with pytest.raises(ValueError):
        check_degree_sum(x, (0, 1))  # dimension below d
    with pytest.raises(ValueError):
        check_degree_sum(x, ag23_lines()[0] + (8,))  # not a face


def test_degree_sum_random_top_dims():
    rng = random.Random(40)
    for _ in range(25):
        x = random_complex(rng)
        d = x.max_missing_dim()
        for k in (x.dim, x.dim - 1):
            if k < d:
                continue
            for sigma in x.faces(k):
                assert check_degree_sum(x, sigma).passed


def test_degree_sum_core_counts_match_the_absent_subsets_definition():
    # the core of sigma + v is the intersection of its (d+1)-subsets that
    # are not faces (empty when there are none); the check counts the
    # extensions by core size from 2 up
    rng = random.Random(42)
    checked = 0
    for _ in range(50):
        x = random_complex(rng)
        d = x.max_missing_dim()
        for k in (x.dim, x.dim - 1):
            if k < d:
                continue
            for sigma in x.faces(k):
                want = {r: 0 for r in range(2, d + 2)}
                for v in range(x.n):
                    if v in sigma:
                        continue
                    theta = tuple(sorted(sigma + (v,)))
                    absent = [set(t) for t in combinations(theta, d + 1) if not x.contains(t)]
                    size = len(set.intersection(*absent)) if absent else 0
                    if size >= 2:
                        want[size] += 1
                assert check_degree_sum(x, sigma).details["core_counts"] == want
                checked += 1
    assert checked > 100

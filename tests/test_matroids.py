"""Rank oracles, flats, general-position numbers and Hall checkers.

phi on the nine-point plane is cross-checked against a pure-arithmetic
exhaustive search over zero-sum triples that never touches the matroid
code.  Random linear matroids over F_3 exercise the rank axioms and the
phi-star >= phi inequality.
"""

import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

import scx.matroids as matroids
from scx.complexes import Partition, from_missing_faces
from scx.domination import all_ones_representation, dominating_alpha_from_tds, rep_value
from scx.matroids import (
    GpWeighting,
    LinearMatroid,
    UniformMatroid,
    ag23_complex,
    ag23_matroid,
    check_flat_rep_bound,
    check_fractional_gp_hall,
    check_gp_hall,
    circuits,
    closure,
    colorful_gp_search,
    flat_representation,
    flats,
    fractional_gp_violations,
    gp_by_flat_counts,
    gp_complex,
    is_general_position,
    matroid_from_json,
    matroid_to_json,
    pg33_complex,
    pg33_matroid,
    phi,
    phi_star,
    phi_star_weighting,
)
from scx.randomgen import random_matroid, random_partition


def random_linear(rng, n_max=8, p=3, height=3, min_rank=2):
    while True:
        n = rng.randint(4, n_max)
        cols = []
        for _ in range(n):
            c = (0,) * height
            while not any(c):
                c = tuple(rng.randrange(p) for _ in range(height))
            cols.append(c)
        m = LinearMatroid(p, cols)
        if m.full_rank >= min_rank:
            return m


# -- rank oracles ------------------------------------------------------


def test_construction_guards():
    with pytest.raises(ValueError, match="prime"):
        LinearMatroid(4, [(1, 0)])
    with pytest.raises(ValueError, match="column"):
        LinearMatroid(3, [])
    with pytest.raises(ValueError, match="height"):
        LinearMatroid(3, [(1, 0), (1,)])
    with pytest.raises(ValueError, match="rank"):
        UniformMatroid(5, 3)


def test_modulus_of_2_31_or_more_is_refused_before_the_primality_test():
    # 2**31 + 11 and 2**61 - 1 are prime, but the shared primality test
    # and primes stop below 2**31
    for p in (2**31 + 11, 2**61 - 1):
        with pytest.raises(ValueError, match=rf"^modulus {p} is not below 2\*\*31$"):
            LinearMatroid(p, [(1, 0), (0, 1)])
    assert LinearMatroid(2**31 - 1, [(1, 0), (0, 1)]).full_rank == 2


def test_modulus_must_be_prime():
    for p in (-3, 0, 1, 4, 9, 561):
        with pytest.raises(ValueError, match=rf"^modulus {p} is not prime$"):
            LinearMatroid(p, [(1, 0), (0, 1)])
    for p in (2, 3, 5, 7, 11):
        assert LinearMatroid(p, [(1, 0), (0, 1), (1, 1)]).full_rank == 2


def span_rank(m, vs):
    """log_p of the number of distinct combinations of the columns vs."""
    span = {tuple(sum(c * m.columns[v][i] for c, v in zip(cs, vs)) % m.p
                  for i in range(len(m.columns[0])))
            for cs in product(range(m.p), repeat=len(vs))}
    r = 0
    while m.p**r < len(span):
        r += 1
    assert m.p**r == len(span)
    return r


def test_rank_mask_matches_a_brute_force_span_count():
    rng = random.Random(22)
    for m in [ag23_matroid(), pg33_matroid()] + [random_linear(rng) for _ in range(8)]:
        for _ in range(40):
            vs = rng.sample(range(m.n), rng.randint(1, min(6, m.n)))
            assert m.rank(vs) == span_rank(m, vs)
        assert m.rank(range(m.n)) == m.full_rank


def test_rank_examples():
    assert ag23_matroid().full_rank == 3
    m = LinearMatroid(3, [(1, 0), (2, 0), (0, 0), (0, 1)])
    assert m.rank([0, 1]) == 1  # parallel pair
    assert m.rank([2]) == 0  # loop
    assert m.rank([0, 3]) == 2
    assert UniformMatroid(2, 5).rank([0, 1, 2, 3]) == 2
    with pytest.raises(ValueError):
        m.rank([9])


def test_rank_axioms_random():
    rng = random.Random(61)
    mats = [random_linear(rng) for _ in range(6)] + [UniformMatroid(3, 7)]
    for m in mats:
        for _ in range(30):
            a = rng.randrange(1 << m.n)
            b = rng.randrange(1 << m.n)
            ra, rb = m.rank_mask(a), m.rank_mask(b)
            assert m.rank_mask(a | b) + m.rank_mask(a & b) <= ra + rb
            assert m.rank_mask(a | b) >= max(ra, rb)  # monotone
            v = rng.randrange(m.n)
            assert m.rank_mask(a | (1 << v)) - ra in (0, 1)  # unit increase
        assert m.rank([]) == 0


def test_closure_properties():
    rng = random.Random(62)
    for m in [ag23_matroid(), random_linear(rng), UniformMatroid(2, 5)]:
        for _ in range(15):
            s = [v for v in range(m.n) if rng.random() < 0.4]
            cl = closure(m, s)
            assert set(s) <= set(cl)
            assert closure(m, cl) == cl
            assert m.rank(cl) == m.rank(s)


def test_closure_of_pair_is_line():
    m = ag23_matroid()
    assert closure(m, [0, 1]) == (0, 1, 2)  # (0,0),(0,1),(0,2): x = 0
    assert closure(m, []) == ()


# -- flats -------------------------------------------------------------


def test_flats_uniform():
    assert flats(UniformMatroid(2, 4), 1) == ((0,), (1,), (2,), (3,))
    assert flats(UniformMatroid(2, 4), 2) == ((0, 1, 2, 3),)


def test_flats_ag23():
    m = ag23_matroid()
    assert flats(m, 0) == ((),)
    assert flats(m, 1) == tuple((v,) for v in range(9))
    lines = flats(m, 2)
    assert len(lines) == 12
    assert all(len(line) == 3 for line in lines)
    assert flats(m, 3) == (tuple(range(9)),)
    with pytest.raises(ValueError):
        flats(m, 4)


def test_flats_pg33():
    m = pg33_matroid()
    assert m.n == 40 and m.full_rank == 4
    assert m.columns[:3] == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1))
    lines = flats(m, 2)
    assert len(lines) == 130
    assert all(len(line) == 4 for line in lines)


def test_circuits_ag23():
    assert len(circuits(ag23_matroid(), 3)) == 12
    assert circuits(ag23_matroid(), 2) == ()


def test_circuits_with_loops_and_parallels():
    m = LinearMatroid(3, [(1, 0), (2, 0), (0, 0), (0, 1)])
    assert circuits(m, 2) == ((2,), (0, 1))


def test_circuits_match_minimal_dependent_enumeration():
    rng = random.Random(63)
    for _ in range(6):
        m = random_linear(rng, n_max=7)
        top = m.full_rank
        expected = []
        for size in range(1, top + 1):
            for s in combinations(range(m.n), size):
                if m.rank(s) < size and all(
                    m.rank(t) == size - 1 for t in combinations(s, size - 1)
                ):
                    expected.append(s)
        assert circuits(m, top) == tuple(expected)


# -- general position --------------------------------------------------


def test_gp_definitions_agree():
    rng = random.Random(64)
    for m in [ag23_matroid()] + [random_linear(rng, n_max=7) for _ in range(4)]:
        for _ in range(60):
            s = [v for v in range(m.n) if rng.random() < 0.5]
            assert is_general_position(m, s) == gp_by_flat_counts(m, s)


def test_gp_complex_ag23_is_zero_sum_line_complex():
    pts = [(x, y) for x in range(3) for y in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    lines = set()
    for p, q in combinations(pts, 2):
        r = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
        if r != p and r != q:
            lines.add(tuple(sorted((idx[p], idx[q], idx[r]))))
    assert ag23_complex().missing_masks == from_missing_faces(9, sorted(lines)).missing_masks


def test_gp_complex_uniform_full_simplex():
    x = gp_complex(UniformMatroid(3, 6))
    assert x.missing_masks == ()
    assert x.n == 6


def test_gp_complex_induced():
    x = gp_complex(ag23_matroid(), [0, 1, 2, 3])
    # the only circuit inside {0,1,2,3} is the line {0,1,2}
    assert x.n == 4
    assert x.missing_faces == ((0, 1, 2),)


def test_pg33_complex():
    x = pg33_complex()
    assert x.n == 40
    assert len(x.missing_faces) == 520
    assert all(len(mu) == 3 for mu in x.missing_faces)


def brute_ag23_cap():
    """Largest subset of the nine-point plane with no zero-sum triple,
    by raw enumeration -- no matroid code involved."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    best = 0
    for mask in range(1 << 9):
        chosen = [pts[i] for i in range(9) if mask >> i & 1]
        ok = all(
            ((a[0] + b[0] + c[0]) % 3, (a[1] + b[1] + c[1]) % 3) != (0, 0)
            for a, b, c in combinations(chosen, 3)
        )
        if ok:
            best = max(best, len(chosen))
    return best


def test_phi_ag23_exhaustive_oracle():
    assert brute_ag23_cap() == 4
    assert phi(ag23_matroid()) == 4


def test_phi_examples():
    m = ag23_matroid()
    assert phi(m, [0, 1, 2]) == 2  # a full line
    assert phi(UniformMatroid(3, 6)) == 6
    rng = random.Random(65)
    for _ in range(10):
        mm = random_linear(rng)
        s = []
        for v in rng.sample(range(mm.n), mm.n):
            if is_general_position(mm, s + [v]):
                s.append(v)
        assert phi(mm, s) == len(s)


def test_phi_ground_cap():
    with pytest.raises(ValueError, match="cap"):
        phi(pg33_matroid())


def test_phi_star_lp_budget(monkeypatch):
    with pytest.raises(ValueError, match="1080 flat supports x 40 elements"):
        phi_star(pg33_matroid())
    # AG(2,3) has 45 flat supports over 9 elements
    monkeypatch.setattr(matroids, "MAX_PHI_STAR_ENTRIES", 45 * 9)
    assert phi_star(ag23_matroid()) == 9
    monkeypatch.setattr(matroids, "MAX_PHI_STAR_ENTRIES", 45 * 9 - 1)
    with pytest.raises(ValueError, match="45 flat supports x 9 elements"):
        phi_star(ag23_matroid())


@pytest.mark.parametrize("r, n, message", [
    (6, 30, "ranks 1..5 on 30 elements scans 30 + 435 + 4060 + 27405 + 142506 = 174436 subsets"),
    (10, 40, "ranks 1..9 on 40 elements scans 40 + 780 + "),
])
def test_phi_star_refuses_the_flat_scans_before_listing_a_flat(monkeypatch, r, n, message):
    monkeypatch.setattr(matroids, "flats", lambda *a: pytest.fail("flats listed"))
    m = UniformMatroid(r, n)
    with pytest.raises(ValueError, match=re.escape(message)):
        phi_star(m)
    # the fractional Hall sweep reaches the same guard on each union
    with pytest.raises(ValueError, match=re.escape(message)):
        check_fractional_gp_hall(m, Partition([tuple(range(n // 2)), tuple(range(n // 2, n))]))


def test_flat_scan_budget_admits_todays_answers(monkeypatch):
    # uniform:4,30 scans 4525 subsets and uniform:5,20 6195 (both answered
    # elsewhere); PG(3,3) scans 10700 and meets the LP budget instead
    assert matroids.MAX_FLAT_SCAN >= 10700
    with pytest.raises(ValueError, match="1080 flat supports x 40 elements"):
        phi_star(pg33_matroid())
    # AG(2,3) scans 9 + 36 subsets
    monkeypatch.setattr(matroids, "MAX_FLAT_SCAN", 45)
    assert phi_star(ag23_matroid()) == 9
    monkeypatch.setattr(matroids, "MAX_FLAT_SCAN", 44)
    with pytest.raises(ValueError, match=re.escape("9 + 36 = 45 subsets, above the budget of 44")):
        phi_star(ag23_matroid())


def test_flats_match_closures_of_every_independent_subset():
    # flats skips the subsets already inside a found flat; the oracle
    # takes the closure of every independent r-subset
    rng = random.Random(4)
    for m in [ag23_matroid(), UniformMatroid(3, 6)] + [random_matroid(rng) for _ in range(20)]:
        for r in range(m.full_rank + 1):
            want = {closure(m, s) for s in combinations(range(m.n), r) if m.rank(s) == r}
            assert flats(m, r) == tuple(sorted(want))


def test_flats_match_the_closed_sets_among_all_subsets():
    # a rank-r flat is a set equal to its closure; the oracle tests every
    # subset of the ground set
    rng = random.Random(9)
    for m in [ag23_matroid(), UniformMatroid(3, 7)] + [random_matroid(rng) for _ in range(20)]:
        want = {}
        for mask in range(1 << m.n):
            s = tuple(v for v in range(m.n) if mask >> v & 1)
            if closure(m, s) == s:
                want.setdefault(m.rank(s), []).append(s)
        for r in range(m.full_rank + 1):
            assert flats(m, r) == tuple(sorted(want[r]))


def test_flats_of_uniform_5_20_are_listed_in_linear_time():
    # every r-subset is a flat; testing each one against all flats found
    # so far took about 1.4 s CPU
    start = time.process_time()
    assert phi_star(UniformMatroid(5, 20)) == 80
    assert time.process_time() - start < 1.0


def test_phi_star_uniform24():
    assert phi_star(UniformMatroid(2, 4)) == 4


def test_phi_star_ag23():
    m = ag23_matroid()
    assert phi_star(m) == Fraction(9)
    w = phi_star_weighting(m)
    assert w.total == 9
    assert fractional_gp_violations(m, w) == []


def test_phi_star_builds_the_flat_supports_once(monkeypatch):
    calls = []
    build = matroids._gp_constraint_supports
    monkeypatch.setattr(matroids, "_gp_constraint_supports",
                        lambda m, elems: calls.append(elems) or build(m, elems))
    rng = random.Random(67)
    for _ in range(5):
        m = random_linear(rng, n_max=8)
        del calls[:]
        phi_star(m)
        assert calls == [tuple(range(m.n))]


def test_phi_star_rechecks_the_lp_weighting(monkeypatch):
    # the re-check runs on the supports the LP was built from
    monkeypatch.setattr(matroids, "lp_solve_max", lambda c, a, b: SimpleNamespace(
        status="optimal", x=[Fraction(3)] * len(c)))
    with pytest.raises(RuntimeError, match="infeasible"):
        phi_star(ag23_matroid())


def test_phi_and_phi_star_check_the_subset_against_the_ground_set():
    m = ag23_matroid()
    for f in (phi, phi_star, phi_star_weighting):
        with pytest.raises(ValueError, match=r"^vertex 99 out of range 0\.\.8$"):
            f(m, [0, 99])
    # the empty subset solves the empty LP
    assert phi_star_weighting(m, []) == GpWeighting((), ())
    assert phi_star(m, []) == 0


def _tds_alpha(s):
    return dominating_alpha_from_tds(s, all_ones_representation(ag23_complex()))


@pytest.mark.parametrize("call, vertex", [
    pytest.param(lambda: gp_by_flat_counts(ag23_matroid(), [0, 99]), "99", id="flat-counts-99"),
    pytest.param(lambda: gp_by_flat_counts(ag23_matroid(), [-1]), "-1", id="flat-counts-neg"),
    # with full rank 0 no subset is ranked, but the vertex is still checked
    pytest.param(lambda: is_general_position(UniformMatroid(0, 5), [99]), "99",
                 id="general-position-rank-0"),
    pytest.param(lambda: _tds_alpha((0, 1, 2, 3, 99)), "99", id="tds-99"),
    pytest.param(lambda: _tds_alpha((0, 2, -1)), "-1", id="tds-neg"),
    pytest.param(lambda: _tds_alpha((0, 2, True)), "True", id="tds-bool"),
    pytest.param(lambda: ag23_complex().induced([1, True]), "True", id="induced-bool"),
    pytest.param(lambda: gp_complex(ag23_matroid(), [0, 1, True]), "True", id="gp-complex-bool"),
    pytest.param(lambda: closure(ag23_matroid(), [9]), "9", id="closure-9"),
    pytest.param(lambda: UniformMatroid(2, 4).rank([0, 4]), "4", id="uniform-rank-4"),
    pytest.param(lambda: flat_representation(ag23_matroid(), [0, 1.0]), "1.0",
                 id="flat-rep-float"),
])
def test_every_vertex_subset_is_validated_by_one_rule(call, vertex):
    with pytest.raises(ValueError, match=rf"^vertex {re.escape(vertex)} "):
        call()


def test_subsets_collapse_repeats_and_faces_refuse_them():
    m, x = ag23_matroid(), ag23_complex()
    assert x.induced([0, 1, 2, 2, 0]) == x.induced([0, 1, 2])
    assert gp_complex(m, [3, 0, 3]) == gp_complex(m, [0, 3])
    assert m.rank([0, 0, 1]) == m.rank([0, 1]) == 2
    assert closure(m, [0, 1, 1]) == (0, 1, 2)
    assert phi(m, [0, 1, 0]) == phi(m, [0, 1]) == 2
    assert is_general_position(m, [0, 1, 0]) and gp_by_flat_counts(m, [0, 1, 0])
    assert not is_general_position(m, [0, 1, 2, 0])
    assert (dominating_alpha_from_tds((0, 1, 1, 2, 4, 8), all_ones_representation(x))
            == dominating_alpha_from_tds((0, 1, 2, 4, 8), all_ones_representation(x)))
    for face in ([0, 0], [3, 4, 3]):
        with pytest.raises(ValueError, match=r"^duplicate vertex"):
            x.contains(face)
        with pytest.raises(ValueError, match=r"^duplicate vertex"):
            from_missing_faces(9, [face])


def test_phi_star_refuses_a_loop():
    # a loop lies in no flat of rank 1 or more, so no flat constraint
    # would cap its weight; phi counts it out instead
    cols = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    m = LinearMatroid(3, cols)
    for s in (None, [0, 1, 2]):
        with pytest.raises(ValueError, match=r"^element 0 is a loop"):
            phi_star(m, s)
    assert phi_star(m, [1, 2, 3, 4]) == phi_star(LinearMatroid(3, cols[1:]))
    assert phi(m) == 4


def test_phi_star_rank_guard():
    with pytest.raises(ValueError, match="rank"):
        phi_star(UniformMatroid(1, 4))


def test_phi_star_dominates_phi():
    rng = random.Random(66)
    for _ in range(10):
        m = random_linear(rng, n_max=8)
        s = [v for v in range(m.n) if rng.random() < 0.8]
        if not s:
            continue
        assert phi_star(m, s) >= phi(m, s)


def test_weighting_violations_detect_overload():
    m = ag23_matroid()
    heavy = GpWeighting(tuple(range(9)), (Fraction(3),) * 9)
    assert fractional_gp_violations(m, heavy)
    assert fractional_gp_violations(m, GpWeighting((0, 1), (Fraction(-1), Fraction(0))))


# -- flat representation ----------------------------------------------


def test_flat_representation_ag23():
    m = ag23_matroid()
    p = flat_representation(m)
    assert sorted(p.scaled) == [(v,) for v in range(9)]
    rows, d = p.scaled[(0,)]
    assert d == 1
    assert len(rows) == 9 and len(rows[0]) == 12  # one slot per line
    assert sum(rows[0]) == 0  # closure of a repeated point has rank 1
    assert all(sum(rows[v]) == 1 for v in range(1, 9))
    assert rep_value(p) == Fraction(9, 2)


def test_flat_rep_bound_ag23_tight():
    rec = check_flat_rep_bound(ag23_matroid())
    assert rec.passed
    assert rec.lhs == 9 and rec.rhs == 9 and rec.margin == 0
    assert rec.details["alpha_feasible"]


def test_flat_rep_bound_random():
    rng = random.Random(67)
    for _ in range(8):
        m = random_linear(rng, n_max=7)
        rec = check_flat_rep_bound(m)
        assert rec.passed


def test_flat_rep_bound_uniform_vacuous():
    rec = check_flat_rep_bound(UniformMatroid(3, 6))
    assert rec.passed and "infinite" in rec.note


# -- colorful general position ----------------------------------------


def test_colorful_gp_search_parallel_lines():
    found = colorful_gp_search(ag23_matroid(), Partition([(0, 1, 2), (3, 4, 5), (6, 7, 8)]))
    assert found == (0, 3, 7)
    assert is_general_position(ag23_matroid(), found)


def test_colorful_gp_search_guards():
    m = ag23_matroid()
    with pytest.raises(ValueError, match="classes"):
        colorful_gp_search(UniformMatroid(3, 13), Partition([(v,) for v in range(13)]))
    with pytest.raises(ValueError, match="outside"):
        colorful_gp_search(m, Partition([(11,)]))
    # the Hall sweeps refuse before evaluating any union
    for check in (check_gp_hall, check_fractional_gp_hall):
        with pytest.raises(ValueError, match="outside the ground set"):
            check(m, Partition([(0,), (99,)]))


def test_colorful_gp_search_single_class():
    assert colorful_gp_search(ag23_matroid(), Partition([(3, 4)])) == (3,)


def test_colorful_gp_search_matches_a_brute_force_scan():
    rng = random.Random(411)
    found = 0
    for _ in range(150):
        m = random_matroid(rng, n_max=9)
        part = random_partition(rng, m.n, rng.randint(1, min(6, m.n)))
        brute = next((tuple(sorted(p)) for p in product(*part.classes)
                      if is_general_position(m, p)), None)
        assert colorful_gp_search(m, part) == brute
        found += brute is not None
    assert 0 < found < 150


def test_gp_hall_ag23():
    rec = check_gp_hall(ag23_matroid(), Partition([(0, 1, 2), (3, 4, 5), (6, 7, 8)]))
    assert rec.passed and rec.note == ""
    assert rec.details["found"] == (0, 3, 7)
    assert rec.details["values"]["0,1,2"] == [4, 2]


def test_fractional_gp_hall_ag23():
    rec = check_fractional_gp_hall(
        ag23_matroid(), Partition([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    )
    assert rec.passed and rec.note == ""
    assert rec.details["found"] == (0, 3, 7)
    assert rec.details["values"]["0,1,2"] == ["9", 8]


def test_hall_not_applicable_inside_one_line():
    m = ag23_matroid()
    part = Partition([(0,), (1,), (2,)])
    for chk in (check_gp_hall, check_fractional_gp_hall):
        rec = chk(m, part)
        assert rec.passed
        assert "not applicable" in rec.note
    assert colorful_gp_search(m, part) is None


def test_hall_uniform_always_fires():
    m = UniformMatroid(3, 9)
    part = Partition([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    for chk in (check_gp_hall, check_fractional_gp_hall):
        rec = chk(m, part)
        assert rec.passed and rec.note == ""
        assert rec.details["found"] == (0, 3, 6)


def test_hall_random_never_fails():
    rng = random.Random(68)
    for _ in range(8):
        m = random_linear(rng, n_max=7)
        verts = list(range(m.n))
        rng.shuffle(verts)
        k = rng.randint(2, 3)
        classes = [sorted(verts[i::k]) for i in range(k)]
        for chk in (check_gp_hall, check_fractional_gp_hall):
            assert chk(m, Partition(classes)).passed


# -- JSON --------------------------------------------------------------


def test_matroid_json_round_trip():
    rng = random.Random(69)
    mats = [ag23_matroid(), pg33_matroid(), UniformMatroid(2, 6), random_linear(rng)]
    for m in mats:
        text = matroid_to_json(m)
        back = matroid_from_json(text)
        assert matroid_to_json(back) == text
        assert back.full_rank == m.full_rank
    assert matroid_from_json('{"kind":"builtin","name":"AG23"}').label == "AG23"


def test_non_integer_elements_are_rejected():
    m = ag23_matroid()
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="vertex"):
            m.rank([0, bad])
        with pytest.raises(ValueError, match="vertex"):
            UniformMatroid(2, 4).rank([bad])
        with pytest.raises(ValueError, match="vertex"):
            gp_by_flat_counts(m, [0, 2, bad])


@pytest.mark.parametrize("text,message", [
    ('{"kind":"uniform","rank":2.9,"n":4}', "rank 2.9 is not an integer"),
    ('{"kind":"uniform","rank":2,"n":4.2}', "n 4.2 is not an integer"),
    ('{"kind":"uniform","rank":true,"n":4}', "rank True is a bool"),
    ('{"kind":"linear","p":3.0,"columns":[[1,0],[0,1]]}', "modulus 3.0 is not an integer"),
    ('{"kind":"linear","p":"3","columns":[[1,0],[0,1]]}', "modulus '3' is not an integer"),
    ('{"kind":"linear","p":3,"columns":[[1.5,0],[0,1]]}', "column entry 1.5 is not an integer"),
    ('{"kind":"linear","p":3,"columns":[[1,false],[0,1]]}', "column entry False is a bool"),
])
def test_matroid_json_rejects_non_integer_fields(text, message):
    with pytest.raises(ValueError, match=message):
        matroid_from_json(text)


def test_matroid_json_errors():
    with pytest.raises(ValueError, match="builtin"):
        matroid_from_json('{"kind":"builtin","name":"FANO"}')
    with pytest.raises(ValueError, match="kind"):
        matroid_from_json('{"kind":"graphic"}')

"""Total domination, representation LPs and colorful-simplex checks.

gamma-tilde is cross-checked against a literal brute force over
(set, witness-face) pairs; representation values against hand-solved
covering LPs.  The octahedron boundary drives the Hall checks: three
antipodal classes, colorful triangles everywhere.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from scipy.optimize import linprog

import scx.randomgen as randomgen
from scx.complexes import Partition, from_missing_faces
from scx.domination import (
    VectorRepresentation,
    all_ones_representation,
    check_colorful_hall,
    check_connectivity_bound,
    check_domination_bound,
    check_rep_eigen_bound,
    check_representation_hall,
    colorful_simplex_search,
    dominating_alpha_from_tds,
    index_sets,
    rep_value,
    total_domination,
    validate_representation,
)
from scx.numerics.lp import LpProblem, lp_solve


def ag23():
    pts = [(x, y) for x in range(3) for y in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    lines = set()
    for p, q in combinations(pts, 2):
        r = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
        if r != p and r != q:
            lines.add(tuple(sorted((idx[p], idx[q], idx[r]))))
    return from_missing_faces(9, sorted(lines))


def octahedron():
    return from_missing_faces(6, [(0, 1), (2, 3), (4, 5)])


def random_complex(rng, n_max=6, min_card=2):
    while True:
        n = rng.randint(3, n_max)
        cards = rng.sample(range(min_card, n), rng.randint(1, min(2, n - min_card)))
        fam = set()
        for c in cards:
            for mu in combinations(range(n), c):
                if rng.random() < 0.35:
                    fam.add(frozenset(mu))
        minimal = [tuple(sorted(s)) for s in fam if not any(t < s for t in fam)]
        if minimal:
            return from_missing_faces(n, sorted(minimal))


def brute_gamma(x):
    """Straight from the definition: smallest S such that every vertex
    has a witness face inside S."""

    def serves(s, v):
        return any(
            x.contains(sigma) and not x.contains(set(sigma) | {v})
            for r in range(len(s) + 1)
            for sigma in combinations(s, r)
        )

    for size in range(1, x.n + 1):
        for s in combinations(range(x.n), size):
            if all(serves(s, v) for v in range(x.n)):
                return size
    return math.inf


# -- total domination --------------------------------------------------


def test_gamma_two_points():
    assert total_domination(from_missing_faces(2, [(0, 1)])) == 2


def test_gamma_infinite_when_vertex_uncovered():
    assert total_domination(from_missing_faces(4, [(0, 1, 2)])) == math.inf


def test_gamma_complete_multipartite_independence():
    for parts in [((0, 1), (2, 3)), ((0, 1, 2), (3, 4), (5,))]:
        edges = [
            (a, b)
            for i, p in enumerate(parts)
            for q in parts[i + 1 :]
            for a in p
            for b in q
        ]
        x = from_missing_faces(sum(len(p) for p in parts), sorted(edges))
        assert total_domination(x) == 2


def test_gamma_ag23():
    assert total_domination(ag23()) == 5


def test_gamma_matches_brute_force():
    rng = random.Random(51)
    for _ in range(15):
        x = random_complex(rng, n_max=5, min_card=1)
        assert total_domination(x) == brute_gamma(x)


def test_gamma_cap():
    x = from_missing_faces(23, [(v,) for v in range(23)])
    with pytest.raises(ValueError):
        total_domination(x)


# -- representations ---------------------------------------------------


def test_index_sets():
    assert index_sets(from_missing_faces(2, [(0, 1)])) == ((),)
    assert index_sets(ag23()) == tuple((v,) for v in range(9))
    mixed = from_missing_faces(4, [(0, 1), (1, 2, 3)])
    assert index_sets(mixed) == ((), (0,), (1,), (2,), (3,))
    assert index_sets(from_missing_faces(3, [])) == ()


def test_all_ones_representation_valid():
    for x in [ag23(), octahedron(), from_missing_faces(2, [(0, 1)])]:
        p = all_ones_representation(x)
        ok, violations = validate_representation(p, x)
        assert ok and not violations


def test_zero_representation_invalid():
    x = from_missing_faces(2, [(0, 1)])
    with pytest.raises(ValueError, match="product"):
        VectorRepresentation(x, {(): [(0,), (0,)]})


def test_representation_rejects_negative_and_shape():
    x = from_missing_faces(2, [(0, 1)])
    with pytest.raises(ValueError, match="negative"):
        VectorRepresentation(x, {(): [(-1,), (2,)]})
    with pytest.raises(ValueError, match="index sets"):
        VectorRepresentation(x, {(0,): [(1,), (1,)]})
    with pytest.raises(ValueError, match="rows"):
        VectorRepresentation(x, {(): [(1,)]})


def test_representation_rejects_bool_entries():
    x = from_missing_faces(3, [(0, 1, 2)])
    ones = [(1, 0)] * 3
    for bad in (True, False):
        rows = [(1, 0), (1, bad), (1, 0)]
        with pytest.raises(ValueError, match=rf"sigma=\(1,\): entry {bad} is a bool"):
            VectorRepresentation(x, {(0,): ones, (1,): rows, (2,): ones})


def test_representation_rejects_entries_that_are_not_rational():
    x = from_missing_faces(2, [(0, 1)])
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match=r"entry .* is not an int or a Fraction"):
            VectorRepresentation(x, {(): [(1,), (bad,)]})


def test_representation_stores_integer_rows_and_views_them_as_fractions():
    x = from_missing_faces(2, [(0, 1)])
    p = VectorRepresentation(x, {(): [(Fraction(3, 2), 1), (2, Fraction(1, 3))]})
    assert p.scaled == {(): (((9, 6), (12, 2)), 6)}
    assert p.matrices == {(): ((Fraction(3, 2), 1), (2, Fraction(1, 3)))}
    assert p.vector((), 1) == (2, Fraction(1, 3))
    assert p.gram(()) == (((117, 120), (120, 148)), 6)


def test_representation_rejects_non_integer_index_sets():
    x = from_missing_faces(3, [(0, 1, 2)])
    rows = [(1,)] * 3
    for bad in (0.0, True, 1.5):
        with pytest.raises(ValueError, match="vertex"):
            VectorRepresentation(x, {(bad,): rows, (1,): rows, (2,): rows})


def test_rep_value_all_ones_is_one():
    for x in [ag23(), octahedron(), from_missing_faces(2, [(0, 1)])]:
        assert rep_value(all_ones_representation(x)) == 1


def test_rep_value_scaled_vectors():
    # doubling every vector scales each Gram entry by 4, so the optimal
    # covering weight drops to 1/4
    x = from_missing_faces(3, [(0, 1, 2)])
    p = VectorRepresentation(x, {(v,): [(2,)] * 3 for v in range(3)})
    assert rep_value(p) == Fraction(1, 4)


def test_rep_value_empty_index_sets_is_infinite():
    assert rep_value(all_ones_representation(from_missing_faces(3, []))) == math.inf


def random_representation(rng, x):
    # first column of ones keeps every constrained product >= 1; the
    # second column adds arbitrary nonnegative structure
    mats = {}
    for sigma in index_sets(x):
        mats[sigma] = [
            (Fraction(1), Fraction(rng.randint(0, 4), rng.randint(1, 3)))
            for _ in range(x.n)
        ]
    return VectorRepresentation(x, mats)


def test_rep_value_duality_on_random_representations():
    # the covering primal and its packing dual come from one certified
    # solve: lp_solve checks both feasibilities, equal objectives and
    # complementary slackness, so a nonrational or mismatched optimum
    # would raise
    rng = random.Random(52)
    for _ in range(12):
        x = random_complex(rng)
        v = rep_value(random_representation(rng, x))
        assert isinstance(v, Fraction) and 0 < v <= 1


def test_rep_value_is_one_solve_matching_the_packing_lp(monkeypatch):
    # one covering solve per value; the packing LP max sum y s.t.
    # y G_sigma <= 1, solved by scipy's HiGHS, is the independent oracle
    import scx.domination as domination

    calls = []

    def counting(problem):
        calls.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(domination, "lp_solve", counting)
    rng = random.Random(57)
    for _ in range(10):
        x = random_complex(rng)
        p = random_representation(rng, x)
        calls.clear()
        v = domination.rep_value(p)
        assert len(calls) == 1
        rows = [
            [float(p.gram_entry(sigma, w, v_)) for w in range(x.n)]
            for sigma in p.matrices
            for v_ in range(x.n)
        ]
        ref = linprog([-1] * x.n, A_ub=rows, b_ub=[1] * len(rows), bounds=(0, None),
                      method="highs")
        assert ref.status == 0 and abs(-ref.fun - float(v)) < 1e-9


def _full_covering_lp(p):
    """The rational covering LP with all-ones cost and one column per
    (sigma, v), no column dropped, built from the Fraction rows."""
    n = p.complex.n
    cols = [
        tuple(sum((a * b for a, b in zip(p.matrices[s][v], p.matrices[s][w])), Fraction(0))
              for w in range(n))
        for s in sorted(p.matrices, key=lambda s: (len(s), s)) for v in range(n)
    ]
    return cols, LpProblem([1] * len(cols), list(zip(*cols)), [1] * n)


def test_rep_value_takes_the_pivot_path_of_the_rational_covering_lp(monkeypatch):
    # rep_value's integer LP (column G[v] and cost d**2 over their gcd,
    # first copy of each column only) against the full rational covering
    # LP with all-ones cost, built here from the Fraction rows: same
    # value, and the same (row, column) pivots with the same basis
    # determinant after each once the kept columns are mapped to their
    # first copies in the full LP (and the slacks shifted), so the same
    # integer tableau.  The dual simplex from the slack basis takes 62
    # pivots over the 30 draws; a phase 1 that first reaches a feasible
    # basis takes 365.
    import scx.numerics.lp as lp
    from scx.randomgen import random_representation as fractional_representation

    pivots = []
    real = lp._pivot

    def recording(N, den, basis, r, j):
        den = real(N, den, basis, r, j)
        pivots.append((r, j, den))
        return den

    monkeypatch.setattr(lp, "_pivot", recording)
    rng = random.Random(58)
    fractional = 0
    dropped = 0
    total = 0
    for _ in range(30):
        x = random_complex(rng)
        p = fractional_representation(rng, x)
        fractional += any(d > 1 for _, d in p.scaled.values())
        pivots.clear()
        value = rep_value(p)
        path = list(pivots)
        total += len(path)
        cols, full = _full_covering_lp(p)
        first = {}
        for j, col in enumerate(cols):
            first.setdefault(col, j)
        kept = sorted(first.values())
        dropped += len(cols) - len(kept)
        mapped = [(r, kept[j] if j < len(kept) else j - len(kept) + len(cols), den)
                  for r, j, den in path]
        pivots.clear()
        ref = lp_solve(full)
        assert path and (value, mapped) == (ref.value, pivots)
    assert fractional >= 20
    assert dropped > 0
    assert total == 62


@pytest.mark.parametrize("width", [None, 1, 3])
def test_rep_value_equals_the_full_lp_without_dropped_columns(monkeypatch, width):
    # all-ones (width None), width-1 and width-3 draws: the value of the
    # deduplicated LP is the value of the full rational covering LP, and
    # all-ones and width-1 keep at most one column per index set
    import scx.domination as domination

    solved = []

    def recording(problem):
        solved.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(domination, "lp_solve", recording)
    rng = random.Random(59)
    for _ in range(15):
        x = random_complex(rng)
        if width is None:
            p = all_ones_representation(x)
        else:
            # one anchor per index set, as randomgen draws them, plus noise
            mats = {}
            for sigma in index_sets(x):
                anchor = Fraction(rng.randint(2, 6), rng.randint(1, 2))
                mats[sigma] = [(anchor,) + tuple(Fraction(rng.randint(0, 6), rng.randint(1, 4))
                                                 for _ in range(width - 1))
                               for _ in range(x.n)]
            p = VectorRepresentation(x, mats)
        solved.clear()
        value = rep_value(p)
        assert value == lp_solve(_full_covering_lp(p)[1]).value
        if width != 3:
            assert len(solved[0].c) <= len(p.scaled)


def test_rep_value_invariant_under_relabeling():
    rng = random.Random(53)
    for _ in range(8):
        x = random_complex(rng, n_max=5)
        p = random_representation(rng, x)
        perm = list(range(x.n))
        rng.shuffle(perm)
        xm = from_missing_faces(
            x.n, [tuple(sorted(perm[v] for v in mu)) for mu in x.missing_faces]
        )
        mats = {}
        for sigma, rows in p.matrices.items():
            new_sigma = tuple(sorted(perm[v] for v in sigma))
            new_rows = [None] * x.n
            for v in range(x.n):
                new_rows[perm[v]] = rows[v]
            mats[new_sigma] = new_rows
        pm = VectorRepresentation(xm, mats)
        assert rep_value(p) == rep_value(pm)


# -- the explicit dominating family -----------------------------------


def test_alpha_from_tds_two_points():
    x = from_missing_faces(2, [(0, 1)])
    alpha = dominating_alpha_from_tds((0, 1), all_ones_representation(x))
    assert sum(sum(a) for a in alpha.values()) == 2  # C(2,1)


def test_alpha_from_tds_ag23():
    x = ag23()
    p = all_ones_representation(x)
    alpha = dominating_alpha_from_tds((0, 1, 2, 4, 8), p)
    assert sum(sum(a) for a in alpha.values()) == 10  # C(5,2)


def test_alpha_from_tds_errors():
    mixed = from_missing_faces(4, [(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError, match="dimension"):
        dominating_alpha_from_tds((0, 1, 2, 3), all_ones_representation(mixed))
    x = ag23()
    with pytest.raises(ValueError, match="dominating"):
        dominating_alpha_from_tds((0, 1), all_ones_representation(x))


def test_alpha_from_tds_random_property():
    rng = random.Random(55)
    for _ in range(8):
        x = random_complex(rng, n_max=5)
        if len(x.missing_dims()) != 1 or min(x.missing_dims()) < 1:
            continue
        gamma = total_domination(x)
        if math.isinf(gamma):
            continue
        p = random_representation(rng, x)
        for s in combinations(range(x.n), gamma):
            try:
                alpha = dominating_alpha_from_tds(s, p)
            except ValueError:
                continue
            assert sum(sum(a) for a in alpha.values()) == math.comb(gamma, x.max_missing_dim())
            break


# -- theorem checks ----------------------------------------------------


def test_domination_bound_ag23():
    rec = check_domination_bound(ag23())
    assert rec.passed
    assert rec.lhs == 1 and rec.rhs == 10
    assert rec.details["gamma_tilde"] == 5


def test_domination_bound_vacuous():
    rec = check_domination_bound(from_missing_faces(4, [(0, 1, 2)]))
    assert rec.passed and "vacuous" in rec.note


def test_domination_bound_random_single_layer():
    rng = random.Random(56)
    done = 0
    while done < 10:
        x = random_complex(rng, n_max=6)
        if len(x.missing_dims()) != 1 or min(x.missing_dims()) < 1:
            continue
        rec = check_domination_bound(x, random_representation(rng, x))
        assert rec.passed
        done += 1


def test_connectivity_bound_tight_on_two_points():
    rec = check_connectivity_bound(from_missing_faces(2, [(0, 1)]))
    assert rec.passed
    assert rec.lhs == 1 and rec.rhs == 1


def test_connectivity_bound_ag23():
    rec = check_connectivity_bound(ag23())
    assert rec.passed
    assert rec.lhs == 6  # 2 * C(3,2)


def test_connectivity_bound_vacuous_and_random():
    assert check_connectivity_bound(from_missing_faces(4, [])).note.startswith("vacuous")
    rng = random.Random(57)
    for _ in range(12):
        x = random_complex(rng)
        assert check_connectivity_bound(x, random_representation(rng, x)).passed


def test_rep_eigen_bound_clique_all_ones():
    rng = random.Random(58)
    for _ in range(6):
        n = rng.randint(3, 7)
        non_edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if not non_edges:
            continue
        x = from_missing_faces(n, non_edges)
        rec = check_rep_eigen_bound(x)
        assert rec.passed
        assert rec.details[1]["bound"] == str(n)


def test_rep_eigen_bound_ag23():
    rec = check_rep_eigen_bound(ag23())
    assert rec.passed
    assert rec.details[2]["top_eig"] == pytest.approx(3.0, abs=1e-8)
    assert rec.details[2]["bound"] == "18"


def test_rep_eigen_bound_random():
    rng = random.Random(59)
    for _ in range(10):
        x = random_complex(rng)
        assert check_rep_eigen_bound(x, random_representation(rng, x)).passed


# -- colorful simplices ------------------------------------------------


def test_colorful_search_octahedron():
    found = colorful_simplex_search(octahedron(), Partition([(0, 1), (2, 3), (4, 5)]))
    assert found == (0, 2, 4)


def test_colorful_search_none():
    x = from_missing_faces(2, [(0, 1)])
    assert colorful_simplex_search(x, Partition([(0,), (1,)])) is None


def test_colorful_search_guards():
    x = from_missing_faces(21, [(v,) for v in range(21)])
    with pytest.raises(ValueError, match="classes"):
        colorful_simplex_search(x, Partition([(v,) for v in range(21)]))
    with pytest.raises(ValueError, match="outside"):
        colorful_simplex_search(from_missing_faces(2, [(0, 1)]), Partition([(5,)]))


def _first_face_by_product(z, partition):
    """The first transversal in product order that is a face, sorted."""
    return next((tuple(sorted(p)) for p in product(*partition.classes) if z.contains(p)), None)


def test_colorful_search_matches_the_product_scan():
    # classes cover a random part of the vertices; every 20th pair has no class
    rng = random.Random(410)
    seen = {"no classes": 0, "one class": 0, "none found": 0, "found": 0}
    for t in range(240):
        z = random_complex(rng, n_max=7)
        verts = rng.sample(range(z.n), rng.randint(1, z.n))
        m = 0 if t % 20 == 0 else rng.randint(1, len(verts))
        cuts = [0] + sorted(rng.sample(range(1, len(verts)), m - 1)) + [len(verts)] if m else []
        part = Partition([verts[a:b] for a, b in zip(cuts, cuts[1:])])
        found = colorful_simplex_search(z, part)
        assert found == _first_face_by_product(z, part)
        seen["no classes"] += m == 0
        seen["one class"] += m == 1
        seen["none found" if found is None else "found"] += 1
    assert all(seen.values()), seen


def test_colorful_hall_octahedron():
    rec = check_colorful_hall(octahedron(), Partition([(0, 1), (2, 3), (4, 5)]))
    assert rec.passed
    assert rec.details["found"] == (0, 2, 4)
    assert rec.details["etas"]["0,1,2"] == 3


def test_colorful_hall_single_class():
    x = from_missing_faces(3, [(0, 1, 2)])
    rec = check_colorful_hall(x, Partition([(0, 1, 2)]))
    assert rec.passed and rec.details["found"] is not None


def test_colorful_hall_not_applicable():
    # the union {0}+{1} induces two disconnected points, so its
    # connectivity is 1 while two classes require 2 -- and indeed
    # there is no colorful edge
    x = from_missing_faces(4, [(0, 1)])
    rec = check_colorful_hall(x, Partition([(0,), (1,)]))
    assert rec.passed
    assert "not applicable" in rec.note
    assert colorful_simplex_search(x, Partition([(0,), (1,)])) is None


def test_representation_hall_single_class_fires():
    x = from_missing_faces(3, [(0, 1, 2)])
    rec = check_representation_hall(x, Partition([(0, 1, 2)]))
    assert rec.passed and rec.note == ""
    assert rec.details["found"] is not None


def test_representation_hall_octahedron_not_applicable():
    rec = check_representation_hall(octahedron(), Partition([(0, 1), (2, 3), (4, 5)]))
    assert rec.passed
    assert "not applicable" in rec.note


def _representation_hall_records():
    """Canonical JSON of check_representation_hall on fixed cases: the two
    above and 80 seeded random (complex, partition) pairs, every third
    with a random representation supplied for each union of classes."""
    cases = [(octahedron(), Partition([(0, 1), (2, 3), (4, 5)]), False),
             (from_missing_faces(3, [(0, 1, 2)]), Partition([(0, 1, 2)]), False)]
    for t in range(80):
        rng = randomgen.trial_rng(7, t)
        x = randomgen.random_complex(rng, 7, 3)
        part = randomgen.random_partition(rng, x.n, rng.randint(1, min(4, x.n)))
        cases.append((x, part, t % 3 == 0))
    out = []
    for x, part, with_reps in cases:
        reps = None
        if with_reps:
            rng = randomgen.trial_rng(11, len(out))
            reps = {frozenset(which): randomgen.random_representation(
                        rng, x.induced(part.union_of(which)))
                    for size in range(1, part.m + 1)
                    for which in combinations(range(part.m), size)}
        rec = check_representation_hall(x, part, reps)
        out.append(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
    return out


def test_representation_hall_records_are_pinned():
    # pinned records: the search and Hall sweep must keep them byte for byte
    records = _representation_hall_records()
    assert records[0] == (
        '{"check":"representation_hall","details":{"values":{"0":["1",0],"0,1":["1",1],'
        '"1":["1",0],"2":["1",0]}},"inputs":"c9524b465bb5","lhs":null,"margin":null,'
        '"note":"not applicable: value 1 <= threshold 1 for classes (0, 1)",'
        '"passed":true,"rhs":null}')
    assert sum('"note":""' in r for r in records) == 39
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == (
        "06e4f2f02dfec7c5f417dc4eb38c78dda8d2dad47918f9d5ed3b9a460cbf1cc8")


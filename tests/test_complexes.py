"""Core complex construction and combinatorial queries.

Oracles here are independent of the code under test: AG(2,3) lines are
rebuilt from affine arithmetic over F_3, membership is cross-checked by
brute-force closure over all subsets, and links/blow-ups are compared
against their definitions element by element.
"""

import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import scx.complexes as complexes
from scx.complexes import (
    Complex,
    Partition,
    _masks_of_size,
    complex_from_json,
    complex_to_json,
    from_facets,
    from_missing_faces,
    intersection,
    partition_from_json,
)
from scx.matroids import pg33_complex


# -- independent constructions ---------------------------------------


def ag23_lines():
    """The 12 lines of AG(2,3): triples of distinct points summing to 0.

    Points are pairs over F_3, indexed as 3*x + y.
    """
    pts = [(x, y) for x in range(3) for y in range(3)]
    idx = {p: 3 * p[0] + p[1] for p in pts}
    lines = set()
    for p, q in combinations(pts, 2):
        r = ((-p[0] - q[0]) % 3, (-p[1] - q[1]) % 3)
        if r != p and r != q:
            lines.add(tuple(sorted((idx[p], idx[q], idx[r]))))
    return sorted(lines)


def brute_faces(n, missing, k):
    """k-faces straight from the definition: no missing set inside."""
    out = []
    for f in combinations(range(n), k + 1):
        fs = set(f)
        if not any(set(mu) <= fs for mu in missing):
            out.append(f)
    return out


def random_antichain(rng, n):
    cards = rng.sample(range(1, n), rng.randint(1, min(2, n - 1)))
    fam = set()
    for c in cards:
        for mu in combinations(range(n), c):
            if rng.random() < 0.3:
                fam.add(frozenset(mu))
    minimal = [s for s in fam if not any(t < s for t in fam)]
    return [tuple(sorted(s)) for s in minimal]


# -- constructors -----------------------------------------------------


def test_hollow_triangle_from_facets():
    x = from_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    assert x.faces(1) == ((0, 1), (0, 2), (1, 2))
    assert x.faces(2) == ()
    assert x.faces(0) == ((0,), (1,), (2,))
    assert x.missing_faces == ((0, 1, 2),)
    assert x.dim == 1


def test_full_simplex_from_facets():
    x = from_facets(4, [{0, 1, 2, 3}])
    assert x.missing_faces == ()
    assert x.dim == 3
    assert x.n_faces(2) == 4
    assert x.missing_dims() == frozenset()
    with pytest.raises(ValueError):
        x.max_missing_dim()


def test_facet_absorption_and_errors():
    x = from_facets(4, [{0, 1}, {0}, {1}, {2}])
    assert x.facets() == ((0, 1), (2,))
    assert x.missing_faces == ((3,), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        from_facets(3, [{0, 5}])
    with pytest.raises(ValueError):
        from_facets(3, [[0, 0, 1]])
    with pytest.raises(ValueError):
        from_facets(0, [])


def test_from_missing_faces_validation():
    with pytest.raises(ValueError):
        from_missing_faces(4, [{0, 1}, {0, 1, 2}])
    with pytest.raises(ValueError):
        from_missing_faces(4, [[]])
    # exact duplicates collapse
    x = from_missing_faces(4, [{0, 1}, {1, 0}])
    assert x.missing_faces == ((0, 1),)


def test_two_points():
    x = from_missing_faces(2, [{0, 1}])
    assert x.faces(0) == ((0,), (1,))
    assert x.faces(1) == ()
    assert x.faces(-1) == ((),)
    assert x.dim == 0


def test_ag23_complex_counts():
    lines = ag23_lines()
    assert len(lines) == 12
    x = from_missing_faces(9, lines)
    assert x.n_faces(2) == 72  # 84 triples minus the 12 lines
    assert x.n_faces(3) == 54
    assert x.n_faces(4) == 0
    assert x.dim == 3
    assert x.missing_dims() == frozenset({2})
    assert x.max_missing_dim() == 2
    # brute-force cross-check of a face layer
    assert list(x.faces(2)) == brute_faces(9, lines, 2)
    assert list(x.faces(3)) == brute_faces(9, lines, 3)


def test_ag23_from_facets_matches_missing_construction():
    lines = ag23_lines()
    x = from_missing_faces(9, lines)
    maximal = [f for f in brute_faces(9, lines, 3)]  # caps of size 4 are the facets
    y = from_facets(9, maximal)
    assert y == x
    assert x.facets() == tuple(maximal)


def test_ag23_edge_degrees():
    x = from_missing_faces(9, ag23_lines())
    for e in x.faces(1):
        assert x.degree(e) == 6


# -- membership / round trip ------------------------------------------


def test_roundtrip_random_complexes():
    rng = random.Random(20817)
    for _ in range(60):
        n = rng.randint(3, 8)
        missing = random_antichain(rng, n)
        x = from_missing_faces(n, missing)
        assert set(x.missing_faces) == set(missing)
        y = from_missing_faces(n, x.missing_faces)
        assert y == x
        for k in range(-1, n):
            assert list(x.faces(k)) == brute_faces(n, missing, k)
        z = from_facets(n, x.facets())
        assert z == x


def pairwise_minimal(masks):
    """The minimal elements of a family of bitmasks, each compared with
    every other."""
    fam = set(masks)
    return {m for m in fam if not any(o != m and o & m == o for o in fam)}


def test_minimal_sets_match_a_pairwise_scan():
    # links, intersections, facets and from_facets against the
    # definitions read through pairwise_minimal, on random antichains of
    # mixed cardinalities
    rng = random.Random(3203)
    for trial in range(200):
        n = rng.randint(1, 9)
        xs = [Complex(n, random_missing_masks(rng, n)) for _ in range(rng.randint(1, 3))]
        x = xs[0]
        union = [m for y in xs for m in y.missing_masks]
        assert set(intersection(xs).missing_masks) == pairwise_minimal(union)
        full = (1 << n) - 1
        faces = [f for k in range(-1, x.dim + 1) for f in x.face_masks(k)]
        tops = {full & ~c for c in pairwise_minimal(full & ~f for f in faces)}
        assert set(x.facets()) == {complexes._vertices_of(f) for f in tops}
        sigma = rng.choice(faces)
        rest = [v for v in range(n) if not sigma >> v & 1]
        gens = pairwise_minimal(m & ~sigma for m in x.missing_masks)
        want = {tuple(rest.index(v) for v in complexes._vertices_of(g)) for g in gens}
        assert set(x.link(complexes._vertices_of(sigma)).missing_faces) == want
        # any family of input sets, nested or not, keeps its maximal ones
        family = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))]
        y = from_facets(n, map(complexes._vertices_of, family))
        maximal = {full & ~c for c in pairwise_minimal(full & ~f for f in family)} - {0}
        assert set(y.facets()) == {complexes._vertices_of(f) for f in maximal or {0}}
        assert from_facets(n, y.facets()) == y


def test_the_antichain_check_makes_at_most_one_membership_test_per_vertex(monkeypatch):
    # a deterministic bound in place of a timing: at most sum |m| over the
    # missing faces above the least size, so none for one size
    tested = []
    contains = Complex.contains_mask
    monkeypatch.setattr(Complex, "contains_mask",
                        lambda self, m: tested.append(m) or contains(self, m))
    rng = random.Random(77)
    mixed = 0
    for _ in range(100):
        n = rng.randint(1, 12)
        masks = random_missing_masks(rng, n)
        tested.clear()
        Complex(n, masks)
        sizes = {m.bit_count() for m in masks}
        if len(sizes) > 1:
            mixed += 1
            assert 0 < len(tested) <= sum(m.bit_count() for m in masks if m.bit_count() > min(sizes))
        else:
            assert not tested
    assert mixed > 20
    with pytest.raises(ValueError, match=r"antichain: \(1,\) ⊆ \(0, 1\)"):
        Complex(3, [0b110, 0b011, 0b010, 0b101])


def random_missing_masks(rng, n):
    """A random antichain over every cardinality 1..n, as bitmasks; it
    may hold singletons (missing vertices) and the whole vertex set."""
    if n == 0:
        return []
    fam = {rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))} - {0}
    return [m for m in fam if not any(o != m and o & m == o for o in fam)]


def test_missing_faces_are_sorted_by_size_then_vertex_tuple():
    # the reference order is the bit strings read from vertex 0 up,
    # descending within a size; masks reach vertex 129
    rng = random.Random(77)
    for trial in range(300):
        n = rng.choice((5, 9, 70, 130))
        fam = {sum(1 << v for v in rng.sample(range(n), rng.randint(1, 4)))
               for _ in range(rng.randint(1, 12))}
        fam = [m for m in fam if not any(o != m and o & m == o for o in fam)]
        x = Complex(n, fam)
        assert x.missing_masks == tuple(sorted(
            fam, key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True))
        assert x.missing_faces == tuple(sorted(x.missing_faces, key=lambda f: (len(f), f)))


def test_faces_match_definition_on_random_complexes():
    """faces, face_masks, n_faces and contains_mask against
    all subsets, filtered by the definition, in lexicographic order; the
    levels are asked for in a random order so each can be enumerated
    from a cold cache."""
    rng = random.Random(4242)
    for trial in range(150):
        n = 1 if trial < 5 else rng.randint(0, 10)
        masks = random_missing_masks(rng, n)
        x = Complex(n, masks)

        def is_face(m):
            return not any(mu & m == mu for mu in masks)

        levels = list(range(-3, n + 2))
        rng.shuffle(levels)
        for k in levels:
            want = () if k < -1 else tuple(
                f for f in combinations(range(n), k + 1) if is_face(sum(1 << v for v in f))
            )
            assert x.faces(k) == want, (n, masks, k)
            assert x.face_masks(k) == tuple(sum(1 << v for v in f) for f in want)
            assert x.n_faces(k) == len(want)  # 1 in degree -1, the empty face
        for m in range(1 << n):
            assert x.contains_mask(m) == is_face(m), (n, masks, m)
    # the same with missing vertices and edges drawn on purpose: a
    # singleton masks the empty face's extensions, an edge {v, w} is
    # filed under v with nothing below it
    rng = random.Random(4243)
    kinds = set()
    for trial in range(150):
        n = rng.randint(1, 10)
        fam = set(random_missing_masks(rng, n))
        fam |= {1 << rng.randrange(n) for _ in range(rng.randint(0, 2))}
        fam |= {1 << rng.randrange(n) | 1 << rng.randrange(n) for _ in range(rng.randint(0, 4))}
        masks = [m for m in fam if not any(o != m and o & m == o for o in fam)]
        kinds |= {m.bit_count() for m in masks}
        x = Complex(n, masks)
        levels = list(range(-1, n + 1))
        rng.shuffle(levels)
        for k in levels:
            want = () if k < -1 else tuple(
                f for f in combinations(range(n), k + 1)
                if not any(mu & sum(1 << v for v in f) == mu for mu in masks))
            assert x.faces(k) == want, (n, masks, k)
        for m in range(1 << n):
            assert x.contains_mask(m) == (not any(mu & m == mu for mu in masks)), (n, masks, m)
    assert {1, 2, 3} <= kinds


def test_pg33_keeps_extension_masks_one_degree_below_the_top():
    # after the 3-faces are listed, one mask per 2-face is kept (9360),
    # not one per 3-face (72540); each holds the vertices above the
    # face's largest that extend it to a 3-face
    x = pg33_complex()
    assert x.n_faces(3) == 72540
    assert len(x._ext) == x.n_faces(2) == 9360
    for g, gm, e in list(zip(x.faces(2), x.face_masks(2), x._ext))[::97]:
        assert e == sum(1 << w for w in range(g[-1] + 1, x.n) if x.contains_mask(gm | 1 << w))


def test_pg33_faces_through_degree_3_hold_under_5_mb():
    # each face is held once, as its mask: the 72540 3-faces' masks and
    # the tuple holding them, with the lower degrees and the 9360
    # extension masks, come to about 3.7 MB; a vertex tuple per face as
    # well came to 10.1 MB
    x = pg33_complex()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert x.n_faces(3) == 72540
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 5e6, held


def test_contains():
    x = from_missing_faces(4, [{0, 1, 2}])
    assert x.contains(())
    assert x.contains([0, 1])
    assert not x.contains([0, 1, 2])
    assert not x.contains([0, 1, 2, 3])
    with pytest.raises(ValueError):
        x.contains([7])


# -- local structure --------------------------------------------------


def test_degree_trivial_cases():
    full = from_facets(5, [{0, 1, 2, 3, 4}])
    assert full.degree([0]) == 4
    tri = from_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    assert tri.degree([0, 1]) == 0
    with pytest.raises(ValueError):
        tri.degree([0, 1, 2])


def test_link_against_definition():
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(3, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        candidates = [f for k in range(0, x.dim + 1) for f in x.faces(k)]
        if not candidates:
            continue
        sigma = rng.choice(candidates)
        lk = x.link(sigma)
        rest = [v for v in range(n) if v not in sigma]
        assert lk.n == len(rest)
        # compare faces of the link with the definition, mapped back
        for k in range(-1, lk.n):
            got = {tuple(rest[j] for j in f) for f in lk.faces(k)}
            want = {
                tau
                for tau in combinations(rest, k + 1)
                if x.contains(set(tau) | set(sigma))
            }
            assert got == want
        assert x.degree(sigma) == lk.n_faces(0)


def test_induced():
    x = from_missing_faces(2, [{0, 1}])
    pt = x.induced({0})
    assert pt.n == 1 and pt.faces(0) == ((0,),)
    assert x.induced(range(2)) == x
    empty = x.induced(())
    assert empty.n == 0
    assert empty.faces(-1) == ((),)
    assert empty.faces(0) == ()
    ag = from_missing_faces(9, ag23_lines())
    sub = ag.induced({0, 1, 2, 5})  # contains the line {0,1,2}
    assert sub.n == 4
    assert sub.missing_faces == ((0, 1, 2),)
    with pytest.raises(ValueError):
        ag.induced({0, 99})


def test_induced_matches_definition():
    rng = random.Random(907)
    for _ in range(30):
        n = rng.randint(3, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        u = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub = x.induced(u)
        for k in range(-1, n):
            got = {tuple(u[j] for j in f) for f in sub.faces(k)}
            want = {f for f in x.faces(k) if set(f) <= set(u)}
            assert got == want


# -- derived complexes ------------------------------------------------


def test_relaxation_single_layer_is_identity():
    ag = from_missing_faces(9, ag23_lines())
    assert ag.relaxation(2) == ag
    with pytest.raises(ValueError):
        ag.relaxation(1)


def test_relaxation_intersection_property():
    rng = random.Random(3331)
    tried = 0
    while tried < 20:
        n = rng.randint(4, 7)
        x = from_missing_faces(n, random_antichain(rng, n))
        dims = sorted(x.missing_dims())
        if len(dims) < 2:
            continue
        tried += 1
        layers = [x.relaxation(i) for i in dims]
        for k in range(-1, n):
            inter = set(layers[0].faces(k))
            for lay in layers[1:]:
                inter &= set(lay.faces(k))
            assert inter == set(x.faces(k))


def test_missing_complex_ag23():
    ag = from_missing_faces(9, ag23_lines())
    y = ag.missing_complex(2)
    assert y.dim == 2
    assert y.n_faces(1) == 36
    assert list(y.faces(2)) == ag23_lines()


def test_missing_complex_graph_layer():
    # clique-type complex: missing edges {0,1},{2,3} on 4 vertices
    x = from_missing_faces(4, [{0, 1}, {2, 3}])
    y = x.missing_complex(1)
    assert y.faces(1) == ((0, 1), (2, 3))
    assert y.faces(0) == ((0,), (1,), (2,), (3,))
    assert y.dim == 1


def test_missing_complex_is_built_once_per_dimension():
    x = from_missing_faces(6, [(0, 1), (2, 3, 4), (2, 3, 5)])
    for i in (1, 2):
        assert x.missing_complex(i) is x.missing_complex(i)
    assert x.missing_complex(1) is not x.missing_complex(2)
    with pytest.raises(ValueError, match="no missing faces of dimension 0"):
        x.missing_complex(0)


def test_vertices_of_lists_the_set_bits_ascending():
    rng = random.Random(12)
    for _ in range(200):
        mask = rng.getrandbits(rng.randint(0, 70))
        assert complexes._vertices_of(mask) == tuple(
            v for v in range(mask.bit_length()) if mask >> v & 1)


# -- blow-ups ---------------------------------------------------------


def test_blowup_identity_counts():
    x = from_missing_faces(4, [{0, 1, 2}])
    assert x.blowup([1, 1, 1, 1]) == x


def test_blowup_projection_membership():
    rng = random.Random(777)
    for _ in range(25):
        n = rng.randint(2, 5)
        x = from_missing_faces(n, random_antichain(rng, n))
        counts = [rng.randint(1, 2) for _ in range(n)]
        xa = x.blowup(counts)
        assert xa.n == sum(counts)
        offs = []
        run = 0
        for v in range(n):
            offs.append(run)
            run += counts[v]

        def proj(label):
            for v in range(n - 1, -1, -1):
                if label >= offs[v]:
                    return v
            raise AssertionError

        # membership in the blow-up is membership of the projection
        for size in range(1, min(xa.n, 6) + 1):
            for sigma in combinations(range(xa.n), size):
                assert xa.contains(sigma) == x.contains(set(proj(u) for u in sigma))
        # each missing face mu lifts to prod(counts over mu) missing faces
        lifted = {}
        for mm in xa.missing_faces:
            pm = tuple(sorted(set(proj(u) for u in mm)))
            assert len(set(proj(u) for u in mm)) == len(mm)
            assert pm in set(x.missing_faces)
            lifted[pm] = lifted.get(pm, 0) + 1
        for mu in x.missing_faces:
            want = 1
            for v in mu:
                want *= counts[v]
            assert lifted.get(mu, 0) == want


def test_blowup_errors():
    x = from_missing_faces(2, [{0, 1}])
    with pytest.raises(ValueError):
        x.blowup([1])
    with pytest.raises(ValueError):
        x.blowup([0, 1])


# -- partitions and colorful sets -------------------------------------


def test_partition_validation():
    p = Partition([[1, 0], [2, 3]])
    assert p.classes == ((0, 1), (2, 3))
    assert p.m == 2
    assert p.union_of([1]) == (2, 3)
    with pytest.raises(ValueError):
        Partition([[0], [0, 1]])
    with pytest.raises(ValueError):
        Partition([[]])
    with pytest.raises(ValueError):
        Partition([[0, 0]])


# -- JSON boundary ----------------------------------------------------


def test_complex_json_roundtrip():
    x = from_missing_faces(9, ag23_lines())
    assert complex_from_json(complex_to_json(x)) == x
    y = complex_from_json('{"n": 3, "facets": [[0, 1], [1, 2], [0, 2]]}')
    assert y.missing_faces == ((0, 1, 2),)
    with pytest.raises(ValueError):
        complex_from_json('{"n": 3}')
    with pytest.raises(ValueError):
        complex_from_json('{"n": 3, "facets": [[0]], "missing_faces": [[1]]}')


def test_partition_json():
    p = partition_from_json('{"classes": [[0, 1], [2]]}')
    assert p.classes == ((0, 1), (2,))
    with pytest.raises(ValueError):
        partition_from_json("{}")


@pytest.mark.parametrize(
    "bad",
    [1.5, 1.0, True, False, "1", None, np.float64(1.0), np.bool_(True)],
    ids=["1.5", "1.0", "True", "False", "str", "None", "np.float64", "np.bool_"],
)
def test_non_integer_vertices_are_rejected(bad):
    with pytest.raises(ValueError, match="vertex"):
        from_missing_faces(3, [[0, bad]])
    with pytest.raises(ValueError, match="vertex"):
        from_facets(3, [[0, bad]])
    with pytest.raises(ValueError, match="vertex"):
        Partition([[0], [bad]])
    x = from_missing_faces(3, [[0, 1, 2]])
    with pytest.raises(ValueError, match="vertex"):
        x.contains([bad])


@pytest.mark.parametrize("text", [
    '{"n": 3, "missing_faces": [[0, 1.5]]}',
    '{"n": 3, "missing_faces": [[0, true]]}',
    '{"n": 3, "facets": [[0, 1.0]]}',
])
def test_complex_json_rejects_non_integer_vertices(text):
    with pytest.raises(ValueError, match="vertex"):
        complex_from_json(text)


@pytest.mark.parametrize("text,message", [
    ('{"n": 3.7, "missing_faces": [[0, 1]]}', "n 3.7 is not an integer"),
    ('{"n": 3.0, "missing_faces": [[0, 1]]}', "n 3.0 is not an integer"),
    ('{"n": true, "missing_faces": [[0]]}', "n True is a bool"),
    ('{"n": "3", "facets": [[0, 1]]}', "n '3' is not an integer"),
])
def test_complex_json_rejects_a_non_integer_vertex_count(text, message):
    with pytest.raises(ValueError, match=message):
        complex_from_json(text)


def test_blowup_counts_must_be_integers():
    x = from_missing_faces(2, [{0, 1}])
    for bad in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="multiplicity"):
            x.blowup([1, bad])
    assert x.blowup([np.int64(2), 1]) == x.blowup([2, 1])


@pytest.mark.parametrize("text", ['{"classes": [[0, 1.5]]}', '{"classes": [[true], [2]]}'])
def test_partition_json_rejects_non_integer_vertices(text):
    with pytest.raises(ValueError, match="vertex"):
        partition_from_json(text)


def test_numpy_integer_vertices_are_accepted():
    x = from_missing_faces(3, [[np.int64(0), np.int32(1)]])
    assert x.missing_faces == ((0, 1),)
    assert Partition([[np.uint8(2)], [0]]).classes == ((2,), (0,))


def test_enumeration_step_budget(monkeypatch):
    # a step tests each (k-1)-face once per vertex above its largest
    edges = from_missing_faces(10, [[0, 1]]).face_masks(1)
    count = sum(10 - m.bit_length() for m in edges)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count)
    assert len(from_missing_faces(10, [[0, 1]]).faces(2)) == 112
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count - 1)
    x = from_missing_faces(10, [[0, 1]])
    with pytest.raises(ValueError, match=f"the 2-faces tests {count} candidates"):
        x.faces(2)
    assert len(x.faces(1)) == 44


def test_pg33_dim_is_refused_at_the_5_face_step():
    # the 4-face step (518556 candidates) fits the budget; the 5-face
    # step is refused before any of its 1010880 faces is listed
    x = pg33_complex()
    t0 = time.process_time()
    with pytest.raises(ValueError, match="enumerating the 5-faces tests 2052702 candidates, "
                                         "above the budget of 1048576"):
        x.dim
    assert time.process_time() - t0 < 2.0


def test_from_facets_budget(monkeypatch):
    # each subset of each maximal input set is tested once per vertex;
    # an absorbed input set costs nothing
    facets = [(0, 1, 2), (2, 3), (0, 1), (4,)]
    count = 5 * (8 + 4 + 2)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count)
    assert from_facets(5, facets).facets() == ((0, 1, 2), (2, 3), (4,))
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count - 1)
    with pytest.raises(ValueError, match=rf"tests {count} candidates \(5 per subset\)"):
        from_facets(5, facets)
    # a full facet on 16 vertices is the real budget exactly; on 17 it is
    # refused before any subset is built
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", 1 << 20)
    assert from_facets(16, [range(16)]).missing_faces == ()
    t0 = time.process_time()
    for n in (17, 34):
        with pytest.raises(ValueError, match=f"tests {n << n} candidates"):
            from_facets(n, [range(n)])
    assert time.process_time() - t0 < 0.5


def test_from_facets_refusal_names_the_running_count(monkeypatch):
    # largest first, an absorbed set skipped: (0, 1, 2) counts 5 * 8,
    # (0, 1) is absorbed and (2, 3), the third set walked, takes the
    # count to 60
    facets = [(0, 1, 2), (2, 3), (0, 1), (4,), (0, 1)]
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", 59)
    with pytest.raises(ValueError, match=r"tests 60 candidates \(5 per subset\), above the budget "
                                         r"of 59, after 3 of the 4 distinct input sets"):
        from_facets(5, facets)
    # 20000 four-sets on 60 vertices: 960 tests each, none absorbed, so
    # the 1093rd set passes the real budget before the rest are listed
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", 1 << 20)
    rng = random.Random(60)
    sets = [rng.sample(range(60), 4) for _ in range(20000)]
    distinct = len({frozenset(f) for f in sets})
    with pytest.raises(ValueError, match=f"tests {1093 * 960} candidates .* after 1093 of "
                                         f"the {distinct} distinct input sets"):
        from_facets(60, sets)


def test_missing_layer_budget(monkeypatch):
    # the layer lists the C(n, i+1) + C(n, i+2) subsets around its faces
    x = from_missing_faces(6, [(0, 1, 2), (3, 4)])
    count = 20 + 15
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count)
    assert x.missing_complex(2).faces(2) == ((0, 1, 2),)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count - 1)
    y = from_missing_faces(6, [(0, 1, 2), (3, 4)])
    with pytest.raises(ValueError, match=f"the dimension-2 missing layer lists {count} subsets"):
        y.missing_complex(2)


def test_listed_degrees_are_lookups(monkeypatch):
    steps = []
    extend = Complex._extend

    def counting(self, k):
        steps.append(k)
        extend(self, k)

    monkeypatch.setattr(Complex, "_extend", counting)
    x = from_missing_faces(6, [[0, 1], [2, 3, 4]])
    assert len(x.faces(2)) == 15
    assert steps == [0, 1, 2]
    for k in range(-3, 3):
        x.faces(k), x.face_masks(k), x.n_faces(k)
    assert steps == [0, 1, 2]
    assert x.n_faces(3) == 6 and steps == [0, 1, 2, 3]
    assert x.faces(6) == () and x.face_masks(7) == ()
    assert steps == [0, 1, 2, 3]


def test_a_refused_step_leaves_the_stored_masks_usable(monkeypatch):
    missing = [[0, 1], [2, 3, 4], [1, 5, 6], [4, 6, 7]]
    masks = from_missing_faces(10, missing).face_masks(1)
    count = sum(10 - m.bit_length() for m in masks)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count - 1)
    x = from_missing_faces(10, missing)
    with pytest.raises(ValueError, match="the 2-faces tests"):
        x.faces(2)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", 1 << 20)
    fresh = from_missing_faces(10, missing)
    assert [x.faces(k) for k in range(5)] == [fresh.faces(k) for k in range(5)]


def test_a_refused_step_is_retried_and_refused_again(monkeypatch):
    edges = from_missing_faces(10, [[0, 1]]).face_masks(1)
    count = sum(10 - m.bit_length() for m in edges)
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count - 1)
    x = from_missing_faces(10, [[0, 1]])
    for _ in range(2):
        with pytest.raises(ValueError, match="the 2-faces tests"):
            x.n_faces(2)
        assert x.n_faces(1) == 44
    monkeypatch.setattr(complexes, "MAX_STEP_CANDIDATES", count)
    assert x.n_faces(2) == 112


def test_apexes_match_a_per_vertex_scan():
    rng = random.Random(64)
    cases = [Complex(0, ()), from_missing_faces(3, [(0, 1, 2)]), from_missing_faces(4, [(0, 1, 2)])]
    for _ in range(60):
        n = rng.randint(2, 8)
        cases.append(from_missing_faces(n, random_antichain(rng, n)))
    for x in cases:
        scan = [v for v in range(x.n) if not any(v in mu for mu in x.missing_faces)]
        assert x.apexes == sum(1 << v for v in scan)
    assert any(x.apexes for x in cases) and any(x.n and not x.apexes for x in cases)


def test_masks_of_size_match_combinations():
    for vertices in [(), (3,), (0, 2, 5, 7), range(6), (5, 1, 3)]:
        for r in range(len(vertices) + 2):
            expected = [sum(1 << v for v in c) for c in combinations(vertices, r)]
            assert list(_masks_of_size(vertices, r)) == expected

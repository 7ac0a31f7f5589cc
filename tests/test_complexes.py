"""Core complex construction and combinatorial queries.

Oracles here are independent of the code under test: AG(2,3) lines are
rebuilt from affine arithmetic over F_3, membership is cross-checked by
brute-force closure over all subsets, and links/blow-ups are compared
against their definitions element by element.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

import scx.complexes as complexes
from scx.complexes import (
    Complex,
    Partition,
    complex_from_json,
    complex_to_json,
    from_facets,
    from_missing_faces,
    is_colorful,
    partition_from_json,
)


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


def random_missing_masks(rng, n):
    """A random antichain over every cardinality 1..n, as bitmasks; it
    may hold singletons (missing vertices) and the whole vertex set."""
    if n == 0:
        return []
    fam = {rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))} - {0}
    return [m for m in fam if not any(o != m and o & m == o for o in fam)]


def test_faces_match_definition_on_random_complexes():
    """faces, face_masks, face_index, n_faces and contains_mask against
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
            assert x.face_index(k) == {f: i for i, f in enumerate(want)}
            assert x.n_faces(k) == len(want)  # 1 in degree -1, the empty face
        for m in range(1 << n):
            assert x.contains_mask(m) == is_face(m), (n, masks, m)


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


# -- missing-face statistics ------------------------------------------


def test_missing_stats_trivial():
    x = from_missing_faces(2, [{0, 1}])
    st = x.missing_stats({0, 1})
    assert st.absent == ((0, 1),)
    assert st.core == (0, 1) and st.core_size == 2
    ag = from_missing_faces(9, ag23_lines())
    face = ag.faces(2)[0]
    st = ag.missing_stats(face)
    assert st.absent == () and st.core_size == 0
    with pytest.raises(ValueError):
        ag.missing_stats({0, 1})


def test_missing_stats_line_plus_point():
    ag = from_missing_faces(9, ag23_lines())
    for line in ag.missing_faces[:4]:
        extra = min(set(range(9)) - set(line))
        st = ag.missing_stats(set(line) | {extra})
        assert not ag.contains(st.subset)
        assert 2 <= st.core_size <= 3


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


def test_is_colorful():
    p = Partition([[0, 1], [2, 3]])
    assert is_colorful({0, 3}, p)
    assert not is_colorful({0, 1}, p)
    assert is_colorful(set(), Partition([]))
    with pytest.raises(ValueError):
        is_colorful({9}, p)


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
    with pytest.raises(ValueError, match="vertex"):
        x.missing_stats([0, 2, bad])


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

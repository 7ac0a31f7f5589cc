"""Finite simplicial complexes stored by their minimal non-faces.

A complex on vertices 0..n-1 is determined by its antichain of missing
faces (minimal non-faces): tau is a face iff no missing face is contained
in tau.  Faces are exposed as sorted vertex tuples; internally every set
of vertices is a bitmask, so membership tests are subset checks on
machine integers.

Besides constructors and combinatorial queries this module builds the
derived complexes the rest of the code needs: links, induced subcomplexes
(relabelled to a dense vertex range), vertex blow-ups, the single-layer
relaxation keeping only the missing faces of one cardinality, and the
low-dimensional complex whose top faces are those missing faces.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import combinations, product

from .reports import json_lists

__all__ = [
    "Complex",
    "MissingFaceStats",
    "Partition",
    "as_int",
    "as_vertex",
    "from_facets",
    "from_missing_faces",
    "intersection",
    "is_colorful",
    "complex_to_json",
    "complex_from_json",
    "partition_from_json",
]


def as_int(value, what: str) -> int:
    """An integer field as an int.  Python and numpy integers are
    accepted; bools and anything non-integral (1.5, 1.0, "1") raise a
    ValueError that names the field."""
    if isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def as_vertex(v) -> int:
    """A vertex label as an int, by the rule of :func:`as_int`."""
    return as_int(v, "vertex")


def _mask_of(vertices, n: int) -> int:
    """Bitmask of a vertex collection, validating type, range and duplicates."""
    m = 0
    for v in vertices:
        v = as_vertex(v)
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        b = 1 << v
        if m & b:
            raise ValueError(f"duplicate vertex {v}")
        m |= b
    return m


def _vertices_of(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _relabel(masks, verts) -> list[int]:
    """Each mask, all of whose vertices lie in the ascending ``verts``,
    with vertex verts[j] renamed j."""
    pos = {v: j for j, v in enumerate(verts)}
    out = []
    for m in masks:
        mm = 0
        for v in _vertices_of(m):
            mm |= 1 << pos[v]
        out.append(mm)
    return out


def _minimalize(masks) -> list[int]:
    """Antichain of minimal elements of a family of bitmasks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


@dataclass(frozen=True)
class MissingFaceStats:
    """Top-dimensional absences inside one vertex subset.

    ``absent`` lists the (d+1)-subsets of ``subset`` that are not faces,
    where d is the complex's maximal missing-face dimension; ``core`` is
    the common intersection of those subsets (empty when nothing is
    absent) and ``core_size`` its cardinality.
    """

    subset: tuple[int, ...]
    absent: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]
    core_size: int


class Complex:
    """Immutable simplicial complex on vertices 0..n-1.

    Construct through :func:`from_facets` / :func:`from_missing_faces`
    rather than directly; ``missing`` must already be a valid antichain
    of bitmasks.  All queries are pure and cached, so instances are safe
    to share.
    """

    __slots__ = ("n", "_missing", "_by_card", "_by_top", "_faces", "_masks", "_index", "_dim",
                 "_layers", "_memo")

    def __init__(self, n: int, missing_masks) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = sorted(set(int(m) for m in missing_masks), key=lambda m: (m.bit_count(), _vertices_of(m)))
        for m in canon:
            if m == 0:
                raise ValueError("the empty set cannot be a missing face")
            if m >= (1 << n):
                raise ValueError("missing face has a vertex out of range")
        by_card: dict[int, list[int]] = {}
        for m in canon:
            by_card.setdefault(m.bit_count(), []).append(m)
        cards = sorted(by_card)
        for ci in cards:
            for cj in cards:
                if cj <= ci:
                    continue
                for big in by_card[cj]:
                    for small in by_card[ci]:
                        if small & big == small:
                            raise ValueError(
                                f"missing faces must form an antichain: {_vertices_of(small)} ⊆ {_vertices_of(big)}"
                            )
        self.n = n
        self._missing = tuple(canon)
        self._by_card = {c: tuple(ms) for c, ms in by_card.items()}
        # Missing faces grouped by their largest vertex v, each stored
        # without v: adding v to a face f (v above every vertex of f)
        # gives a face iff no remainder stored under v lies inside f.
        by_top: list[list[int]] = [[] for _ in range(n)]
        for m in canon:
            v = m.bit_length() - 1
            by_top[v].append(m & ~(1 << v))
        self._by_top = tuple(tuple(rs) for rs in by_top)
        self._faces: dict[int, tuple[tuple[int, ...], ...]] = {-1: ((),)}
        self._masks: dict[int, tuple[int, ...]] = {-1: (0,)}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._dim: int | None = None
        self._layers: dict[int, Complex] = {}
        # results of scx.homology on this complex; only that module knows the keys
        self._memo: dict[tuple, object] = {}

    # -- basic queries ------------------------------------------------

    @property
    def missing_faces(self) -> tuple[tuple[int, ...], ...]:
        """Minimal non-faces as sorted vertex tuples, smallest first."""
        return tuple(_vertices_of(m) for m in self._missing)

    @property
    def missing_masks(self) -> tuple[int, ...]:
        return self._missing

    def missing_dims(self) -> frozenset[int]:
        """Dimensions i such that some missing face has cardinality i+1."""
        return frozenset(c - 1 for c in self._by_card)

    def max_missing_dim(self) -> int:
        """Largest missing-face dimension; errors when there is none."""
        if not self._missing:
            raise ValueError("complex has no missing faces; maximal missing dimension undefined")
        return max(self._by_card) - 1

    def missing_layer(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Missing faces of dimension i (cardinality i+1)."""
        masks = self._by_card.get(i + 1, ())
        return tuple(_vertices_of(m) for m in masks)

    def contains_mask(self, mask: int) -> bool:
        """True iff no missing face lies inside the vertex set ``mask``."""
        by_top = self._by_top
        rest = mask
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            for r in by_top[v]:
                if r & rest == r:
                    return False
        return True

    def contains(self, face) -> bool:
        """True iff the vertex set is a face (the empty set always is)."""
        return self.contains_mask(_mask_of(face, self.n))

    def faces(self, k: int):
        """All k-faces as sorted vertex tuples, in lexicographic order.

        Each k-face is a (k-1)-face f extended by a vertex v above every
        vertex of f, kept unless a missing face with largest vertex v
        lies inside f + v; extending the (k-1)-faces in their order, v
        ascending, lists the k-faces in lexicographic order.
        """
        if k < -1 or k >= self.n:
            return ()
        for j in range(max(self._faces) + 1, k + 1):
            self._extend(j)
        return self._faces[k]

    def _extend(self, k: int) -> None:
        """Enumerate and cache the k-faces from the cached (k-1)-faces."""
        n = self.n
        by_top = self._by_top
        fs: list[tuple[int, ...]] = []
        ms: list[int] = []
        for f, fm in zip(self._faces[k - 1], self._masks[k - 1]):
            for v in range(fm.bit_length(), n):
                for r in by_top[v]:
                    if r & fm == r:
                        break
                else:
                    fs.append(f + (v,))
                    ms.append(fm | 1 << v)
        self._faces[k] = tuple(fs)
        self._masks[k] = tuple(ms)

    def face_masks(self, k: int):
        """Bitmasks of the k-faces, in the order of :meth:`faces`."""
        self.faces(k)
        return self._masks.get(k, ())

    def face_index(self, k: int) -> dict[tuple[int, ...], int]:
        """Position of each k-face in the canonical ordering."""
        if k not in self._index:
            self._index[k] = {f: i for i, f in enumerate(self.faces(k))}
        return self._index[k]

    def n_faces(self, k: int) -> int:
        """Number of k-faces: 1 in degree -1 (the empty face), 0 below."""
        return len(self.faces(k))

    @property
    def dim(self) -> int:
        if self._dim is None:
            if not self._missing:
                self._dim = self.n - 1
            else:
                k = -1
                while self.faces(k + 1):
                    k += 1
                self._dim = k
        return self._dim

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Inclusion-maximal faces."""
        all_faces = []
        for k in range(self.dim, -2, -1):
            all_faces.extend(self.face_masks(k))
        maximal: list[int] = []
        for m in all_faces:
            if not any(m & big == m for big in maximal):
                maximal.append(m)
        return tuple(sorted(_vertices_of(m) for m in maximal))

    # -- local structure ----------------------------------------------

    def degree(self, sigma) -> int:
        """Number of faces one dimension up containing the given face."""
        smask = _mask_of(sigma, self.n)
        if not self.contains_mask(smask):
            raise ValueError(f"{tuple(sorted(sigma))} is not a face")
        deg = 0
        for v in range(self.n):
            b = 1 << v
            if smask & b:
                continue
            if self.contains_mask(smask | b):
                deg += 1
        return deg

    def link(self, sigma) -> "Complex":
        """Link of a face, relabelled to vertices 0..n-|sigma|-1.

        Vertex j of the result is the j-th smallest element of V minus
        sigma.  The minimal non-faces of the link are the minimal sets
        among {mu \\ sigma : mu missing in X}.
        """
        smask = _mask_of(sigma, self.n)
        if not self.contains_mask(smask):
            raise ValueError(f"{tuple(sorted(sigma))} is not a face")
        rest = _vertices_of(~smask & ((1 << self.n) - 1))
        gens = _minimalize(m & ~smask for m in self._missing)
        return Complex(len(rest), _relabel(gens, rest))

    def induced(self, subset) -> "Complex":
        """Induced subcomplex on a vertex subset, relabelled densely.

        Vertex j of the result is the j-th smallest element of the
        subset; its missing faces are exactly the missing faces of this
        complex contained in the subset.  An empty subset yields the
        degenerate complex on zero vertices (only the empty face).
        """
        umask = _mask_of(set(subset), self.n)
        verts = _vertices_of(umask)
        kept = [m for m in self._missing if m & umask == m]
        return Complex(len(verts), _relabel(kept, verts))

    def blowup(self, counts) -> "Complex":
        """Replace vertex v by counts[v] clones.

        The result lives on sum(counts) vertices; clone j of v gets the
        label offset(v)+j where offset is the prefix sum of counts.  Its
        missing faces are the clone-lifts of this complex's missing
        faces, one clone choice per vertex, so each missing face mu
        contributes prod(counts[v] for v in mu) lifts.
        """
        counts = [as_int(a, "multiplicity") for a in counts]
        if len(counts) != self.n:
            raise ValueError("need one multiplicity per vertex")
        if any(a < 1 for a in counts):
            raise ValueError("multiplicities must be >= 1")
        offset = [0] * self.n
        run = 0
        for v in range(self.n):
            offset[v] = run
            run += counts[v]
        lifts = []
        for m in self._missing:
            vs = _vertices_of(m)
            for choice in product(*[range(counts[v]) for v in vs]):
                mm = 0
                for v, j in zip(vs, choice):
                    mm |= 1 << (offset[v] + j)
                lifts.append(mm)
        return Complex(run, lifts)

    def relaxation(self, i: int) -> "Complex":
        """Complex whose only missing faces are this one's i-dimensional ones."""
        if i + 1 not in self._by_card:
            raise ValueError(f"no missing faces of dimension {i}")
        return Complex(self.n, self._by_card[i + 1])

    def missing_complex(self, i: int) -> "Complex":
        """The i-dimensional complex with full (i-1)-skeleton whose
        i-faces are this complex's missing i-faces.  Built once per i and
        kept on this complex, so the layer's own cached faces and
        incidences serve every caller."""
        y = self._layers.get(i)
        if y is None:
            y = self._layers[i] = _layer_complex(self, i)
        return y

    def missing_stats(self, theta) -> MissingFaceStats:
        """Which top-cardinality subsets of theta are absent, and their
        common intersection (empty when theta is a face)."""
        d = self.max_missing_dim()
        tvs = tuple(sorted(set(as_vertex(v) for v in theta)))
        _mask_of(tvs, self.n)
        if len(tvs) < d + 1:
            raise ValueError(f"subset must have at least {d + 1} vertices")
        absent = tuple(tau for tau in combinations(tvs, d + 1) if not self.contains(tau))
        if absent:
            core = set(absent[0])
            for tau in absent[1:]:
                core &= set(tau)
            core = tuple(sorted(core))
        else:
            core = ()
        return MissingFaceStats(subset=tvs, absent=absent, core=core, core_size=len(core))

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.n == other.n and self._missing == other._missing

    def __hash__(self) -> int:
        return hash((self.n, self._missing))

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, missing={list(self.missing_faces)!r})"


def _layer_complex(x: Complex, i: int) -> Complex:
    """Build the layer of :meth:`Complex.missing_complex`.  Its missing
    faces are the (i+1)-sets outside the layer and the (i+2)-sets whose
    (i+1)-subsets all lie in it."""
    if i + 1 not in x._by_card:
        raise ValueError(f"no missing faces of dimension {i}")
    layer = frozenset(x._by_card[i + 1])
    gens = [_mask_of(f, x.n) for f in combinations(range(x.n), i + 1)
            if _mask_of(f, x.n) not in layer]
    if i + 2 <= x.n:
        for f in combinations(range(x.n), i + 2):
            m = 0
            for v in f:
                m |= 1 << v
            if all(m & ~(1 << v) in layer for v in f):
                gens.append(m)
    return Complex(x.n, gens)


def from_facets(n: int, facets) -> Complex:
    """Complex whose faces are all subsets of the given sets.

    Input sets contained in other input sets are absorbed.  The minimal
    non-faces are derived here so the result round-trips through
    :func:`from_missing_faces`.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    fmasks = _minimalize(~m & ((1 << n) - 1) for m in (_mask_of(f, n) for f in facets))
    fmasks = [~m & ((1 << n) - 1) for m in fmasks]  # maximal sets via complement trick
    faces_by_card: dict[int, set] = {0: {()}}
    for fm in fmasks:
        vs = _vertices_of(fm)
        for c in range(1, len(vs) + 1):
            faces_by_card.setdefault(c, set()).update(combinations(vs, c))
    top = max(faces_by_card)
    missing = []
    for c in range(1, top + 2):
        here = faces_by_card.get(c, set())
        below = faces_by_card.get(c - 1, set())
        cands = set()
        for f in below:
            fset = set(f)
            for v in range(n):
                if v not in fset:
                    cands.add(tuple(sorted(fset | {v})))
        for mu in cands:
            if mu in here:
                continue
            if all(sub in below for sub in combinations(mu, c - 1)):
                missing.append(_mask_of(mu, n))
    return Complex(n, missing)


def intersection(complexes) -> Complex:
    """Face-wise intersection of complexes on one common vertex set.

    A set is a face of the result iff it is a face of every input, so
    the minimal non-faces are the minimal sets among the union of the
    inputs' minimal non-faces.
    """
    complexes = list(complexes)
    if not complexes:
        raise ValueError("need at least one complex")
    ns = {x.n for x in complexes}
    if len(ns) != 1:
        raise ValueError(f"vertex counts differ: {sorted(ns)}")
    masks = [m for x in complexes for m in x.missing_masks]
    return Complex(complexes[0].n, _minimalize(masks))


def from_missing_faces(n: int, missing) -> Complex:
    """The unique complex with exactly this antichain of missing faces.

    Duplicated sets are collapsed; a pair of distinct sets where one
    contains the other is rejected.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    return Complex(n, [_mask_of(mu, n) for mu in missing])


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty vertex classes covering a stated subset of V."""

    classes: tuple[tuple[int, ...], ...]

    def __init__(self, classes) -> None:
        canon = []
        seen: set[int] = set()
        for cl in classes:
            cvs = tuple(sorted(as_vertex(v) for v in cl))
            if not cvs:
                raise ValueError("partition classes must be nonempty")
            if len(set(cvs)) != len(cvs):
                raise ValueError("duplicate vertex inside a class")
            if seen & set(cvs):
                raise ValueError("partition classes must be disjoint")
            seen.update(cvs)
            canon.append(cvs)
        object.__setattr__(self, "classes", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.classes)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for cl in self.classes for v in cl))

    def union_of(self, which) -> tuple[int, ...]:
        """Sorted union of the classes with the given indices."""
        return tuple(sorted(v for i in which for v in self.classes[i]))


def is_colorful(sigma, partition: Partition) -> bool:
    """True iff sigma meets every class of the partition exactly once."""
    sset = set(sigma)
    covered = {v for cl in partition.classes for v in cl}
    if not sset <= covered:
        raise ValueError("sigma has vertices outside the partition")
    return all(len(sset & set(cl)) == 1 for cl in partition.classes)


# -- JSON boundary ----------------------------------------------------


def complex_to_json(x: Complex) -> str:
    return json.dumps(
        {"n": x.n, "missing_faces": [list(mu) for mu in x.missing_faces]},
        separators=(",", ":"),
        sort_keys=True,
    )


def complex_from_json(text) -> Complex:
    """Parse {"n":..,"facets":[..]} or {"n":..,"missing_faces":[..]}.

    Exactly one of the two list keys must be present.
    """
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("complex JSON needs an 'n' field")
    has_f = "facets" in obj
    has_m = "missing_faces" in obj
    if has_f == has_m:
        raise ValueError("complex JSON needs exactly one of 'facets' or 'missing_faces'")
    n = as_int(obj["n"], "n")
    if has_f:
        return from_facets(n, json_lists(obj, "facets", "complex"))
    return from_missing_faces(n, json_lists(obj, "missing_faces", "complex"))


def partition_from_json(text) -> Partition:
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    return Partition(json_lists(obj, "classes", "partition"))

"""Finite simplicial complexes stored by their minimal non-faces.

A complex on vertices 0..n-1 is determined by its antichain of missing
faces (minimal non-faces): tau is a face iff no missing face is contained
in tau.  Every set of vertices is stored as a bitmask, and one table of
the missing faces, filed by second-largest vertex, answers membership
and every minimal-set question: a non-face g is minimal iff every g - v
is a face.  Each face is stored once, as its mask; ``Complex.faces``
builds the sorted vertex tuples from the masks on each call.

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
from functools import reduce
from itertools import accumulate, combinations, product
from math import comb

from .reports import json_lists

__all__ = [
    "Complex",
    "Partition",
    "as_int",
    "as_vertex",
    "from_facets",
    "from_missing_faces",
    "intersection",
    "complex_to_json",
    "complex_from_json",
    "partition_from_json",
]


#: Most candidates one face-enumeration step may test: above pg33's
#: 4-face step (518556) and the edge step of 700 vertices (244650),
#: below pg33's 5-face step (2052702), so ``pg33_complex().dim`` is
#: refused before its 5-faces are listed.
MAX_STEP_CANDIDATES = 1 << 20


class _OverBudget(ValueError):
    """A size guard refusing an input while it is still being read, so
    the CLI can tell it from a malformed input."""


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


def _mask_of(vertices, n: int, repeats: bool = False) -> int:
    """Bitmask of a vertex collection given from outside: the one
    validator of faces and vertex subsets.  Each element must pass
    :func:`as_vertex` and lie in 0..n-1; a repeat is an error in a face
    and collapses in a subset (``repeats=True``)."""
    m = 0
    for v in vertices:
        v = as_vertex(v)
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        b = 1 << v
        if m & b and not repeats:
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


class Complex:
    """Immutable simplicial complex on vertices 0..n-1.

    Construct through :func:`from_facets` / :func:`from_missing_faces`
    rather than directly; ``missing`` must already be a valid antichain
    of bitmasks.  All queries are pure and cached, so instances are safe
    to share.
    """

    __slots__ = ("n", "_missing", "_by_card", "_by_second", "_singles", "_masks", "_top",
                 "_ext", "_dim", "_layers", "_memo")

    def __init__(self, n: int, missing_masks) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # by size, then lexicographically in the ascending vertex tuples
        canon = sorted(set(int(m) for m in missing_masks),
                       key=lambda m: (m.bit_count(), _vertices_of(m)))
        if 0 in canon:
            raise ValueError("the empty set cannot be a missing face")
        if canon and max(canon) >> n:
            raise ValueError("missing face has a vertex out of range")
        by_card: dict[int, list[int]] = {}
        for m in canon:
            by_card.setdefault(m.bit_count(), []).append(m)
        self.n = n
        self._missing = tuple(canon)
        self._by_card = by_card
        # Each missing face minus its top vertex w, with every such w; a
        # rest of one or more vertices is filed under the bit of its
        # largest, the missing faces' second-largest vertex.
        tops_of: dict[int, int] = {}
        for m in canon:
            w = 1 << m.bit_length() - 1
            tops_of[m ^ w] = tops_of.get(m ^ w, 0) | w
        self._singles = tops_of.pop(0, 0)
        self._by_second: dict[int, list[tuple[int, int]]] = {}
        for rest, tops in tops_of.items():
            self._by_second.setdefault(1 << rest.bit_length() - 1, []).append((rest, tops))
        # sets of one size never nest, so one of the least size holds no
        # other; a larger m holds one iff some m - v is no face
        big = next((m for c in sorted(by_card)[1:] for m in by_card[c]
                    if not self._below_faces(m)), 0)
        if big:
            small = next(s for s in canon if s & big == s != big)
            raise ValueError(f"missing faces must form an antichain: "
                             f"{_vertices_of(small)} ⊆ {_vertices_of(big)}")
        self._masks: dict[int, tuple[int, ...]] = {-1: (0,)}
        self._top = -1  # highest degree listed in _masks
        # extension masks of the faces of degree max(_top - 1, -1): the
        # vertices above a face's largest that extend it to a face
        self._ext: list[int] = [((1 << n) - 1) & ~self._singles]
        self._dim: int | None = None
        self._layers: dict[int, Complex] = {}
        # results of scx.homology and scx.domination on this complex; only
        # those modules know their keys
        self._memo: dict[tuple, object] = {}

    # -- basic queries ------------------------------------------------

    @property
    def missing_faces(self) -> tuple[tuple[int, ...], ...]:
        """Minimal non-faces as sorted vertex tuples, smallest first."""
        return tuple(_vertices_of(m) for m in self._missing)

    @property
    def missing_masks(self) -> tuple[int, ...]:
        return self._missing

    @property
    def apexes(self) -> int:
        """Mask of the vertices in no missing face.  Each lies in every
        facet, so the complex is a cone over any of them."""
        return self.apexes_in((1 << self.n) - 1)

    def apexes_in(self, mask: int) -> int:
        """The apexes of the subcomplex induced on ``mask``, without building it."""
        return mask & ~reduce(operator.or_, (m for m in self._missing if m & mask == m), 0)

    def missing_dims(self) -> frozenset[int]:
        """Dimensions i such that some missing face has cardinality i+1."""
        return frozenset(c - 1 for c in self._by_card)

    def max_missing_dim(self) -> int:
        """Largest missing-face dimension; errors when there is none."""
        if not self._missing:
            raise ValueError("complex has no missing faces; maximal missing dimension undefined")
        return max(self._by_card) - 1

    def contains_mask(self, mask: int) -> bool:
        """True iff no missing face lies inside the vertex set ``mask``;
        one of two or more vertices is filed under its second-largest."""
        if mask & self._singles:
            return False
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            for r, tops in self._by_second.get(low, ()):
                if tops & mask and r & mask == r:
                    return False
        return True

    def _below_faces(self, mask: int, base: int = 0) -> bool:
        """True iff ``mask`` less each one of its vertices, joined with ``base``, is a face."""
        return all(self.contains_mask(mask ^ 1 << v | base) for v in _vertices_of(mask))

    def contains(self, face) -> bool:
        """True iff the vertex set is a face (the empty set always is)."""
        return self.contains_mask(_mask_of(face, self.n))

    def face_masks(self, k: int) -> tuple[int, ...]:
        """Bitmasks of the k-faces, in lexicographic order of their
        vertex tuples.

        Each k-face is a (k-1)-face g extended by a vertex of g's
        extension mask, the vertices above max(g) that extend g to a
        face; extending the (k-1)-faces in their order, the vertex
        ascending, lists the k-faces in lexicographic order.  A step over
        ``MAX_STEP_CANDIDATES`` candidates raises ValueError.
        """
        if k > self._top:
            if k >= self.n:
                return ()
            for j in range(self._top + 1, k + 1):
                self._extend(j)
        return self._masks.get(k, ())

    def _extend(self, k: int) -> None:
        """Enumerate and cache the k-faces' masks from the cached (k-1)-faces'.

        f + v + w (f below v below w) is a face iff f + v and f + w are,
        and no missing face with top w and second-largest vertex v lies
        in f + v + w.  So each (k-1)-face f + v takes the vertices above
        v of its parent f's extension mask, less the tops filed under v
        with a rest inside f + v; only the (k-2)-faces' extension masks
        are kept from the step before.  The budget counts each (k-1)-face
        once per vertex above its largest, an upper bound on the
        extensions tested (and is counted only when n per face would
        exceed it); a step over it is refused before any mask is read."""
        below = self._masks[k - 1]
        if self.n * len(below) > MAX_STEP_CANDIDATES:
            count = self.n * len(below) - sum(map(int.bit_length, below))
            if count > MAX_STEP_CANDIDATES:
                raise ValueError(f"enumerating the {k}-faces tests {count} candidates, above "
                                 f"the budget of {MAX_STEP_CANDIDATES} per step")
        if k == 0:  # the vertices in the empty face's mask
            ext = self._ext
            ms = [1 << v for v in range(self.n) if ext[0] >> v & 1]
        else:  # for each (k-1)-face g = f + v: its mask, then g + w for w in it
            ext, ms = [], []
            for fm, e in zip(self._masks[k - 2], self._ext):
                while e:
                    low = e & -e
                    e ^= low
                    gm, keep = fm | low, e
                    for r, tops in self._by_second.get(low, ()):
                        if r & gm == r:
                            keep &= ~tops
                    ext.append(keep)
                    while keep:
                        wb = keep & -keep
                        keep ^= wb
                        ms.append(gm | wb)
        self._masks[k] = tuple(ms)
        self._ext, self._top = ext, k

    def faces(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-faces as sorted vertex tuples, in lexicographic order: a
        view of :meth:`face_masks`, built afresh on each call."""
        return tuple(map(_vertices_of, self.face_masks(k)))

    def n_faces(self, k: int) -> int:
        """Number of k-faces: 1 in degree -1 (the empty face), 0 below."""
        return len(self.face_masks(k))

    @property
    def dim(self) -> int:
        if self._dim is None:
            if not self._missing:
                self._dim = self.n - 1
            else:
                k = -1
                while self.face_masks(k + 1):
                    k += 1
                self._dim = k
        return self._dim

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Inclusion-maximal faces, sorted: the faces that no one-vertex
        extension keeps a face."""
        return tuple(sorted(_vertices_of(f) for k in range(-1, self.dim + 1)
                            for f in self.face_masks(k) if not self._cofaces(f)))

    # -- local structure ----------------------------------------------

    def degree(self, sigma) -> int:
        """Number of faces one dimension up containing the given face."""
        smask = _mask_of(sigma, self.n)
        if not self.contains_mask(smask):
            raise ValueError(f"{tuple(sorted(sigma))} is not a face")
        return len(self._cofaces(smask))

    def _cofaces(self, mask: int) -> list[int]:
        """The faces ``mask`` + v, one per vertex v outside ``mask``."""
        return [mask | 1 << v for v in range(self.n)
                if not mask >> v & 1 and self.contains_mask(mask | 1 << v)]

    def link(self, sigma) -> "Complex":
        """Link of a face, relabelled to vertices 0..n-|sigma|-1.

        Vertex j of the result is the j-th smallest element of V minus
        sigma.  The minimal non-faces of the link are the minimal sets
        among {mu \\ sigma : mu missing in X}, the g with every g - v + sigma a face.
        """
        smask = _mask_of(sigma, self.n)
        if not self.contains_mask(smask):
            raise ValueError(f"{tuple(sorted(sigma))} is not a face")
        rest = _vertices_of(~smask & ((1 << self.n) - 1))
        gens = {g for g in (m & ~smask for m in self._missing) if self._below_faces(g, smask)}
        return Complex(len(rest), _relabel(gens, rest))

    def induced(self, subset) -> "Complex":
        """Induced subcomplex on a vertex subset, relabelled densely.

        Vertex j of the result is the j-th smallest element of the
        subset; its missing faces are exactly the missing faces of this
        complex contained in the subset.  The subset is validated by
        ``_mask_of``, repeats collapsing.  An empty subset yields the
        degenerate complex on zero vertices (only the empty face).
        """
        umask = _mask_of(subset, self.n, repeats=True)
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
        offset = list(accumulate(counts, initial=0))  # clones of v from offset[v] on
        lifts = []
        for m in self._missing:
            vs = _vertices_of(m)
            for choice in product(*[range(counts[v]) for v in vs]):
                mm = 0
                for v, j in zip(vs, choice):
                    mm |= 1 << (offset[v] + j)
                lifts.append(mm)
        return Complex(offset[-1], lifts)

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

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.n == other.n and self._missing == other._missing

    def __hash__(self) -> int:
        return hash((self.n, self._missing))

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, missing={list(self.missing_faces)!r})"


def _masks_of_size(vertices, r: int):
    """Bitmasks of the r-subsets of ``vertices``, in the order of
    ``combinations(vertices, r)``: a sum of distinct powers of two is
    their union."""
    return map(sum, combinations([1 << v for v in vertices], r))


def _layer_complex(x: Complex, i: int) -> Complex:
    """Build the layer of :meth:`Complex.missing_complex`.  Its missing
    faces are the (i+1)-sets outside the layer and the (i+2)-sets whose
    (i+1)-subsets all lie in it."""
    if i + 1 not in x._by_card:
        raise ValueError(f"no missing faces of dimension {i}")
    count = comb(x.n, i + 1) + comb(x.n, i + 2)
    if count > MAX_STEP_CANDIDATES:
        raise ValueError(f"building the dimension-{i} missing layer lists {count} subsets, "
                         f"above the budget of {MAX_STEP_CANDIDATES}")
    layer = frozenset(x._by_card[i + 1])
    gens = [m for m in _masks_of_size(range(x.n), i + 1) if m not in layer]
    gens += [m for m in _masks_of_size(range(x.n), i + 2)
             if all(m ^ 1 << v in layer for v in _vertices_of(m))]
    return Complex(x.n, gens)


def from_facets(n: int, facets) -> Complex:
    """Complex whose faces are all subsets of the given sets.

    Input sets contained in other input sets are absorbed.  The minimal
    non-faces are derived here so the result round-trips through
    :func:`from_missing_faces`.  The distinct input sets are walked
    largest first, skipping one already listed; each set's subsets are
    listed and tested once per vertex, a running count of the tests is
    checked before each set is, and past ``MAX_STEP_CANDIDATES`` the
    input is refused, naming the count and how many sets were walked.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    inputs = sorted({_mask_of(f, n) for f in facets}, key=lambda m: (-m.bit_count(), m))
    faces, count = {0}, 0
    for i, fm in enumerate(inputs):
        if fm in faces:
            continue
        count += n << fm.bit_count()
        if count > MAX_STEP_CANDIDATES:
            raise _OverBudget(f"listing the subsets of the maximal facets tests {count} candidates "
                              f"({n} per subset), above the budget of {MAX_STEP_CANDIDATES}, "
                              f"after {i + 1} of the {len(inputs)} distinct input sets")
        sub = fm
        while sub:
            faces.add(sub)
            sub = (sub - 1) & fm
    # f + v is a minimal non-face iff it is not a face and f + v - u is
    # one for every u in f
    return Complex(n, {f | 1 << v for f in faces for v in range(n)
                       if not f >> v & 1 and f | 1 << v not in faces
                       and all(f ^ 1 << u | 1 << v in faces for u in _vertices_of(f))})


def intersection(complexes) -> Complex:
    """Face-wise intersection of complexes on one common vertex set.

    A set is a face of the result iff it is a face of every input, so
    the minimal non-faces are the inputs' minimal non-faces m with every
    m - v a face of every input.
    """
    complexes = list(complexes)
    if not complexes:
        raise ValueError("need at least one complex")
    ns = {x.n for x in complexes}
    if len(ns) != 1:
        raise ValueError(f"vertex counts differ: {sorted(ns)}")
    masks = {m for x in complexes for m in x.missing_masks}
    return Complex(complexes[0].n, [m for m in masks if all(y._below_faces(m) for y in complexes)])


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

    def union_of(self, which) -> tuple[int, ...]:
        """Sorted union of the classes with the given indices."""
        return tuple(sorted(v for i in which for v in self.classes[i]))


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

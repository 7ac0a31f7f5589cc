"""Matroids with exact rank oracles and general-position machinery.

Linear matroids over a prime field (modulus checked and columns ranked
by the primality test and modular elimination of ``numerics.rational``,
memoized per vertex-subset bitmask) and uniform matroids, plus the two
finite geometries used as stock examples.  On top of the rank oracle:
closures and flats, circuits, general-position complexes, the integer
and fractional general-position numbers phi and phi-star (the latter an
exact rational LP), a flat-indexed vector representation of the
general-position complex, and Hall-type checkers that search for
colorful general-position sets when the phi / phi-star hypotheses hold,
through the one transversal search and Hall sweep of ``domination``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .complexes import (MAX_STEP_CANDIDATES, Complex, Partition, _mask_of, _masks_of_size,
                        _vertices_of, as_int, from_missing_faces)
from .domination import VectorRepresentation, _hall_sweep, _transversal, index_sets, rep_value
from .numerics.lp import lp_solve_max
from .numerics.rational import SparseRows, _is_prime, _rank_mod
from .reports import CheckRecord, digest, json_field, json_lists

__all__ = [
    "LinearMatroid",
    "UniformMatroid",
    "GpWeighting",
    "MAX_PHI_GROUND",
    "MAX_GP_CLASSES",
    "closure",
    "flats",
    "circuits",
    "is_general_position",
    "gp_by_flat_counts",
    "gp_complex",
    "phi",
    "phi_star",
    "phi_star_weighting",
    "fractional_gp_violations",
    "flat_representation",
    "check_flat_rep_bound",
    "colorful_gp_search",
    "check_gp_hall",
    "check_fractional_gp_hall",
    "ag23_matroid",
    "pg33_matroid",
    "ag23_complex",
    "pg33_complex",
    "matroid_to_json",
    "matroid_from_json",
]

MAX_PHI_GROUND = 24
MAX_GP_CLASSES = 12
#: Most flat supports times elements in one phi_star LP: AG(2,3) has
#: 45 x 9, PG(3,3) 1080 x 40 (thousands of pivots).
MAX_PHI_STAR_ENTRIES = 1 << 12
#: Most subsets the flat scans of one phi_star may test: C(n, k) for each
#: rank k = 1..d.  uniform:5,20 scans 6195 and PG(3,3) 10700, against
#: 174436 for uniform:6,30.
MAX_FLAT_SCAN = 1 << 14
#: Most (flat, sigma) pairs the flat constraints of one phi_star may
#: visit: C(|F n elems|, k - 1) for each rank-k flat F.  PG(3,3) visits
#: 3680, uniform:5,20 23200 and uniform:5,24 49152.
MAX_GP_PAIRS = 1 << 16


def _subset(m, s) -> tuple:
    """The distinct elements of s in increasing order, validated against
    the ground set by ``_mask_of`` (repeats collapse); all of it when s
    is None."""
    return tuple(range(m.n)) if s is None else _vertices_of(_mask_of(s, m.n, repeats=True))


class LinearMatroid:
    """Columns of a matrix over F_p; rank = rank of the chosen columns."""

    __slots__ = ("p", "columns", "n", "label", "_rank_cache", "_flat_cache", "_gp_cache")

    def __init__(self, p: int, columns, label: str | None = None) -> None:
        p = as_int(p, "modulus")
        # the shared primality test and primes stop below 2**31
        if p >= 2**31:
            raise ValueError(f"modulus {p} is not below 2**31")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        cols = tuple(tuple(as_int(e, "column entry") % p for e in c) for c in columns)
        if not cols:
            raise ValueError("need at least one column")
        if len({len(c) for c in cols}) != 1:
            raise ValueError("columns must all have the same height")
        self.p = p
        self.columns = cols
        self.n = len(cols)
        self.label = label
        self._rank_cache = {0: 0}
        self._flat_cache = {}
        self._gp_cache = None

    def rank_mask(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        height = len(self.columns[0])
        rows = [(range(height), self.columns[v]) for v in _vertices_of(mask)]
        r = _rank_mod(SparseRows((len(rows), height), rows), self.p)
        self._rank_cache[mask] = r
        return r

    def rank(self, s) -> int:
        return self.rank_mask(_mask_of(s, self.n, repeats=True))

    @property
    def full_rank(self) -> int:
        return self.rank_mask((1 << self.n) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.label or f"linear(p={self.p})"
        return f"<{tag} matroid on {self.n} elements, rank {self.full_rank}>"


class UniformMatroid:
    """Every set of at most r elements is independent."""

    __slots__ = ("r", "n", "label", "_flat_cache", "_gp_cache")

    def __init__(self, r: int, n: int) -> None:
        r, n = as_int(r, "rank"), as_int(n, "n")
        if n < 1 or not 0 <= r <= n:
            raise ValueError(f"need 0 <= rank <= n, got rank {r}, n {n}")
        self.r = r
        self.n = n
        self.label = None
        self._flat_cache = {}
        self._gp_cache = None

    def rank_mask(self, mask: int) -> int:
        return min(mask.bit_count(), self.r)

    def rank(self, s) -> int:
        return self.rank_mask(_mask_of(s, self.n, repeats=True))

    @property
    def full_rank(self) -> int:
        return self.r

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<uniform matroid U({self.r},{self.n})>"


# -- closure, flats, circuits ------------------------------------------


def _closure_mask(m, mask: int) -> int:
    r = m.rank_mask(mask)
    out = mask
    for v in range(m.n):
        bit = 1 << v
        if not mask & bit and m.rank_mask(mask | bit) == r:
            out |= bit
    return out


def closure(m, s) -> tuple:
    """Every vertex whose addition leaves the rank unchanged."""
    return _vertices_of(_closure_mask(m, _mask_of(s, m.n, repeats=True)))


def flats(m, r: int) -> tuple:
    """All rank-r flats, as closures of independent r-subsets: sorted
    vertex tuples in lexicographic order."""
    if not 0 <= r <= m.full_rank:
        raise ValueError(f"flat rank {r} outside 0..{m.full_rank}")
    cached = m._flat_cache.get(r)
    if cached is not None:
        return cached
    if r == 0:
        masks = {_closure_mask(m, 0)}
    else:
        masks = set()
        inside = set()  # the r-subsets of the flats found so far
        for mask in _masks_of_size(range(m.n), r):
            # an r-subset of a found rank-r flat is dependent or spans it
            if mask in inside:
                continue
            if m.rank_mask(mask) == r:
                flat = _closure_mask(m, mask)
                masks.add(flat)
                inside.update(_masks_of_size(_vertices_of(flat), r))
    fs = tuple(sorted(_vertices_of(mask) for mask in masks))
    m._flat_cache[r] = fs
    return fs


def circuits(m, max_size: int) -> tuple:
    """Minimal dependent sets of at most max_size elements, ascending: the dependent
    faces of the complex missing the smaller ones.  Refused over MAX_STEP_CANDIDATES subsets."""
    count = sum(comb(m.n, size) for size in range(1, max_size + 1))
    if count > MAX_STEP_CANDIDATES:
        raise ValueError(f"listing the circuits of at most {max_size} elements on {m.n} elements "
                         f"scans {count} subsets, above the budget of {MAX_STEP_CANDIDATES}")
    found = []
    for size in range(1, max_size + 1):
        smaller = Complex(m.n, found)
        found += [mask for mask in _masks_of_size(range(m.n), size)
                  if smaller.contains_mask(mask) and m.rank_mask(mask) < size]
    return tuple(map(_vertices_of, found))


# -- general position --------------------------------------------------


def is_general_position(m, s) -> bool:
    """True when every subset of at most full_rank elements is independent.

    Checking the subsets of one maximal size suffices: smaller ones all
    embed in them.
    """
    elems = _subset(m, s)
    t = min(len(elems), m.full_rank)
    return all(m.rank_mask(mask) == t for mask in _masks_of_size(elems, t))


def gp_by_flat_counts(m, s) -> bool:
    """Flat-counting form: no rank-k flat (1 <= k <= d) holds more than k
    points of s.  Agrees with is_general_position on loopless matroids."""
    elems = set(_subset(m, s))
    d = m.full_rank - 1
    for k in range(1, d + 1):
        for f in flats(m, k):
            if len(elems.intersection(f)) > k:
                return False
    return True


def gp_complex(m, u=None) -> Complex:
    """Complex of general-position sets; missing faces are the circuits
    of at most full_rank elements.  With u, the induced subcomplex on u
    (validated as in ``Complex.induced``, vertices relabeled densely in
    sorted order)."""
    if m._gp_cache is None:
        m._gp_cache = from_missing_faces(m.n, circuits(m, m.full_rank))
    x = m._gp_cache
    if u is None:
        return x
    return x.induced(u)


def _extends(m, d: int, chosen, v: int) -> bool:
    """Whether the general-position set ``chosen`` stays in general
    position with v added: v with any t <= d chosen elements has rank
    t + 1."""
    for t in range(min(len(chosen), d) + 1):
        for mask in _masks_of_size(chosen, t):
            if m.rank_mask(mask | 1 << v) != t + 1:
                return False
    return True


def phi(m, s=None) -> int:
    """Largest general-position subset, by branch and bound."""
    elems = _subset(m, s)
    if len(elems) > MAX_PHI_GROUND:
        raise ValueError(f"ground set of {len(elems)} exceeds cap {MAX_PHI_GROUND}")
    return _largest_gp(m, m.full_rank - 1, elems, 0, (), 0)


def _largest_gp(m, d: int, elems, i: int, chosen, best: int) -> int:
    """The branch and bound of ``phi`` from element i on: the larger of
    ``best`` and the largest general-position extension of ``chosen``.
    A module function, not a closure that calls itself, which would be
    a reference cycle keeping ``m`` alive until the cyclic collector runs."""
    best = max(best, len(chosen))
    if i == len(elems) or len(chosen) + len(elems) - i <= best:
        return best
    if _extends(m, d, chosen, elems[i]):
        best = _largest_gp(m, d, elems, i + 1, chosen + (elems[i],), best)
    return _largest_gp(m, d, elems, i + 1, chosen, best)


# -- fractional general position ---------------------------------------


@dataclass(frozen=True)
class GpWeighting:
    """Nonnegative rational weights on a vertex subset."""

    subset: tuple
    weights: tuple

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def as_dict(self) -> dict:
        return dict(zip(self.subset, self.weights))


def _gp_constraint_supports(m, elems) -> tuple:
    """Support sets of the flat constraints: for each rank-k flat F and
    each (k-1)-subset sigma of F, the vertices v with cl(v sigma) = F.
    Two flats of equal rank nested in each other coincide, so the test
    reduces to v in F and rank(sigma + v) = k.  Listing the flats scans
    C(n, k) subsets per rank; over ``MAX_FLAT_SCAN`` in all is refused
    before any is tested.  Once the flats are listed, more than
    ``MAX_GP_PAIRS`` (flat, sigma) pairs in all are refused before any
    pair is tested."""
    d = m.full_rank - 1
    scans = [comb(m.n, k) for k in range(1, d + 1)]
    if sum(scans) > MAX_FLAT_SCAN:
        raise ValueError(f"listing the flats of ranks 1..{d} on {m.n} elements scans "
                         f"{' + '.join(map(str, scans))} = {sum(scans)} subsets, above "
                         f"the budget of {MAX_FLAT_SCAN}")
    elemset = set(elems)
    insides = [[[v for v in f if v in elemset] for f in flats(m, k)] for k in range(1, d + 1)]
    pairs = [sum(comb(len(inside), k - 1) for inside in fs)
             for k, fs in enumerate(insides, start=1)]
    if sum(pairs) > MAX_GP_PAIRS:
        raise ValueError(f"the flat constraints of ranks 1..{d} over {len(elems)} elements visit "
                         f"{' + '.join(map(str, pairs))} = {sum(pairs)} (flat, sigma) pairs, "
                         f"above the budget of {MAX_GP_PAIRS}")
    supports = set()
    for k, fs in enumerate(insides, start=1):
        for inside in fs:
            for smask in _masks_of_size(inside, k - 1):
                support = tuple(v for v in inside
                                if not smask >> v & 1 and m.rank_mask(smask | 1 << v) == k)
                if support:
                    supports.add(support)
    return tuple(sorted(supports))


def _violations(w: GpWeighting, supports, d: int) -> list:
    """Constraints over these supports, each capped at d, that the
    weighting breaks (empty list = feasible)."""
    if any(e < 0 for e in w.weights):
        return ["negative weight"]
    value = w.as_dict()
    out = []
    for support in supports:
        total = sum((value[v] for v in support), Fraction(0))
        if total > d:
            out.append(f"flat constraint over {support}: {total} > {d}")
    return out


def fractional_gp_violations(m, w: GpWeighting) -> list:
    """Flat constraints the weighting breaks (empty list = feasible)."""
    return _violations(w, _gp_constraint_supports(m, w.subset), m.full_rank - 1)


def phi_star_weighting(m, s=None) -> GpWeighting:
    """Optimal fractional general-position weighting, by exact LP.

    The flat constraints start at rank 1, so a loop's weight would be
    unbounded; a loop in the subset is refused."""
    elems = _subset(m, s)
    d = m.full_rank - 1
    if d < 1:
        raise ValueError("matroid rank must be at least 2")
    loop = next((v for v in elems if m.rank_mask(1 << v) == 0), None)
    if loop is not None:
        raise ValueError(f"element {loop} is a loop; phi_star needs a loopless subset")
    pos = {v: i for i, v in enumerate(elems)}
    supports = _gp_constraint_supports(m, elems)
    if len(supports) * len(elems) > MAX_PHI_STAR_ENTRIES:
        raise ValueError(f"the phi_star LP over {len(supports)} flat supports x "
                         f"{len(elems)} elements exceeds the budget of "
                         f"{MAX_PHI_STAR_ENTRIES} entries")
    rows = []
    for support in supports:
        row = [0] * len(elems)
        for v in support:
            row[pos[v]] = 1
        rows.append(row)
    sol = lp_solve_max([1] * len(elems), rows, [d] * len(rows))
    if sol.status != "optimal":
        raise RuntimeError(f"fractional weighting LP ended {sol.status}")
    w = GpWeighting(elems, tuple(sol.x))
    bad = _violations(w, supports, d)
    if bad:
        raise RuntimeError("LP weighting infeasible: " + "; ".join(bad[:3]))
    return w


def phi_star(m, s=None) -> Fraction:
    """Maximum total weight over fractional general-position weightings."""
    elems = _subset(m, s)
    if not elems:
        return Fraction(0)
    return phi_star_weighting(m, elems).total


# -- the flat representation -------------------------------------------


def flat_representation(m, u=None) -> VectorRepresentation:
    """0/1 vectors over the rank-r flats for the general-position complex.

    For an index set sigma of cardinality r-1 the vector of v indicates
    which rank-r flat is spanned by v and sigma (zero when the span has
    lower rank).  Completions of sigma to a missing face share that
    flat, so the inner-product condition holds with value exactly 1.
    """
    verts = _subset(m, u)
    x = gp_complex(m, verts)
    scaled = {}
    for sigma in index_sets(x):
        r = len(sigma) + 1
        layer = flats(m, r)
        col = {f: i for i, f in enumerate(layer)}
        (smask,) = _masks_of_size([verts[i] for i in sigma], len(sigma))
        rows = []
        for vd in range(x.n):
            mask = smask | (1 << verts[vd])
            row = [0] * len(layer)
            if m.rank_mask(mask) == r:
                row[col[_vertices_of(_closure_mask(m, mask))]] = 1
            rows.append(tuple(row))
        scaled[sigma] = (tuple(rows), 1)
    return VectorRepresentation._from_scaled(x, scaled)


def check_flat_rep_bound(m, u=None) -> CheckRecord:
    """phi-star is at most rank-minus-one times the representation value.

    The optimal weighting divided by d is certified dual-feasible for
    the covering LP of the flat representation, so the inequality holds
    by weak duality; both sides are computed independently and compared
    exactly."""
    verts = _subset(m, u)
    d = m.full_rank - 1
    name = "flat_rep_bound"
    inputs = digest(matroid_to_json(m), verts)
    p = flat_representation(m, verts)
    value = rep_value(p)
    w = phi_star_weighting(m, verts)
    target = w.total
    if isinstance(value, float) and math.isinf(value):
        return CheckRecord(name, inputs, target, value, math.inf, True,
                           note="representation value infinite (no index sets)")
    # y = w / d is alpha-feasible when y G_sigma <= 1 for every sigma:
    # in integers, yn G[v] <= den scale**2 with y = yn / den
    y = [w.as_dict()[v] / d for v in verts]
    den = math.lcm(*(f.denominator for f in y))
    yn = [f.numerator * (den // f.denominator) for f in y]
    alpha_ok = all(sum(map(operator.mul, yn, row)) <= den * scale * scale
                   for g, scale in map(p.gram, p.scaled) for row in g)
    rhs = d * value
    passed = alpha_ok and target <= rhs
    return CheckRecord(name, inputs, target, rhs, rhs - target, passed,
                       details={"rep_value": str(value), "alpha_feasible": alpha_ok})


# -- colorful general-position sets ------------------------------------


def colorful_gp_search(m, partition: Partition):
    """Lexicographically first transversal in general position, or None."""
    d = m.full_rank - 1
    return _transversal(partition, MAX_GP_CLASSES, m.n, "ground set",
                        lambda chosen, v: _extends(m, d, chosen, v))


def _gp_threshold(d: int, size: int) -> int:
    return d * sum(r * comb(size - 1, r) for r in range(1, d + 1))


def check_gp_hall(m, partition: Partition) -> CheckRecord:
    """Hall condition on the integer general-position numbers.

    Small unions must beat |I|-1; from d+2 classes on, the threshold
    grows to d * sum r C(|I|-1, r).  When every union clears it, a
    colorful general-position transversal must exist."""
    d = m.full_rank - 1

    def union(which):
        size = len(which)
        threshold = size - 1 if size <= d + 1 else _gp_threshold(d, size)
        return phi(m, partition.union_of(which)), threshold

    return _hall_sweep(partition, MAX_GP_CLASSES, m.n, "ground set", "gp_hall",
                       digest(matroid_to_json(m), partition.classes), "phi", union,
                       lambda: colorful_gp_search(m, partition))


def check_fractional_gp_hall(m, partition: Partition) -> CheckRecord:
    """Hall condition on the fractional general-position numbers: every
    union of classes needs phi-star strictly above d * sum r C(|I|-1, r);
    then a colorful general-position transversal must exist."""
    d = m.full_rank - 1

    def union(which):
        return phi_star(m, partition.union_of(which)), _gp_threshold(d, len(which))

    return _hall_sweep(partition, MAX_GP_CLASSES, m.n, "ground set", "fractional_gp_hall",
                       digest(matroid_to_json(m), partition.classes), "phi-star", union,
                       lambda: colorful_gp_search(m, partition))


# -- stock geometries --------------------------------------------------


def ag23_matroid() -> LinearMatroid:
    """Nine columns (x, y, 1) over F_3; element index is 3x + y."""
    cols = [(x, y, 1) for x in range(3) for y in range(3)]
    return LinearMatroid(3, cols, label="AG23")


def pg33_matroid() -> LinearMatroid:
    """The 40 projective points of F_3^4: nonzero vectors normalized to
    leading coordinate 1, in lexicographic order."""
    cols = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(3):
                    vec = (a, b, c, e)
                    nz = next((x for x in vec if x), None)
                    if nz == 1:
                        cols.append(vec)
    return LinearMatroid(3, cols, label="PG33")


def ag23_complex() -> Complex:
    """General-position complex of the nine-point affine plane: missing
    faces are its twelve lines."""
    return gp_complex(ag23_matroid())


def pg33_complex() -> Complex:
    """Forty vertices; missing faces are the 520 collinear triples (three
    points from any of the 130 lines).  The line through points a and b
    holds the points a + b and a - b as well, once normalized, so the
    lines come straight from the coordinates."""
    m = pg33_matroid()
    index = {c: i for i, c in enumerate(m.columns)}

    def point(vec):
        lead = pow(next(e for e in vec if e), -1, m.p)
        return index[tuple(e * lead % m.p for e in vec)]

    triples = set()
    for a, b in combinations(m.columns, 2):
        line = {index[a], index[b],
                point([u + w for u, w in zip(a, b)]), point([u - w for u, w in zip(a, b)])}
        triples.update(combinations(sorted(line), 3))
    return from_missing_faces(m.n, sorted(triples))


#: The stock geometries by the name that both their JSON, ``{"kind":
#: "builtin", "name": ...}``, and the CLI token ``builtin:NAME`` give.
BUILTIN_MATROIDS = {"AG23": ag23_matroid, "PG33": pg33_matroid}


def builtin_matroid(name):
    """The stock geometry called ``name``; a ValueError for any other."""
    make = BUILTIN_MATROIDS.get(name) if isinstance(name, str) else None
    if make is None:
        raise ValueError(f"unknown builtin matroid {name!r}")
    return make()


# -- JSON boundary -----------------------------------------------------


def matroid_to_json(m) -> str:
    if getattr(m, "label", None) in BUILTIN_MATROIDS:
        doc = {"kind": "builtin", "name": m.label}
    elif isinstance(m, UniformMatroid):
        doc = {"kind": "uniform", "rank": m.r, "n": m.n}
    elif isinstance(m, LinearMatroid):
        doc = {"kind": "linear", "p": m.p, "columns": [list(c) for c in m.columns]}
    else:
        raise TypeError(f"cannot serialize {type(m).__name__}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def matroid_from_json(text: str):
    doc = json.loads(text)
    kind = json_field(doc, "kind", "matroid")
    if kind == "linear":
        return LinearMatroid(json_field(doc, "p", "matroid"), json_lists(doc, "columns", "matroid"))
    if kind == "uniform":
        return UniformMatroid(json_field(doc, "rank", "matroid"), json_field(doc, "n", "matroid"))
    if kind == "builtin":
        return builtin_matroid(doc.get("name"))
    raise ValueError(f"unknown matroid kind {kind!r}")

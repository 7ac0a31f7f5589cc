"""Total domination, vector representations and Hall-type machinery.

A totally dominating set S serves every vertex v through some face
sigma inside S whose extension by v leaves the complex; equivalently,
some missing face contains v and otherwise sits inside S.  The vector
side assigns to each index set sigma (one cardinality below each
missing dimension) a nonnegative rational matrix of vertex vectors,
constrained so that pairs completing sigma to a missing face have inner
product at least one.  Integer rows are the stored form: each index
set's rows times the lcm d of their denominators.  The constructor
scales the int and Fraction rows it is given; the in-library builders
(``all_ones_representation``, ``randomgen.random_representation``,
``matroids.flat_representation``) hand over integer rows directly.
Inner products are integer Gram entries over d**2, each Gram matrix
built once, so validation, the covering check of the dominating family,
the eigenvalue bound and the covering LP all run on integers.  The
representation's value |P| is that covering LP, solved exactly, with
one column per distinct (cost, column) pair; the one solve also
returns its single-vector packing dual, and the solver's certificate
checks the two as a pair (both feasible, complementary slackness, the
value equal to both objectives).  Everything downstream (domination bounds,
connectivity bounds, Hall-type colorful-simplex conditions) consumes
that exact rational value.

The Hall-type checks here and in ``matroids`` share one depth-first
colorful-transversal search, pruned on each prefix.  All but the colorful
Hall check also share one Hall sweep over the unions of classes; that
check has its own sweep, which finishes each size level.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from itertools import combinations
from math import comb

from .complexes import Complex, Partition, _mask_of, _vertices_of, as_vertex
from .homology import eta, missing_top_eigenvalue
# lp_solve_max is not called here any more; perfbench's tracer tests
# still look it up as scx.domination.lp_solve_max
from .numerics import LpProblem, lp_solve, lp_solve_max  # noqa: F401
from .reports import CheckRecord, digest, jsonable

__all__ = [
    "VectorRepresentation",
    "total_domination",
    "index_sets",
    "validate_representation",
    "all_ones_representation",
    "rep_value",
    "dominating_alpha_from_tds",
    "check_domination_bound",
    "check_connectivity_bound",
    "check_rep_eigen_bound",
    "colorful_simplex_search",
    "check_colorful_hall",
    "check_representation_hall",
]

#: Largest class count accepted by the 2^m Hall sweeps.
MAX_PARTITION_CLASSES = 20
#: Most vertices the total domination search accepts.
MAX_DOMINATION_VERTICES = 22


# -- total domination --------------------------------------------------


def _dominates(x: Complex, s) -> bool:
    """Whether S serves every vertex, in one pass over the missing faces:
    one inside S serves each of its vertices, and one with a single
    vertex outside S serves that vertex."""
    smask = sum(1 << v for v in s)
    served = 0
    for m in x.missing_masks:
        out = m & ~smask
        if out & (out - 1) == 0:  # at most one vertex outside S
            served |= out or m
    return served == (1 << x.n) - 1


def _dominating_sets(x: Complex, size: int):
    """Totally dominating sets of the given size, lexicographically."""
    return (s for s in combinations(range(x.n), size) if _dominates(x, s))


def total_domination(x: Complex):
    """Minimum size of a totally dominating set, or inf when none exists.

    A set S works iff every vertex v has a face sigma inside S with
    v+sigma not a face; minimal witnesses are missing faces through v,
    so feasibility requires every vertex to lie in some missing face.
    """
    if x.apexes:
        return math.inf
    if x.n > MAX_DOMINATION_VERTICES:
        raise ValueError(f"vertex count {x.n} above search cap {MAX_DOMINATION_VERTICES}")
    for size in range(1, x.n + 1):
        if next(_dominating_sets(x, size), None) is not None:
            return size
    return math.inf  # pragma: no cover - full V always works when feasible


# -- vector representations -------------------------------------------


def index_sets(x: Complex) -> tuple:
    """Vertex sets one cardinality below each missing dimension.

    For every missing dimension i >= 1 this contributes all subsets of
    cardinality i-1; two extra vertices then complete such a set to a
    candidate missing face.  Listed once per complex.
    """
    key = ("index-sets",)
    if key not in x._memo:
        out = []
        for i in sorted(x.missing_dims()):
            if i < 1:
                continue
            out.extend(combinations(range(x.n), i - 1))
        x._memo[key] = tuple(sorted(set(out), key=lambda s: (len(s), s)))
    return x._memo[key]


def _entry(e, sigma) -> Fraction:
    if isinstance(e, bool):
        raise ValueError(f"sigma={sigma}: entry {e!r} is a bool, not a number")
    if not isinstance(e, numbers.Rational):
        raise ValueError(f"sigma={sigma}: entry {e!r} is not an int or a Fraction")
    return Fraction(e)


def _scale(rows, sigma) -> tuple:
    """(integer rows, d): the rows times d, the lcm of their denominators."""
    rows = [[_entry(e, sigma) for e in row] for row in rows]
    d = math.lcm(*(e.denominator for row in rows for e in row))
    return tuple(tuple(e.numerator * (d // e.denominator) for e in row) for row in rows), d


class VectorRepresentation:
    """Nonnegative rational vertex vectors for each index set of a complex.

    ``scaled`` is the stored form: each index set's rows times d as
    integers, with d the lcm of their denominators, so inner products
    are exact integers over d**2.  The constructor scales rows of ints
    and Fractions; the in-library builders hand over integer rows
    directly through ``_from_scaled``.  Either way the representation is
    validated before it is returned.
    """

    __slots__ = ("complex", "scaled", "_gram")

    def __init__(self, x: Complex, matrices) -> None:
        scaled = {}
        for sigma, rows in matrices.items():
            key = tuple(sorted(as_vertex(v) for v in sigma))
            scaled[key] = _scale(rows, key)
        self._init(x, scaled)

    @classmethod
    def _from_scaled(cls, x: Complex, scaled: dict) -> VectorRepresentation:
        """From ``{sigma: (integer rows, d)}`` in the stored form: sigma
        sorted, d the lcm of the denominators of the rows over d."""
        p = cls.__new__(cls)
        p._init(x, scaled)
        return p

    def _init(self, x: Complex, scaled: dict) -> None:
        self.complex = x
        self.scaled = scaled
        self._gram = {}
        ok, violations = validate_representation(self, x)
        if not ok:
            raise ValueError("invalid representation: " + "; ".join(violations[:5]))

    def gram(self, sigma) -> tuple:
        """(G, d): the integer Gram matrix of sigma's scaled rows and
        their scale; the vectors of v and w have product G[v][w] / d**2."""
        sigma = tuple(sigma)
        g = self._gram.get(sigma)
        if g is None:
            rows, d = self.scaled[sigma]
            # the upper triangle, mirrored
            full = [[0] * len(rows) for _ in rows]
            for i, a in enumerate(rows):
                gi = full[i]
                for j in range(i, len(rows)):
                    gi[j] = full[j][i] = sum(map(operator.mul, a, rows[j]))
            g = self._gram[sigma] = (tuple(map(tuple, full)), d)
        return g


def _completions(x: Complex) -> tuple:
    """(sigma, pairs): each index set sigma with the pairs v < w that
    complete it to a missing face; listed once per complex."""
    key = ("completions",)
    if key not in x._memo:
        pairs = {}
        for mu in x.missing_faces:
            for sigma in combinations(mu, len(mu) - 2):
                pairs.setdefault(sigma, []).append(tuple(sorted(set(mu) - set(sigma))))
        x._memo[key] = tuple((sigma, tuple(vw)) for sigma, vw in pairs.items())
    return x._memo[key]


def validate_representation(p: VectorRepresentation, x: Complex):
    """Exact check of shapes, nonnegativity and the inner-product lower
    bounds on missing-face completions, on the integer-scaled rows: a
    product is at least one when G[v][w] >= d**2.  Returns (ok,
    violations)."""
    violations = []
    expected = index_sets(x)
    got = tuple(sorted(p.scaled, key=lambda s: (len(s), s)))
    if got != expected:
        return False, [f"index sets mismatch: expected {expected}, got {got}"]
    for sigma, (rows, _) in p.scaled.items():
        if len(rows) != x.n:
            violations.append(f"sigma={sigma}: need {x.n} rows, got {len(rows)}")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            violations.append(f"sigma={sigma}: ragged rows")
        if any(e < 0 for r in rows for e in r):
            violations.append(f"sigma={sigma}: negative entry")
    if violations:
        return False, violations
    for sigma, pairs in _completions(x):
        g, d = p.gram(sigma)
        dd = d * d
        for v, w in pairs:
            if g[v][w] < dd:
                violations.append(
                    f"sigma={sigma}: vectors {v},{w} have product {Fraction(g[v][w], dd)} < 1"
                )
    return not violations, violations


def all_ones_representation(x: Complex) -> VectorRepresentation:
    """One-dimensional vectors, every entry 1 — valid on any complex."""
    ones = ((1,),) * x.n
    return VectorRepresentation._from_scaled(x, {sigma: (ones, 1) for sigma in index_sets(x)})


def rep_value(p: VectorRepresentation):
    """The value |P|: exact optimum of the covering LP.

    Solves the primal (one nonnegative weight vector per index set,
    weighted Gram rows covering every vertex) once, exactly.  Every
    cost is positive, so the all-slack basis is dual feasible and
    ``lp_solve`` runs its dual simplex from there.  Its dual
    y is the single-vector packing optimum (y >= 0, y G_sigma <= 1 for
    every sigma, sum y = |P|); ``lp_solve`` certifies x and y as a pair
    before returning, so no second solve is needed.  With no index sets
    the primal is infeasible and the value is +inf.

    The LP is built on integers: the weight of (sigma, v) is rescaled so
    that its column is G[v] and its cost d**2, both divided by their
    gcd.  That is the column the solver's own scaling makes of the
    rational column G[v] / d**2 with cost 1, so the tableau, the pivot
    path and the value are those of the rational covering LP.  Only the
    first copy of each (cost, column) pair is kept: a later copy has the
    same tableau column and reduced cost, so Bland's rule, which breaks
    ties to the smaller column, never lets it enter.  The pivot path
    (columns renamed), the duals and the value are unchanged, and an
    all-ones or width-1 representation leaves one column per index set
    at most.
    """
    if not p.scaled:
        return math.inf
    # primal: min sum alpha  s.t.  sum_sigma G_sigma^T alpha_sigma >= 1,
    # column (sigma, v) being row v of the symmetric G_sigma
    columns = {}
    for sigma in sorted(p.scaled, key=lambda s: (len(s), s)):
        g, d = p.gram(sigma)
        dd = d * d
        for col in g:
            k = math.gcd(dd, *col)
            pair = (dd // k, tuple(e // k for e in col)) if k > 1 else (dd, col)
            columns.setdefault(pair, None)
    cost = [c for c, _ in columns]
    primal = lp_solve(LpProblem(cost, list(zip(*(col for _, col in columns))),
                                [1] * p.complex.n))
    if primal.status != "optimal":  # pragma: no cover - all-ones scaling is feasible
        raise RuntimeError(f"covering LP {primal.status}; representation invalid?")
    return primal.value


def dominating_alpha_from_tds(s, p: VectorRepresentation):
    """The explicit dominating family built from a totally dominating set.

    Requires every missing face to have one common dimension d; the
    family puts weight 1/d on the vertices of S minus sigma, for index
    sets inside S.  S is a vertex subset (repeats collapse).  Verifies
    domination and that the total weight is C(|S|, d).
    """
    x = p.complex
    s = _vertices_of(_mask_of(s, x.n, repeats=True))
    dims = x.missing_dims()
    if len(dims) != 1:
        raise ValueError(f"missing faces must share one dimension, got {sorted(dims)}")
    d = next(iter(dims))
    if d < 1:
        raise ValueError("missing faces must have dimension at least 1")
    if not _dominates(x, s):
        raise ValueError(f"{s} is not totally dominating")
    sset = set(s)
    # the vertices of S minus sigma, for each index set sigma inside S
    support = {sigma: [v for v in s if v not in sigma]
               for sigma in index_sets(x) if sset.issuperset(sigma)}
    weighted = sum(map(len, support.values()))
    if weighted != d * comb(len(s), d):
        raise RuntimeError(f"weight {Fraction(weighted, d)} != C({len(s)},{d})")
    # vertex w is covered when the sum of G_sigma[v][w] / (d scale**2)
    # over the family is at least 1; summed in integers over d * big,
    # big the lcm of the squared scales
    grams = [(support[sigma], *p.gram(sigma)) for sigma in support]
    big = math.lcm(*(scale * scale for _, _, scale in grams))
    for w in range(x.n):
        cover = sum(big // (scale * scale) * sum(g[v][w] for v in vs)
                    for vs, g, scale in grams)
        if cover < d * big:
            raise RuntimeError(f"constructed family fails to dominate vertex {w}")
    one, zero = Fraction(1, d), Fraction(0)
    alpha = {}
    for sigma in index_sets(x):
        vs = support.get(sigma, ())
        alpha[sigma] = tuple(one if v in vs else zero for v in range(x.n))
    return alpha


# -- theorem checkers --------------------------------------------------


def check_domination_bound(x: Complex, p: VectorRepresentation | None = None) -> CheckRecord:
    """|P| is at most C(gamma-tilde, d) when all missing faces share
    dimension d: exact rationals against the brute-forced gamma-tilde,
    with the proof's explicit family revalidated along the way."""
    dims = x.missing_dims()
    if len(dims) != 1 or min(dims) < 1:
        raise ValueError(f"missing faces must share one dimension >= 1, got {sorted(dims)}")
    d = next(iter(dims))
    if p is None:
        p = all_ones_representation(x)
    name = "domination_bound"
    inputs = digest(x.n, x.missing_masks)
    gamma = total_domination(x)
    if math.isinf(gamma):
        return CheckRecord(name, inputs, None, None, math.inf, True,
                           note="vacuous: no totally dominating set")
    value = rep_value(p)
    bound = comb(gamma, d)
    # raises if the construction breaks
    dominating_alpha_from_tds(next(_dominating_sets(x, gamma)), p)
    return CheckRecord(name, inputs, value, bound, bound - value, value <= bound,
                       details={"gamma_tilde": gamma, "d": d})


def check_connectivity_bound(x: Complex, p: VectorRepresentation | None = None) -> CheckRecord:
    """sum over missing dimensions r of r C(eta, r) bounds |P| from above
    (one-sided: |P| never exceeds the representation supremum)."""
    if p is None:
        p = all_ones_representation(x)
    name = "connectivity_bound"
    inputs = digest(x.n, x.missing_masks)
    e = eta(x)
    if math.isinf(e):
        return CheckRecord(name, inputs, None, None, math.inf, True,
                           note="vacuous: infinite connectivity")
    value = rep_value(p)
    lhs = sum(r * comb(e, r) for r in x.missing_dims() if r >= 1)
    if isinstance(value, float) and math.isinf(value):
        return CheckRecord(name, inputs, lhs, value, -math.inf, False,
                           note="representation value infinite with finite connectivity")
    return CheckRecord(name, inputs, lhs, value, lhs - value, value <= lhs,
                       details={"eta": e})


def check_rep_eigen_bound(x: Complex, p: VectorRepresentation | None = None,
                          tol: float = 1e-9) -> CheckRecord:
    """Missing-layer top eigenvalues against i times the largest scaled
    vector product of the representation."""
    if p is None:
        p = all_ones_representation(x)
    name = "rep_eigen_bound"
    inputs = digest(x.n, x.missing_masks)
    dims = [i for i in sorted(x.missing_dims()) if i >= 1]
    if not dims:
        return CheckRecord(name, inputs, None, None, math.inf, True,
                           note="vacuous: no missing dimensions above 0")
    per_dim = {}
    passed = True
    worst = math.inf
    for i in dims:
        lam = missing_top_eigenvalue(x, i)
        best = Fraction(0)
        for sigma in combinations(range(x.n), i - 1):
            # column sums and products on the integer rows, over d**2
            rows, d = p.scaled[sigma]
            col_sum = [sum(col) for col in zip(*rows)]
            top = max((sum(map(operator.mul, row, col_sum)) for row in rows), default=0)
            best = max(best, Fraction(top, d * d))
        bound = i * best
        margin = float(bound) - lam
        per_dim[i] = {"top_eig": lam, "bound": str(bound)}
        passed = passed and margin >= -tol
        worst = min(worst, margin)
    return CheckRecord(name, inputs, None, None, worst, passed, details=per_dim)


# -- colorful simplices ------------------------------------------------


def _check_partition(partition: Partition, cap: int, n: int, ground: str) -> None:
    """Refuse a partition with more than ``cap`` classes or a vertex
    outside 0..n-1 (the ``ground``)."""
    if partition.m > cap:
        raise ValueError(f"{partition.m} classes, more than {cap}")
    if any(v < 0 or v >= n for cl in partition.classes for v in cl):
        raise ValueError(f"partition vertex outside the {ground}")


def _transversal(partition: Partition, cap: int, n: int, ground: str, accepts):
    """First transversal of the classes, sorted, whose vertices a
    depth-first walk admits one by one through ``accepts(prefix, v)``;
    None if there is none.  The walk follows ``product(*classes)`` order,
    so for a property closed under subsets (a face, a general-position
    set) it returns the first transversal in that order having it."""
    _check_partition(partition, cap, n, ground)
    return _walk(partition.classes, accepts, ())


def _walk(classes, accepts, chosen):
    """The depth-first walk of ``_transversal`` below the prefix
    ``chosen``.  A module function, not a closure: a closure that calls
    itself is a reference cycle, which would keep everything ``accepts``
    holds (a complex and its memo) alive until the cyclic collector runs."""
    if len(chosen) == len(classes):
        return tuple(sorted(chosen))
    for v in classes[len(chosen)]:
        if accepts(chosen, v):
            found = _walk(classes, accepts, chosen + (v,))
            if found is not None:
                return found
    return None


def _hall_sweep(partition: Partition, cap: int, n: int, ground: str, name: str,
                inputs: str, label: str, union, search) -> CheckRecord:
    """Every union of classes, by size then lexicographically, needs
    ``union(which)`` = (value, threshold) with the value above the
    threshold; the first that is not makes the check not applicable.
    Otherwise ``search()`` must find a colorful transversal.  The
    partition is checked before any union is evaluated."""
    _check_partition(partition, cap, n, ground)
    values = {}
    for size in range(1, partition.m + 1):
        for which in combinations(range(partition.m), size):
            value, threshold = union(which)
            values[",".join(map(str, which))] = [jsonable(value), threshold]
            if not value > threshold:
                return CheckRecord(name, inputs, None, None, None, True,
                                   note=f"not applicable: {label} {value} <= threshold "
                                        f"{threshold} for classes {which}",
                                   details={"values": values})
    found = search()
    return CheckRecord(name, inputs, None, None, None, found is not None,
                       details={"values": values, "found": found})


def colorful_simplex_search(z: Complex, partition: Partition):
    """First transversal of the classes that is a face, or None."""
    return _transversal(partition, MAX_PARTITION_CLASSES, z.n, "complex",
                        lambda chosen, v: z.contains(chosen + (v,)))


def check_colorful_hall(z: Complex, partition: Partition) -> CheckRecord:
    """If every union of classes is connected one step deeper than the
    number of classes joined, a colorful simplex must exist."""
    _check_partition(partition, MAX_PARTITION_CLASSES, z.n, "complex")
    name = "colorful_hall"
    inputs = digest(z.n, z.missing_masks, partition.classes)
    m = partition.m
    etas = {}
    hypothesis = True
    witness = None
    for size in range(1, m + 1):
        for which in combinations(range(m), size):
            union = partition.union_of(which)  # a cone when it has an apex, so eta = inf
            e = math.inf if z.apexes_in(sum(1 << v for v in union)) else eta(z.induced(union))
            etas[",".join(map(str, which))] = e
            if not e >= size:
                hypothesis = False
                witness = which
        if not hypothesis:
            break
    if not hypothesis:
        return CheckRecord(name, inputs, None, None, None, True,
                           note=f"not applicable: hypothesis fails for classes {witness}",
                           details={"etas": etas})
    found = colorful_simplex_search(z, partition)
    return CheckRecord(name, inputs, None, None, None, found is not None,
                       details={"etas": etas, "found": found})


def check_representation_hall(x: Complex, partition: Partition, reps=None) -> CheckRecord:
    """Hall condition with representation values as connectivity proxies.

    For every union of classes, |P| of the induced subcomplex must
    strictly exceed sum_r r C(|I|-1, r); when that holds throughout, a
    colorful simplex must exist.  Representations default to all-ones
    and may be supplied per class index set.
    """

    def union(which):
        sub = x.induced(partition.union_of(which))
        p = None if reps is None else reps.get(frozenset(which))
        value = rep_value(p if p is not None else all_ones_representation(sub))
        return value, sum(r * comb(len(which) - 1, r) for r in sub.missing_dims() if r >= 1)

    return _hall_sweep(partition, MAX_PARTITION_CLASSES, x.n, "complex", "representation_hall",
                       digest(x.n, x.missing_masks, partition.classes), "value", union,
                       lambda: colorful_simplex_search(x, partition))

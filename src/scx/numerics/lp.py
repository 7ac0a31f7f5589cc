"""Exact rational linear programming with duality certificates.

Solves  min c.x  s.t.  A x >= b, x >= 0  by a two-phase primal simplex
on the standard-form tableau with Bland's anti-cycling rule (always on;
no performance pivoting).  Every optimal solve returns both a primal and
a dual vector and asserts, in exact arithmetic, primal feasibility, dual
feasibility, complementary slackness and c.x = b.y before returning.

The tableau is kept as integer numerators over one common denominator
(the basis determinant) and pivoted fraction-free (Bareiss), after
scaling the columns, the right-hand side and the objective to integers.
The pivot path is the one Bland's rule takes on the rational tableau;
the public API returns Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["LpProblem", "LpSolution", "lp_solve", "lp_solve_max"]


@dataclass(frozen=True)
class LpProblem:
    """min c.x  subject to  A x >= b,  x >= 0 (all data rational)."""

    c: tuple
    A: tuple
    b: tuple

    def __init__(self, c, A, b) -> None:
        cf = tuple(Fraction(e) for e in c)
        Af = tuple(tuple(Fraction(e) for e in row) for row in A)
        bf = tuple(Fraction(e) for e in b)
        if len(Af) != len(bf):
            raise ValueError("A and b row counts differ")
        if any(len(row) != len(cf) for row in Af):
            raise ValueError("A column count does not match c")
        object.__setattr__(self, "c", cf)
        object.__setattr__(self, "A", Af)
        object.__setattr__(self, "b", bf)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: tuple | None
    y: tuple | None


def _pivot(N, den, basis, r, j):
    """Fraction-free (Bareiss) pivot on entry (r, j); returns the new
    common denominator.

    The tableau is N / den.  Every row but r becomes
    (N[i] * p - N[i][j] * N[r]) / den with p = N[r][j]; the division is
    exact because each entry is then a minor of the scaled constraint
    matrix, and p is the new basis determinant.  All rows are negated
    when p < 0 so that den stays positive and entry signs are tableau
    signs.
    """
    pr = N[r]
    p = pr[j]
    for i, row in enumerate(N):
        if i == r:
            continue
        f = row[j]
        if f:
            N[i] = [(a * p - f * b) // den for a, b in zip(row, pr)]
        elif p != den:
            N[i] = [a * p // den for a in row]
    if p < 0:
        N[:] = [[-a for a in row] for row in N]
        p = -p
    basis[r] = j
    return p


def _run_simplex(N, den, basis, limit):
    """Bland's rule on columns [0, limit); N[-1] is the cost row.
    Returns (status, den)."""
    m = len(basis)
    while True:
        cost = N[-1]
        enter = next((j for j in range(limit) if cost[j] < 0), None)
        if enter is None:
            return "optimal", den
        leave = None
        for i in range(m):
            t = N[i][enter]
            if t > 0:
                rhs = N[i][-1]
                # ratios rhs/t compared by cross-multiplying (t > 0),
                # ties broken by the smaller basic index
                if leave is None or rhs * lt < lrhs * t or (
                    rhs * lt == lrhs * t and basis[i] < basis[leave]
                ):
                    leave, lrhs, lt = i, rhs, t
        if leave is None:
            return "unbounded", den
        den = _pivot(N, den, basis, leave, enter)


def _lcm_of_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def lp_solve(p: LpProblem) -> LpSolution:
    """Two-phase exact simplex; see module docstring for guarantees."""
    m = len(p.b)
    n = len(p.c)
    # scaled problem on integers: column j of A times kappa[j], b times
    # beta, c times mu (and kappa).  Positive scalings keep every Bland
    # entering choice and every ratio-test argmin, so the pivot path is
    # that of the unscaled tableau.
    kappa = [_lcm_of_denominators(row[j] for row in p.A) for j in range(n)]
    beta = _lcm_of_denominators(p.b)
    mu = _lcm_of_denominators(cj * k for cj, k in zip(p.c, kappa))
    pos_rhs = [bi > 0 for bi in p.b]  # rows kept as-is; the rest are negated
    # equality form: rows with b>0 keep  A x - s = b  (artificial basic),
    # rows with b<=0 are negated to  -A x + s = -b  (slack basic).
    art_rows = [i for i in range(m) if pos_rhs[i]]
    art_start = n + m
    ncols = n + m + len(art_rows)
    N = []
    art_of = {}
    basis = [0] * m
    for i in range(m):
        sgn = 1 if pos_rhs[i] else -1
        row = [sgn * a.numerator * (k // a.denominator) for a, k in zip(p.A[i], kappa)]
        row += [0] * (ncols + 1 - n)
        row[n + i] = -sgn
        row[-1] = sgn * p.b[i].numerator * (beta // p.b[i].denominator)
        if pos_rhs[i]:
            art_of[i] = basis[i] = art_start + len(art_of)
            row[basis[i]] = 1
        else:
            basis[i] = n + i
        N.append(row)
    # phase 1: minimize the sum of artificials (den is 1 on the identity basis)
    cost = [0] * (ncols + 1)
    for i in art_rows:
        cost[art_of[i]] = 1
        cost = [a - b for a, b in zip(cost, N[i])]
    N.append(cost)
    status, den = _run_simplex(N, 1, basis, ncols)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase-1 simplex reported unbounded")
    if N[-1][-1] != 0:
        return LpSolution("infeasible", None, None, None)
    # drive artificials out of the basis where possible, then bar them
    for r in range(m):
        if basis[r] >= art_start:
            j = next((j for j in range(art_start) if N[r][j] != 0), None)
            if j is not None:
                den = _pivot(N, den, basis, r, j)
    # phase 2: the real objective, reduced as den*c0 - sum c0[bv]*N[r]
    c0 = [cj.numerator * (mu * k // cj.denominator) for cj, k in zip(p.c, kappa)]
    cost = [den * cj for cj in c0] + [0] * (ncols + 1 - n)
    for r, bv in enumerate(basis):
        if bv < n and c0[bv]:
            f = c0[bv]
            cost = [a - f * b for a, b in zip(cost, N[r])]
    N[-1] = cost
    status, den = _run_simplex(N, den, basis, art_start)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None)
    cost = N[-1]
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(kappa[bv] * N[r][-1], den * beta)
    # duals read off the reduced costs of each row's initial identity column
    y = []
    for i in range(m):
        if pos_rhs[i]:
            y.append(Fraction(-cost[art_of[i]], den * mu))
        else:
            y.append(Fraction(cost[n + i], den * mu))
    val = Fraction(-cost[-1], den * mu * beta)
    _certify(p, val, x, y)
    return LpSolution("optimal", val, tuple(x), tuple(y))


def _certify(p: LpProblem, value, x, y) -> None:
    n = len(p.c)
    slack = []
    for i, row in enumerate(p.A):
        s = sum(a * xj for a, xj in zip(row, x)) - p.b[i]
        if s < 0:
            raise RuntimeError("LP certification failed: primal infeasible")
        slack.append(s)
    if any(xj < 0 for xj in x):
        raise RuntimeError("LP certification failed: negative primal variable")
    if any(yi < 0 for yi in y):
        raise RuntimeError("LP certification failed: negative dual variable")
    red = []
    for j in range(n):
        rc = p.c[j] - sum(y[i] * p.A[i][j] for i in range(len(y)))
        if rc < 0:
            raise RuntimeError("LP certification failed: dual infeasible")
        red.append(rc)
    if sum(c * xj for c, xj in zip(p.c, x)) != value:
        raise RuntimeError("LP certification failed: objective mismatch")
    if sum(b * yi for b, yi in zip(p.b, y)) != value:
        raise RuntimeError("LP certification failed: strong duality violated")
    if any(xj * rc != 0 for xj, rc in zip(x, red)):
        raise RuntimeError("LP certification failed: complementary slackness (primal)")
    if any(yi * s != 0 for yi, s in zip(y, slack)):
        raise RuntimeError("LP certification failed: complementary slackness (dual)")


def lp_solve_max(c, A, b) -> LpSolution:
    """max c.x  s.t.  A x <= b, x >= 0, with the same exact guarantees.

    Solved as min (-c).x s.t. (-A) x >= (-b); the returned value and
    duals are re-oriented for the maximization problem (y >= 0 with
    y.A >= c certificates become  value = b.y  by the same strong
    duality identity).
    """
    neg_c = [-Fraction(e) for e in c]
    neg_A = [[-Fraction(e) for e in row] for row in A]
    neg_b = [-Fraction(e) for e in b]
    sol = lp_solve(LpProblem(neg_c, neg_A, neg_b))
    if sol.status != "optimal":
        return sol
    return LpSolution("optimal", -sol.value, sol.x, sol.y)

"""Exact rational linear programming with duality certificates.

One dual simplex solves every LP, in covering form:  min c.x  s.t.
A x >= b, x >= 0  with c >= 0 (``lp_solve``; b may have any sign).  It
starts from the slack basis of  -A x + s = -b, which c >= 0 makes dual
feasible, and pivots by Bland's anti-cycling rule (always on; no
performance pivoting).  A packing LP  max c.x  s.t.  A x <= b, x >= 0
with b >= 0 (``lp_solve_max``) is solved as its covering dual
min b.y  s.t.  A^T y >= c, y >= 0, and the two vectors swap roles.  A
negative cost (or, for ``lp_solve_max``, a negative right-hand side) is
refused with a ValueError.  Every optimal solve returns both a primal
and a dual vector and certifies them, exactly, before returning: primal
feasibility, dual feasibility, complementary slackness and c.x = b.y;
the covering certificate is the packing one read the other way.

The columns, the right-hand side and the objective are first scaled to
integers.  The tableau is kept as integer numerators over one common
denominator (the basis determinant) and pivoted fraction-free
(Bareiss); the pivot path is the one Bland's rule takes on the rational
tableau.  The certificate is checked in integer arithmetic on the same
scaled system, and only the returned value, x and y are Fractions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["LpProblem", "LpSolution", "lp_solve", "lp_solve_max"]


def _rational(e):
    return e if type(e) is int else Fraction(e)


@dataclass(frozen=True)
class LpProblem:
    """min c.x  subject to  A x >= b,  x >= 0 (all data rational; int
    entries stay ints, every other entry becomes a Fraction)."""

    c: tuple
    A: tuple
    b: tuple

    def __init__(self, c, A, b) -> None:
        cf = tuple(map(_rational, c))
        Af = tuple(tuple(map(_rational, row)) for row in A)
        bf = tuple(map(_rational, b))
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


def _lcm_of_denominators(values) -> int:
    return math.lcm(*[v.denominator for v in values])


def lp_solve(p: LpProblem) -> LpSolution:
    """Exact dual simplex from the slack basis; see module docstring."""
    m = len(p.b)
    n = len(p.c)
    if any(cj < 0 for cj in p.c):
        raise ValueError("lp_solve needs c >= 0 (a covering LP)")
    # scaled problem on integers: column j of A times kappa[j], b times
    # beta, c times mu (and kappa).  Positive scalings keep every Bland
    # choice and every ratio-test argmin, so the pivot path is that of
    # the unscaled tableau.
    kappa = [_lcm_of_denominators(col) for col in zip(*p.A)] if m else [1] * n
    beta = _lcm_of_denominators(p.b)
    mu = _lcm_of_denominators(cj * k for cj, k in zip(p.c, kappa))
    A = [[a.numerator * (k // a.denominator) for a, k in zip(row, kappa)] for row in p.A]
    b = [bi.numerator * (beta // bi.denominator) for bi in p.b]
    c = [cj.numerator * (mu * k // cj.denominator) for cj, k in zip(p.c, kappa)]
    # the slack tableau  -A x + s = -b  with s basic and den = 1, dual
    # feasible because c >= 0
    N = [[-a for a in row] + [0] * i + [1] + [0] * (m - 1 - i) + [-bi]
         for i, (row, bi) in enumerate(zip(A, b))]
    N.append(c + [0] * (m + 1))
    basis = list(range(n, n + m))
    den = 1
    # dual simplex by Bland's rule: the row with a negative right-hand
    # side and the smallest basic index leaves
    while True:
        leave = min((i for i in range(m) if N[i][-1] < 0), key=basis.__getitem__,
                    default=None)
        if leave is None:
            break
        row, cost = N[leave], N[-1]
        enter = None
        for j, t in enumerate(row[:-1]):
            if t < 0:
                # ratios cost/|t| compared by cross-multiplying, ties
                # broken by the smaller column
                if enter is None or cost[j] * et > cost[enter] * t:
                    enter, et = j, t
        if enter is None:
            return LpSolution("infeasible", None, None, None)
        den = _pivot(N, den, basis, leave, enter)
    cost = N[-1]
    X = [0] * n
    for r, bv in enumerate(basis):
        if bv < n:
            X[bv] = N[r][-1]
    # duals read off the reduced costs of the slack columns
    Y = cost[n:n + m]
    V = -cost[-1]
    _certify(A, b, c, den, X, Y, V)
    x = tuple(Fraction(k * e, den * beta) for k, e in zip(kappa, X))
    y = tuple(Fraction(e, den * mu) for e in Y)
    return LpSolution("optimal", Fraction(V, den * mu * beta), x, y)


def _certify(A, b, c, den, X, Y, V) -> None:
    """Certify an optimum on the integer-scaled system, in integers.

    A, b and c are the scaled data (A kappa, b beta, c kappa mu); the
    optimum is x = kappa X / (den beta) and y = Y / (den mu) with value
    V / (den mu beta).  Every check below is the rational one multiplied
    by a positive integer:  A X >= den b (primal feasibility), X >= 0,
    Y >= 0, Y A <= den c (dual feasibility), complementary slackness
    both ways, and c.X = V.  Strong duality b.Y = V then follows:
    X.(den c - Y A) + Y.(A X - den b) = den (c.X - b.Y), and with both
    feasibilities and complementary slackness both terms are zero.
    """
    slack = []
    for row, bi in zip(A, b):
        s = sum(map(operator.mul, row, X)) - den * bi
        if s < 0:
            raise RuntimeError("LP certification failed: primal infeasible")
        slack.append(s)
    if any(e < 0 for e in X):
        raise RuntimeError("LP certification failed: negative primal variable")
    if any(e < 0 for e in Y):
        raise RuntimeError("LP certification failed: negative dual variable")
    red = [den * cj for cj in c]
    for row, yi in zip(A, Y):
        if yi:
            red = [r - yi * a for r, a in zip(red, row)]
    if any(r < 0 for r in red):
        raise RuntimeError("LP certification failed: dual infeasible")
    if any(e and r for e, r in zip(X, red)):
        raise RuntimeError("LP certification failed: complementary slackness (primal)")
    if any(e and s for e, s in zip(Y, slack)):
        raise RuntimeError("LP certification failed: complementary slackness (dual)")
    if sum(map(operator.mul, c, X)) != V:
        raise RuntimeError("LP certification failed: objective mismatch")


def lp_solve_max(c, A, b) -> LpSolution:
    """max c.x  s.t.  A x <= b, x >= 0, for b >= 0 (a packing LP), with
    the same exact guarantees.

    Solved by ``lp_solve`` as its covering dual  min b.y  s.t.
    A^T y >= c, y >= 0 (cost b >= 0); that solve's certified y is
    returned as x and its x as y, with the same value.  x = 0 is always
    feasible here, so an infeasible covering dual means the packing LP
    is unbounded.
    """
    p = LpProblem(c, A, b)
    if any(bi < 0 for bi in p.b):
        raise ValueError("lp_solve_max needs b >= 0 (a packing LP)")
    sol = lp_solve(LpProblem(p.b, [[row[j] for row in p.A] for j in range(len(p.c))], p.c))
    if sol.status != "optimal":
        return LpSolution("unbounded", None, None, None)
    return LpSolution("optimal", sol.value, sol.y, sol.x)

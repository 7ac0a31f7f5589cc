"""Exact LP solver: hand-derived optima, Beale's cycling instance, scipy oracle."""

import inspect
import operator
import random
import re
from fractions import Fraction

import pytest
from scipy.optimize import linprog

import scx.numerics.lp as lp
from scx.matroids import phi_star
from scx.numerics.lp import LpProblem, LpSolution, lp_solve, lp_solve_max
from scx.randomgen import random_matroid


def test_one_variable():
    sol = lp_solve(LpProblem([1], [[1]], [1]))
    assert sol.status == "optimal"
    assert sol.value == 1
    assert sol.x == (1,)
    assert sol.y == (1,)


def test_two_point_cover():
    # min a_u + a_v  s.t.  a_u + a_v >= 1 (one constraint per vertex)
    sol = lp_solve(LpProblem([1, 1], [[1, 1], [1, 1]], [1, 1]))
    assert sol.value == 1
    assert sum(sol.x) == 1
    assert sum(sol.y) == 1  # dual: max y.1 with y(PP^T) <= 1


def test_beale_cycling_instance():
    # classic cycling-prone degenerate LP, min c.x s.t. A_ub x <= b_ub,
    # posed as the packing LP max (-c).x (b_ub >= 0); Bland's rule must
    # terminate on its covering dual.
    c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    A_ub = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b_ub = [0, 0, 1]
    sol = lp_solve_max([-e for e in c], A_ub, b_ub)
    assert sol.status == "optimal"
    assert sol.value == Fraction(1, 20)
    assert sol.x == (Fraction(1, 25), 0, 1, 0)
    # float cross-check
    ref = linprog([float(e) for e in c], A_ub=[[float(e) for e in r] for r in A_ub],
                  b_ub=[float(e) for e in b_ub], bounds=(0, None))
    assert ref.status == 0 and abs(ref.fun + float(sol.value)) < 1e-9


def test_infeasible():
    sol = lp_solve(LpProblem([1], [[1], [-1]], [1, 0]))  # x >= 1 and x <= 0
    assert sol.status == "infeasible"
    assert sol.value is None and sol.x is None and sol.y is None


def test_unbounded():
    # max x s.t. -x <= 1: the covering dual  min y s.t. -y >= 1  is
    # infeasible, so the packing LP is unbounded
    sol = lp_solve_max([1], [[-1]], [1])
    assert sol.status == "unbounded"
    assert sol.value is None and sol.x is None and sol.y is None


def test_degenerate_zero_rhs():
    sol = lp_solve(LpProblem([1, 1], [[1, -1], [1, 1]], [0, 2]))
    assert sol.status == "optimal"
    assert sol.value == 2


def test_max_form():
    sol = lp_solve_max([1, 1], [[1, 2], [1, 0]], [4, 3])
    assert sol.status == "optimal"
    assert sol.value == Fraction(7, 2)
    assert sol.x == (3, Fraction(1, 2))
    assert sum(b * y for b, y in zip([4, 3], sol.y)) == sol.value


def test_max_form_statuses():
    # b >= 0 makes x = 0 feasible, so a packing LP is optimal or
    # unbounded, never infeasible
    assert lp_solve_max([1], [[-1]], [1]).status == "unbounded"  # max x, x >= -1
    assert lp_solve_max([1], [], []).status == "unbounded"  # no constraint at all
    sol = lp_solve_max([-1, 2], [[1, 1]], [0])  # only x = 0 is feasible
    assert (sol.status, sol.value, sol.x, sol.y) == ("optimal", 0, (0, 0), (2,))
    sol = lp_solve_max([-1], [], [])
    assert (sol.status, sol.value, sol.x, sol.y) == ("optimal", 0, (0,), ())


def test_mixed_signs_are_refused():
    # lp_solve takes only covering LPs (c >= 0, b of any sign) and
    # lp_solve_max only packing LPs (b >= 0, c of any sign)
    with pytest.raises(ValueError, match=r"^lp_solve needs c >= 0 \(a covering LP\)$"):
        lp_solve(LpProblem([-1], [[1]], [-1]))
    with pytest.raises(ValueError, match=r"^lp_solve_max needs b >= 0 \(a packing LP\)$"):
        lp_solve_max([1], [[-1]], [-1])
    with pytest.raises(ValueError, match=r"^lp_solve_max needs b >= 0"):
        lp_solve_max([-1], [[1], [1]], [1, Fraction(-1, 2)])


def test_exactness_no_float_drift():
    # 1/3-flavoured data stays exact
    sol = lp_solve(LpProblem([Fraction(1, 3), 1], [[Fraction(1, 3), 3]], [Fraction(2, 3)]))
    assert sol.status == "optimal"
    assert sol.value * 3 in (Fraction(2), sol.value * 3)  # value is a Fraction
    lhs = Fraction(1, 3) * sol.x[0] + 3 * sol.x[1]
    assert lhs >= Fraction(2, 3)


def test_random_instances_match_scipy():
    # each draw has one of the two supported shapes: lp_solve with c >= 0
    # and b of any sign (a covering LP: bounded, maybe infeasible), or
    # lp_solve_max with b >= 0 and c of any sign (a packing LP: x = 0 is
    # feasible, maybe unbounded)
    rng = random.Random(2024)
    statuses = {(shape, s): 0 for shape in ("covering", "packing")
                for s in ("optimal", "infeasible", "unbounded")}
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        shape = rng.choice(("covering", "packing"))
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if shape == "covering":
            c = [rng.randint(0, 5) for _ in range(n)]
            b = [rng.randint(-4, 4) for _ in range(m)]
            sol = lp_solve(LpProblem(c, A, b))
            # as scipy's min c.x s.t. (-A) x <= -b
            sign, cost, A_ub, b_ub = 1, c, [[-e for e in row] for row in A], [-e for e in b]
        else:
            c = [rng.randint(-3, 5) for _ in range(n)]
            b = [rng.randint(0, 4) for _ in range(m)]
            sol = lp_solve_max(c, A, b)
            sign, cost, A_ub, b_ub = -1, [-e for e in c], A, b
        statuses[shape, sol.status] += 1
        ref = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if sol.status == "optimal":
            assert ref.status == 0
            assert abs(sign * ref.fun - float(sol.value)) < 1e-7 * max(1.0, abs(float(sol.value)))
            # the exact certificate: both vectors feasible, b.y = c.x
            assert all(e >= 0 for e in (*sol.x, *sol.y))
            for row, bi in zip(A_ub, b_ub):
                assert sum(a * x for a, x in zip(row, sol.x)) <= bi
            for j, cj in enumerate(cost):
                assert sum(row[j] * y for row, y in zip(A_ub, sol.y)) >= -cj
            assert sum(map(operator.mul, b_ub, sol.y)) == -sign * sol.value
            assert sum(map(operator.mul, c, sol.x)) == sol.value
        elif sol.status == "infeasible":
            feas = linprog([0] * n, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
            assert feas.status == 2
        else:
            # unbounded: a ray d >= 0 with A d <= 0 and c.d >= 1 exists
            # (HiGHS may label such instances either unbounded or infeasible)
            assert ref.status in (2, 3, 4)
            ray = linprog([0] * n, A_ub=[*A, [-e for e in c]], b_ub=[0] * m + [-1],
                          bounds=(0, None), method="highs")
            assert ray.status == 0
    # the campaign reaches both statuses of each shape, and no other
    assert min(statuses["covering", "optimal"], statuses["packing", "optimal"]) >= 5
    assert statuses["covering", "infeasible"] >= 1 and statuses["packing", "unbounded"] >= 1
    assert statuses["covering", "unbounded"] == statuses["packing", "infeasible"] == 0


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem([1], [[1, 2]], [1])
    with pytest.raises(ValueError):
        LpProblem([1], [[1]], [1, 2])
    assert isinstance(lp_solve(LpProblem([], [], [])), LpSolution)


# Exact answers of the rational (Fraction-tableau) Bland solver on data
# with non-integer A, b and c >= 0 and mixed-sign b, so the dual simplex
# from the slack basis solves each.  The "ties" and "degenerate" optima
# are not unique, so the pinned vertex and duals lock the pivot path,
# not only the value.
F = Fraction
PINNED = {
    "mixed": (
        ([F(3, 2), F(2, 3), 1, F(5, 7)],
         [[F(1, 2), F(1, 3), 0, 1], [1, F(-2, 5), F(3, 4), 0],
          [F(-1, 3), 1, 1, F(1, 6)], [F(2, 9), F(1, 4), F(-1, 2), 1]],
         [F(3, 4), F(1, 5), F(-1, 2), F(2, 3)]),
        (F(107, 140), (F(1, 5), 0, 0, F(13, 20)), (F(5, 7), F(8, 7), 0, 0)),
    ),
    "slack_basic": (
        ([2, F(1, 3), F(7, 4)],
         [[F(-1, 2), F(1, 5), 1], [F(3, 4), 1, F(-1, 3)],
          [1, F(1, 2), F(1, 2)], [F(-2, 3), F(-1, 4), F(1, 8)]],
         [F(1, 6), F(2, 5), F(5, 4), F(-3, 2)]),
        (F(5, 6), (0, F(5, 2), 0), (0, 0, F(2, 3), 0)),
    ),
    "degenerate": (
        ([F(1, 2), F(1, 3), F(1, 4)],
         [[F(1, 2), F(1, 2), 0], [0, F(2, 3), F(2, 3)], [F(3, 5), 0, F(3, 5)],
          [1, 1, 1], [F(-1, 7), 0, F(1, 7)]],
         [F(1, 2), F(2, 3), F(3, 5), 1, 0]),
        (F(13, 24), (F(1, 2), F(1, 2), F(1, 2)), (F(7, 12), F(1, 16), F(25, 72), 0, 0)),
    ),
    "ties": (
        ([F(1, 3), F(2, 3), 1],
         [[F(1, 2), 1, F(3, 2)], [F(1, 5), F(-1, 3), F(2, 7)], [F(-1, 2), F(1, 4), 0]],
         [F(5, 4), F(-1, 6), F(-3, 8)]),
        (F(5, 6), (F(11, 10), F(7, 10), 0), (F(2, 3), 0, 0)),
    ),
    # mirrored and repeated rows make degenerate optima; the two
    # "redundant" cases have alternative duals (row 3 is twice row 1),
    # so their pinned y is the one the dual simplex ends at
    "equality": (
        ([5], [[F(1, 2)], [F(-1, 2)]], [2, -2]),
        (20, (4,), (10, 0)),
    ),
    "redundant_integer": (
        ([1, 1], [[1, 1], [-1, -1], [2, 2]], [1, -1, 2]),
        (1, (1, 0), (1, 0, 0)),
    ),
    "redundant": (
        ([F(1, 2), 1, F(1, 3)],
         [[F(1, 2), F(1, 3), 1], [F(-1, 2), F(-1, 3), -1], [1, F(2, 3), 2], [0, 1, F(1, 4)]],
         [F(3, 4), F(-3, 4), F(3, 2), F(1, 5)]),
        (F(173, 660), (0, F(3, 220), F(41, 55)), (F(1, 11), 0, 0, F(32, 33))),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_bland_path(name):
    (c, A, b), (value, x, y) = PINNED[name]
    sol = lp_solve(LpProblem(c, A, b))
    assert (sol.status, sol.value, sol.x, sol.y) == ("optimal", value, x, y)
    assert all(type(e) is Fraction for e in (sol.value, *sol.x, *sol.y))


def test_pinned_max_form():
    sol = lp_solve_max([F(1, 2), F(3, 4), 1],
                       [[F(1, 3), F(1, 2), F(2, 5)], [1, F(-1, 4), F(1, 6)],
                        [F(2, 7), F(3, 5), F(1, 9)]],
                       [F(7, 8), F(1, 2), F(2, 3)])
    assert (sol.status, sol.value, sol.x, sol.y) == (
        "optimal", F(35, 16), (0, 0, F(35, 16)), (F(5, 2), 0, 0))


def test_phi_star_pivots_are_pinned(monkeypatch):
    # phi_star's packing LPs are solved as their covering duals (one row
    # per element); the pivot total over twelve seeded matroids pins that
    # path
    pivots = 0
    real = lp._pivot

    def counting(*args):
        nonlocal pivots
        pivots += 1
        return real(*args)

    monkeypatch.setattr(lp, "_pivot", counting)
    values = [phi_star(random_matroid(random.Random(seed))) for seed in range(12)]
    assert values == [F(17, 3), 12, 5, 14, 18, 6, 9, 14, 9, 9, F(33, 4), F(21, 2)]
    assert pivots == 107


def test_problem_keeps_ints_and_makes_the_rest_fractions():
    p = LpProblem([1, F(1, 2)], [[2, 0.5]], [True])
    assert [type(e) for e in (*p.c, *p.A[0], *p.b)] == [int, Fraction, int, Fraction, Fraction]
    assert p.c == (1, F(1, 2)) and p.A == ((2, F(1, 2)),) and p.b == (1,)


# -- the certificate on the integer-scaled system ---------------------

# min x1 + x2 + x3  s.t.  x1/2 - x2/3 >= 1/2,  x1 + x3/4 >= 0: the optimum
# is x = (1, 0, 0), y = (2, 0) with value 1, reduced costs (0, 5/3, 1)
# and slacks (0, 1).  Each mutation moves one integer of the scaled
# optimum (X, Y or V) by one and must trip exactly the named check.
CERT_PROBLEM = LpProblem([1, 1, 1], [[F(1, 2), F(-1, 3), 0], [1, 0, F(1, 4)]], [F(1, 2), 0])
MUTATIONS = [
    ("X", 0, -1, "primal infeasible"),  # row 1 is tight and needs x1
    ("X", 1, -1, "negative primal variable"),  # row 1 only gains from x2 < 0
    ("Y", 1, -1, "negative dual variable"),
    ("Y", 0, 1, "dual infeasible"),  # y1 over the cost of x1
    ("X", 2, 1, "complementary slackness (primal)"),  # x3 > 0 at reduced cost 1
    ("X", 0, 1, "complementary slackness (dual)"),  # row 1 slack with y1 > 0
    ("V", None, 1, "objective mismatch"),
]


def _certified_optimum(monkeypatch, problem):
    seen = []
    real = lp._certify

    def capture(A, b, c, den, X, Y, V):
        seen.append((A, b, c, den, list(X), list(Y), V))
        real(A, b, c, den, X, Y, V)

    monkeypatch.setattr(lp, "_certify", capture)
    sol = lp_solve(problem)
    monkeypatch.undo()
    assert len(seen) == 1
    return sol, seen[0]


def test_certificate_is_integer_and_accepts_the_optimum(monkeypatch):
    sol, (A, b, c, den, X, Y, V) = _certified_optimum(monkeypatch, CERT_PROBLEM)
    assert (sol.value, sol.x, sol.y) == (1, (1, 0, 0), (2, 0))
    assert all(type(e) is int for e in (den, V, *b, *c, *X, *Y, *A[0], *A[1]))
    lp._certify(A, b, c, den, X, Y, V)


@pytest.mark.parametrize("part, index, delta, message", MUTATIONS,
                         ids=[m[-1] for m in MUTATIONS])
def test_certificate_refuses_each_mutation(monkeypatch, part, index, delta, message):
    _, (A, b, c, den, X, Y, V) = _certified_optimum(monkeypatch, CERT_PROBLEM)
    if part == "V":
        V += delta
    else:
        (X if part == "X" else Y)[index] += delta
    with pytest.raises(RuntimeError) as err:
        lp._certify(A, b, c, den, X, Y, V)
    assert str(err.value) == f"LP certification failed: {message}"


def test_mutations_cover_every_refusal():
    source = inspect.getsource(lp._certify)
    refusals = re.findall(r'"LP certification failed: (.+?)"', source)
    assert sorted(refusals) == sorted(m[-1] for m in MUTATIONS)

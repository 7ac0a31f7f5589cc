"""Exact LP solver: hand-derived optima, Beale's cycling instance, scipy oracle."""

import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from scx.numerics.lp import LpProblem, LpSolution, lp_solve, lp_solve_max


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
    # classic cycling-prone degenerate LP; Bland's rule must terminate.
    c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    A_ub = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b_ub = [0, 0, 1]
    # convert <= rows to the solver's >= form
    sol = lp_solve(LpProblem(c, [[-e for e in row] for row in A_ub], [-e for e in b_ub]))
    assert sol.status == "optimal"
    assert sol.value == Fraction(-1, 20)
    assert sol.x == (Fraction(1, 25), 0, 1, 0)
    # float cross-check
    ref = linprog([float(e) for e in c], A_ub=[[float(e) for e in r] for r in A_ub],
                  b_ub=[float(e) for e in b_ub], bounds=(0, None))
    assert ref.status == 0 and abs(ref.fun - float(sol.value)) < 1e-9


def test_infeasible():
    sol = lp_solve(LpProblem([1], [[1], [-1]], [1, 0]))  # x >= 1 and x <= 0
    assert sol.status == "infeasible"
    assert sol.value is None and sol.x is None and sol.y is None


def test_unbounded():
    sol = lp_solve(LpProblem([-1], [[1]], [0]))  # min -x, x >= 0
    assert sol.status == "unbounded"


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
    assert lp_solve_max([1], [[-1]], [-1]).status == "unbounded"  # max x, x >= 1
    assert lp_solve_max([1], [[1], [-1]], [1, -2]).status == "infeasible"


def test_exactness_no_float_drift():
    # 1/3-flavoured data stays exact
    sol = lp_solve(LpProblem([Fraction(1, 3), 1], [[Fraction(1, 3), 3]], [Fraction(2, 3)]))
    assert sol.status == "optimal"
    assert sol.value * 3 in (Fraction(2), sol.value * 3)  # value is a Fraction
    lhs = Fraction(1, 3) * sol.x[0] + 3 * sol.x[1]
    assert lhs >= Fraction(2, 3)


def test_random_instances_match_scipy():
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        c = [rng.randint(-3, 5) for _ in range(n)]
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        sol = lp_solve(LpProblem(c, A, b))
        statuses[sol.status] += 1
        ref = linprog(
            c,
            A_ub=[[-e for e in row] for row in A],
            b_ub=[-e for e in b],
            bounds=(0, None),
            method="highs",
        )
        feas = linprog(
            [0] * n,
            A_ub=[[-e for e in row] for row in A],
            b_ub=[-e for e in b],
            bounds=(0, None),
            method="highs",
        )
        if sol.status == "optimal":
            assert ref.status == 0
            assert abs(ref.fun - float(sol.value)) < 1e-7 * max(1.0, abs(float(sol.value)))
            # exact feasibility of our primal
            for row, bi in zip(A, b):
                assert sum(Fraction(a) * x for a, x in zip(row, sol.x)) >= bi
        elif sol.status == "infeasible":
            assert feas.status == 2
        else:
            # unbounded: the region is nonempty but no finite optimum exists
            # (HiGHS may label such instances either unbounded or infeasible)
            assert feas.status == 0
            assert ref.status in (2, 3, 4)
    assert statuses["optimal"] >= 10  # the campaign actually exercises the solver


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem([1], [[1, 2]], [1])
    with pytest.raises(ValueError):
        LpProblem([1], [[1]], [1, 2])
    assert isinstance(lp_solve(LpProblem([], [], [])), LpSolution)


# Exact answers of the rational (Fraction-tableau) Bland solver on data
# with non-integer A, b and c and mixed-sign b (slack-basic rows).  The
# "ties" and "degenerate" optima are not unique, so the pinned vertex and
# duals lock the pivot path, not only the value.
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
    # mirrored and repeated rows leave artificials basic after phase 1;
    # driving them out pivots on negative entries (once here, twice in
    # the two "redundant" cases)
    "equality": (
        ([5], [[F(1, 2)], [F(-1, 2)]], [2, -2]),
        (20, (4,), (10, 0)),
    ),
    "redundant_integer": (
        ([1, 1], [[1, 1], [-1, -1], [2, 2]], [1, -1, 2]),
        (1, (1, 0), (0, 0, F(1, 2))),
    ),
    "redundant": (
        ([F(1, 2), 1, F(1, 3)],
         [[F(1, 2), F(1, 3), 1], [F(-1, 2), F(-1, 3), -1], [1, F(2, 3), 2], [0, 1, F(1, 4)]],
         [F(3, 4), F(-3, 4), F(3, 2), F(1, 5)]),
        (F(173, 660), (0, F(3, 220), F(41, 55)), (0, 0, F(1, 22), F(32, 33))),
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

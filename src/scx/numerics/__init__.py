"""Numeric kernels: the block split of symmetric matrices with its work
budget, Jacobi eigensolver, certified exact rank and semidefiniteness, exact LP."""

from .eigen import EigenError, distinct_blocks, eigenvalues_sym
from .lp import LpProblem, LpSolution, lp_solve, lp_solve_max
from .rational import SparseRows, psd_rank, rank_exact

__all__ = [
    "EigenError",
    "distinct_blocks",
    "eigenvalues_sym",
    "LpProblem",
    "LpSolution",
    "lp_solve",
    "lp_solve_max",
    "SparseRows",
    "psd_rank",
    "rank_exact",
]

"""Numeric kernels: Jacobi symmetric eigensolver, certified exact rank and
semidefiniteness, exact LP."""

from .eigen import EigenError, eigenvalues_sym
from .lp import LpProblem, LpSolution, lp_solve, lp_solve_max
from .rational import SparseRows, psd_rank, rank_exact

__all__ = [
    "EigenError",
    "eigenvalues_sym",
    "LpProblem",
    "LpSolution",
    "lp_solve",
    "lp_solve_max",
    "SparseRows",
    "psd_rank",
    "rank_exact",
]

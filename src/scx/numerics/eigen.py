"""Dense symmetric eigensolver: cyclic Jacobi sweeps.

One numpy kernel applies the rotations with vectorized column updates.
Jacobi is kept for its accuracy on small eigenvalues relative to the
matrix norm (Demmel-Veselic), which the kernel dimensions need.

Convergence: sweeps stop once the off-diagonal Frobenius norm drops
below 1e-12 times the Frobenius norm of the input; more than 100 sweeps
raises EigenError, never a silent wrong answer.  When eigenvectors are
requested the extremal pairs are certified by a residual check
``|M v - lambda v| <= 1e-8 |M|``.

Dense matrices alive at once: the input, never written to, and its
float64 conversion, the one working copy the sweeps rotate in place (an
integer Laplacian converts exactly, so it is passed as it is).  The
eigenvector matrix and a second float copy of the input, which the
residual check reads, exist only when eigenvectors are requested.  The
convergence test reads the strict upper triangle through one boolean
mask and squares that half-size gather in place.
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_LIMIT = 100
OFF_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# Beyond this |theta|, theta*theta nears overflow; the kernel then takes
# t = 1/(2 theta), to which the full formula rounds exactly until it overflows.
THETA_MAX = 1e150


class EigenError(RuntimeError):
    """Eigensolver failed to converge or to certify its output."""


def _off_norm(a, upper) -> float:
    """Frobenius norm of the off-diagonal of the symmetric ``a``.  The
    mask picks the strict upper triangle row by row, the order of
    ``np.triu_indices``, and the squares are taken in place."""
    off = a[upper]
    np.square(off, out=off)
    return math.sqrt(2.0 * float(np.sum(off)))


def _jacobi(a, v, want_v, tol, sweep_limit):
    """Rotate ``a`` (and ``v``) in place; sweeps used, or -1 if not converged."""
    m = a.shape[0]
    upper = ~np.tri(m, dtype=bool)  # strictly above the diagonal
    for sweep in range(sweep_limit):
        if _off_norm(a, upper) <= tol:
            return sweep
        for p in range(m - 1):
            for q in range(p + 1, m):
                # Python floats: a subnormal apq sends theta to inf without a
                # numpy overflow warning, and the guard below then gives t = 0.
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                app = float(a[p, p])
                aqq = float(a[q, q])
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > THETA_MAX:
                    t = 0.5 / theta
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                tau = s / (1.0 + c)
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = colp - s * (colq + tau * colp)
                a[:, q] = colq + s * (colp - tau * colq)
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                if want_v:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = vp - s * (vq + tau * vp)
                    v[:, q] = vq + s * (vp - tau * vq)
    if _off_norm(a, upper) <= tol:
        return sweep_limit
    return -1


def eigenvalues_sym(mat, vectors: bool = False):
    """Sorted eigenvalues (and optionally eigenvectors) of a symmetric matrix.

    Returns the sorted eigenvalue array, or a pair (values, columns) when
    ``vectors`` is true; column j matches values[j].
    """
    a = np.array(mat, dtype=np.float64)  # the one working copy; mat is not touched
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    m = a.shape[0]
    if m == 0:
        w = np.empty(0)
        return (w, np.empty((0, 0))) if vectors else w
    orig = a.copy() if vectors else None  # read only by the residual check
    norm = float(np.linalg.norm(a))
    tol = OFF_TOL * norm
    v = np.eye(m) if vectors else np.empty((0, 0))
    sweeps = _jacobi(a, v, vectors, tol, SWEEP_LIMIT)
    if sweeps < 0:
        raise EigenError(f"Jacobi did not converge within {SWEEP_LIMIT} sweeps (side {m})")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    if not vectors:
        return w
    v = v[:, order]
    for j in (0, m - 1):
        resid = float(np.linalg.norm(orig @ v[:, j] - w[j] * v[:, j]))
        if resid > RESIDUAL_TOL * max(norm, 1e-300):
            raise EigenError(f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e}*|M|")
    return w, v

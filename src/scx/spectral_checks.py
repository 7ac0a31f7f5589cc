"""Checkers for the spectral identities and inequalities.

Each function evaluates one claim on concrete inputs and returns a
CheckRecord with both sides, the realized margin and a pass flag.
Margins are oriented so that nonnegative means the claim holds (up to
the slack tolerance); exact integer identities use no tolerance at all.

Lower bounds on a spectral gap over an empty cochain space are
vacuously true: the gap sentinel +inf propagates into the record with a
note.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import combinations
from math import comb

from ._lazy import lazy_import
from .complexes import Complex, _masks_of_size, _vertices_of, intersection
from .homology import betti_exact, eta, laplacians, missing_top_eigenvalue, spectral_gap
from .reports import CheckRecord, digest

np = lazy_import("numpy")

__all__ = [
    "SLACK_TOL",
    "check_gap_recursion",
    "check_vanishing_threshold",
    "check_intersection_gap",
    "check_complement_identity",
    "check_gap_lower_bound",
    "check_connectivity_eigen",
    "check_upper_energy",
    "check_degree_sum",
]

#: Default slack for floating-point inequality comparisons.
SLACK_TOL = 1e-9


def _complex_digest(x: Complex) -> tuple:
    return (x.n, x.missing_masks)


def check_gap_recursion(x: Complex, k: int, tol: float = SLACK_TOL) -> CheckRecord:
    """(k-d+1) mu_k >= (k+1) mu_{k-1} - d n, for k at least d."""
    d = x.max_missing_dim()
    if k < d:
        raise ValueError(f"need k >= {d}, got {k}")
    name = "gap_recursion"
    inputs = digest(_complex_digest(x), k)
    mu_k = spectral_gap(x, k)
    if math.isinf(mu_k):
        return CheckRecord(name, inputs, math.inf, None, math.inf, True,
                           note="vacuous: no cochains in degree k")
    mu_km1 = spectral_gap(x, k - 1)
    lhs = (k - d + 1) * mu_k
    rhs = (k + 1) * mu_km1 - d * x.n
    margin = lhs - rhs
    return CheckRecord(name, inputs, lhs, rhs, margin, margin >= -tol,
                       details={"d": d, "mu_k": mu_k, "mu_km1": mu_km1})


def check_vanishing_threshold(x: Complex, k: int, tol: float = SLACK_TOL) -> CheckRecord:
    """mu_{d-1} strictly above (1 - 1/C(k+1,d)) n forces zero cohomology
    in all degrees from d-1 through k."""
    d = x.max_missing_dim()
    if k < d - 1:
        raise ValueError(f"need k >= {d - 1}, got {k}")
    name = "vanishing_threshold"
    inputs = digest(_complex_digest(x), k)
    mu = spectral_gap(x, d - 1)
    threshold = (1 - 1 / comb(k + 1, d)) * x.n
    margin = mu - threshold
    if not margin > tol:
        return CheckRecord(name, inputs, mu, threshold, margin, True,
                           note="not applicable: gap does not clear the threshold",
                           details={"d": d})
    betti = {j: betti_exact(x, j) for j in range(d - 1, k + 1)}
    return CheckRecord(name, inputs, mu, threshold, margin,
                       all(b == 0 for b in betti.values()),
                       details={"d": d, "betti": betti})


def check_intersection_gap(complexes, k: int, tol: float = SLACK_TOL) -> CheckRecord:
    """The gap of an intersection is at least the sum of the gaps minus
    (m-1) n."""
    complexes = list(complexes)
    meet = intersection(complexes)
    n = meet.n
    name = "intersection_gap"
    inputs = digest([_complex_digest(x) for x in complexes], k)
    mu_meet = spectral_gap(meet, k)
    if math.isinf(mu_meet):
        return CheckRecord(name, inputs, math.inf, None, math.inf, True,
                           note="vacuous: intersection has no cochains in degree k")
    gaps = [spectral_gap(x, k) for x in complexes]
    rhs = sum(gaps) - (len(complexes) - 1) * n
    margin = mu_meet - rhs
    return CheckRecord(name, inputs, mu_meet, rhs, margin, margin >= -tol,
                       details={"gaps": gaps})


def check_complement_identity(x: Complex, i: int, tol: float = 1e-8) -> CheckRecord:
    """The missing layer's upper Laplacian plus the relaxation's full
    Laplacian is exactly n times the identity, whence the relaxation's
    gap equals n minus the layer's top eigenvalue.

    The matrix identity is checked on the upper Laplacian in integers;
    the eigenvalue side compares two separate computations, the
    relaxation's gap and the top of whichever of the layer's two
    Laplacians ``missing_top_eigenvalue`` reads (usually the lower one in
    degree i, which is smaller).  Either side may be certified exactly:
    the gap is 0.0 without a solve when the relaxation has cohomology in
    degree i-1, and an integer within 1e-9 of its float solve when
    L - rI is PSD and singular; an integer top is certified with no
    solve.  Only when both are certified does the comparison read no
    float; otherwise it holds within tol."""
    if i not in x.missing_dims():
        raise ValueError(f"no missing faces of dimension {i}")
    name = "complement_identity"
    inputs = digest(_complex_digest(x), i)
    y = x.missing_complex(i)
    xi = x.relaxation(i)
    plus = laplacians(y, i - 1).plus
    full = laplacians(xi, i - 1).full
    total = plus + full
    target = x.n * np.eye(total.shape[0], dtype=np.int64)
    deviation = int(np.abs(total - target).max()) if total.size else 0
    mu = spectral_gap(xi, i - 1)
    lam = missing_top_eigenvalue(x, i)
    eig_gap = abs(mu - (x.n - lam))
    passed = deviation == 0 and eig_gap <= tol
    return CheckRecord(name, inputs, mu, x.n - lam, -eig_gap, passed,
                       details={"matrix_deviation": deviation, "top_eig": lam})


def _layer_terms(x: Complex, j: int) -> dict:
    """C(j, i) lambda_i for each missing dimension i, ascending; a zero
    binomial gives 0.0 without solving the layer."""
    terms = {}
    for i in sorted(x.missing_dims()):
        c = comb(j, i)
        terms[i] = c * missing_top_eigenvalue(x, i) if c else 0.0
    return terms


def check_gap_lower_bound(x: Complex, k: int, tol: float = SLACK_TOL) -> CheckRecord:
    """mu_k >= n - sum over missing dimensions i of C(k+1,i) lambda_i,
    where lambda_i tops the spectrum of the dimension-i missing layer."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    name = "gap_lower_bound"
    inputs = digest(_complex_digest(x), k)
    mu = spectral_gap(x, k)
    if math.isinf(mu):
        return CheckRecord(name, inputs, math.inf, None, math.inf, True,
                           note="vacuous: no cochains in degree k")
    terms = _layer_terms(x, k + 1)
    rhs = x.n - sum(terms.values())
    margin = mu - rhs
    return CheckRecord(name, inputs, mu, rhs, margin, margin >= -tol,
                       details={"terms": terms})


def check_connectivity_eigen(x: Complex, tol: float = SLACK_TOL) -> CheckRecord:
    """sum over missing dimensions i of C(eta,i) lambda_i >= n whenever
    the connectivity eta is finite."""
    name = "connectivity_eigen"
    inputs = digest(_complex_digest(x))
    e = eta(x)
    if math.isinf(e):
        return CheckRecord(name, inputs, None, x.n, math.inf, True,
                           note="vacuous: all reduced cohomology vanishes")
    terms = _layer_terms(x, e)
    lhs = sum(terms.values())
    margin = lhs - x.n
    return CheckRecord(name, inputs, lhs, x.n, margin, margin >= -tol,
                       details={"eta": e, "terms": terms})


def check_upper_energy(y: Complex, phi, tol: float = SLACK_TOL) -> CheckRecord:
    """Upper-Laplacian energy of a cochain on a top-degree-minus-one
    basis is at most the sum over codimension-2 faces of squared
    differences across their link edges.

    The cochain's value on (v,) + sigma, sigma ascending, is its entry
    at the face sigma + v times (-1) to the number of vertices of sigma
    below v: the sign of moving v into place."""
    j = y.dim - 1
    masks = y.face_masks(j)
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (len(masks),):
        raise ValueError(f"cochain must have {len(masks)} entries")
    name = "upper_energy"
    values = phi.tolist()
    inputs = digest(_complex_digest(y), tuple(values))
    plus = laplacians(y, j).plus
    lhs = float(phi @ plus.astype(np.float64) @ phi)
    pos = {m: i for i, m in enumerate(masks)}
    rhs = 0.0
    for s in y.face_masks(j - 1):
        # the value on (v,) + sigma for each v extending sigma to a j-face
        ends = [(1 << v, (-1) ** (s & (1 << v) - 1).bit_count() * values[pos[s | 1 << v]])
                for v in range(y.n) if s | 1 << v in pos]
        for (bv, a), (bw, b) in combinations(ends, 2):
            if y.contains_mask(s | bv | bw):
                rhs += (a - b) ** 2
    margin = rhs - lhs
    return CheckRecord(name, inputs, lhs, rhs, margin, margin >= -tol)


def check_degree_sum(x: Complex, sigma) -> CheckRecord:
    """Exact identity between a face's facet degrees and the missing
    cores of its one-vertex extensions."""
    sigma = tuple(sorted(sigma))
    d = x.max_missing_dim()
    k = len(sigma) - 1
    if k < d:
        raise ValueError(f"need a face of dimension >= {d}, got {k}")
    if not x.contains(sigma):
        raise ValueError(f"{sigma} is not a face")
    name = "degree_sum"
    inputs = digest(_complex_digest(x), sigma)
    lhs = sum(x.degree(sigma[:i] + sigma[i + 1 :]) for i in range(k + 1))
    counts = {r: 0 for r in range(2, d + 2)}
    smask = sum(1 << v for v in sigma)
    for v in range(x.n):
        if smask >> v & 1:
            continue
        # the common core of the (d+1)-subsets of sigma + v that are not faces
        absent = [m for m in _masks_of_size(_vertices_of(smask | 1 << v), d + 1)
                  if not x.contains_mask(m)]
        m = reduce(operator.and_, absent).bit_count() if absent else 0
        if m >= 2:
            counts[m] += 1
    rhs = k + 1 + (k + 1) * x.degree(sigma) + sum((r - 1) * c for r, c in counts.items())
    return CheckRecord(name, inputs, lhs, rhs, lhs - rhs, lhs == rhs,
                       details={"core_counts": counts})

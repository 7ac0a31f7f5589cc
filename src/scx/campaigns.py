"""Seeded verification campaigns over the theorem checkers.

SUITES is the one table of campaigns, keyed by verify-suite token.  A
row gives the parameters its trials take, with defaults, and its parts:
trial functions ``trial(rng, **params) -> list[CheckRecord]`` paired
with default trial counts.  run_suite, the one loop used by the CLI and
the acceptance tests, runs each part in turn, trial t on the stream
``trial_rng(seed, t)``; so records are ordered by part, then trial, and
each replays from (token, seed, part, trial).  Reports are deterministic
functions of (seed, params); wall time lives outside the canonical JSON.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import count
from math import comb, isfinite

from .complexes import from_missing_faces
from .domination import (
    check_colorful_hall,
    check_connectivity_bound,
    check_domination_bound,
    check_rep_eigen_bound,
    rep_value,
)
from .homology import (
    KERNEL_TOL,
    betti_exact,
    betti_hodge,
    laplacians,
    spectral_gap,
)
from .matroids import (
    ag23_complex,
    check_fractional_gp_hall,
    gp_by_flat_counts,
    is_general_position,
    pg33_complex,
    phi,
    phi_star,
)
from .randomgen import (
    _at_least,
    random_complex,
    random_complex_pair,
    random_linear_matroid,
    random_matroid,
    random_partition,
    random_representation,
    random_single_layer_complex,
    trial_rng,
)
from .reports import CheckRecord, VerificationReport, digest
from .spectral_checks import (
    SLACK_TOL,
    check_complement_identity,
    check_connectivity_eigen,
    check_degree_sum,
    check_gap_lower_bound,
    check_gap_recursion,
    check_intersection_gap,
    check_upper_energy,
    check_vanishing_threshold,
)

__all__ = [
    "SUITES",
    "run_suite",
    "run_reproduce",
    "REPRODUCE_NAMES",
    "complete_multipartite_complex",
]


def _fp(rng, n_max, d_max, tol):
    """Gap recursion at every admissible degree of each random complex."""
    x = random_complex(rng, n_max, d_max)
    return [check_gap_recursion(x, k, tol=tol)
            for k in range(x.max_missing_dim(), x.dim + 2)]


def _intersection(rng, n_max, d_max, tol):
    """Intersection gap bound on random pairs sharing a vertex set."""
    pair = random_complex_pair(rng, n_max, d_max)
    return [check_intersection_gap(pair, rng.randint(0, 2), tol=tol)]


def _yi(rng, n_max, d_max):
    """Complement identity in every missing dimension of each complex."""
    x = random_complex(rng, n_max, d_max)
    return [check_complement_identity(x, i) for i in sorted(x.missing_dims())]


def _mu_bound(rng, n_max, d_max, tol):
    """Spectral-gap lower bound from missing-layer top eigenvalues."""
    x = random_complex(rng, n_max, d_max)
    return [check_gap_lower_bound(x, k, tol=tol) for k in range(0, x.dim + 1)]


def _eigenhom(rng, n_max, d_max, tol):
    """Connectivity-weighted eigenvalue sums reach n."""
    return [check_connectivity_eigen(random_complex(rng, n_max, d_max), tol=tol)]


def _countdeg(rng, n_max, d_max):
    """Facet degree sums over every face in the top two dimensions,
    folded into one exact record per complex."""
    d = 0
    x = None
    while x is None or x.dim < d:
        x = random_complex(rng, n_max, d_max)
        d = x.max_missing_dim()
    checked = 0
    ok = True
    worst = 0
    for k in (x.dim, x.dim - 1):
        if k < d:
            continue
        for sigma in x.faces(k):
            rec = check_degree_sum(x, sigma)
            checked += 1
            ok = ok and rec.passed
            worst = max(worst, abs(rec.margin))
    return [CheckRecord(
        "degree_sum_sweep", digest(x.n, x.missing_masks), None, None,
        worst, ok and checked > 0, details={"faces_checked": checked})]


def _pluslap(rng, n_max, d_max, tol):
    """Upper-Laplacian energy of a random cochain on a missing-layer
    complex against its link-difference expansion."""
    x = random_complex(rng, n_max, d_max)
    i = rng.choice(sorted(x.missing_dims()))
    y = x.missing_complex(i)
    cochain = [rng.gauss(0.0, 1.0) for _ in range(y.n_faces(i - 1))]
    return [check_upper_energy(y, cochain, tol=tol)]


def _hodge(rng, n_max, d_max, kernel_tol):
    """At every degree, the two Laplacian assemblies agree entrywise (a
    disagreement, which laplacians refuses, fails the trial) and the
    harmonic-kernel Betti numbers equal the exact ranks."""
    x = random_complex(rng, n_max, d_max)
    inputs = digest(x.n, x.missing_masks)
    details = {"degrees": [-1, x.dim]}
    try:
        for k in range(-1, x.dim + 1):
            laplacians(x, k)
    except RuntimeError as exc:
        return [CheckRecord("laplacian_assembly", inputs, None, None, None, False,
                            note=str(exc), details=details)]
    assembly = CheckRecord("laplacian_assembly", inputs, None, None, 0, True, details=details)
    table = {}
    agree = True
    for k in range(-1, x.dim + 1):
        h = betti_hodge(x, k, tol=kernel_tol)
        e = betti_exact(x, k)
        table[k] = [h, e]
        agree = agree and h == e
    return [assembly, CheckRecord(
        "hodge_betti", inputs, None, None, 0 if agree else 1, agree,
        details={"betti": table})]


def _duality(rng, n_max, d_max):
    """Exact primal = dual for the covering value of random
    representations.  The primal and its packing dual come from one
    certified solve: rep_value's LP checks both feasibilities, equal
    objectives and complementary slackness, and raises on any failure."""
    x = random_complex(rng, n_max, d_max)
    p = random_representation(rng, x)
    inputs = digest(x.n, x.missing_masks, sorted(p.scaled))
    try:
        value = rep_value(p)
    except RuntimeError as exc:  # pragma: no cover - duality never breaks
        return [CheckRecord("lp_duality", inputs, None, None, None, False, note=str(exc))]
    return [CheckRecord("lp_duality", inputs, value, value, Fraction(0), True,
                        details={"value": str(value)})]


def _domination(rng, n_max, d_max):
    """Covering value against C(gamma-tilde, d) on single-layer
    complexes with a finite totally dominating number; n_max is
    clamped to 6."""
    x = random_single_layer_complex(rng, min(n_max, 6), d_max)
    return [check_domination_bound(x, random_representation(rng, x))]


def _connectivity(rng, n_max, d_max):
    """Connectivity bound with the all-ones representation."""
    return [check_connectivity_bound(random_complex(rng, n_max, d_max))]


def _eigenrep(rng, n_max, d_max):
    """Missing-layer top eigenvalues against the representation bound."""
    x = random_complex(rng, n_max, d_max)
    return [check_rep_eigen_bound(x, random_representation(rng, x))]


def _hall(rng, n_max, d_max, m_max):
    """Colorful simplices on (complex, partition) pairs where the
    connectivity hypothesis holds; inapplicable draws are rerolled, with
    a fallback to one class (always applicable) after 60 attempts."""
    _at_least("m_max", m_max, 1)
    for attempt in count():
        x = random_complex(rng, n_max, d_max)
        m = rng.randint(1, min(m_max, x.n)) if attempt < 60 else 1
        rec = check_colorful_hall(x, random_partition(rng, x.n, m))
        if "not applicable" not in rec.note:
            return [rec]


def _matroid_hall(rng, n_max, m_max):
    """Fractional general-position Hall check on random matroids with
    random partitions; zero tolerance for a firing hypothesis without a
    colorful general-position transversal."""
    _at_least("m_max", m_max, 2)
    m = random_matroid(rng, n_max=n_max)
    part = random_partition(rng, m.n, rng.randint(2, m_max))
    return [check_fractional_gp_hall(m, part)]


def _matroid_basics(rng, n_max):
    """phi-star dominates phi exactly, and the two general-position
    definitions agree, on random linear matroids over F_3."""
    m = random_linear_matroid(rng, n_max=n_max)
    s = [v for v in range(m.n) if rng.random() < 0.8] or list(range(m.n))
    inputs = digest(m.p, m.columns, tuple(s))
    ps = phi_star(m, s)
    pv = phi(m, s)
    agree = True
    for _ in range(20):
        sub = [v for v in range(m.n) if rng.random() < 0.5]
        agree = agree and (is_general_position(m, sub) == gp_by_flat_counts(m, sub))
    return [CheckRecord("fractional_dominates_integer", inputs, ps, pv, ps - pv, ps >= pv,
                        details={"phi_star": str(ps), "phi": pv}),
            CheckRecord("gp_definitions_agree", inputs, None, None, None, agree,
                        details={"subsets": 20})]


_RANDOM = {"n_max": 7, "d_max": 3}
_SLACK = {**_RANDOM, "tol": SLACK_TOL}

# token -> (parameter defaults, shared by every part; parts, each a
# (trial, default count) pair, run in this order)
SUITES = {
    "fp": (_SLACK, ((_fp, 200),)),
    "intersection": (_SLACK, ((_intersection, 100),)),
    "yi": (_RANDOM, ((_yi, 100),)),
    "mu-bound": (_SLACK, ((_mu_bound, 100),)),
    "eigenhom": (_SLACK, ((_eigenhom, 100),)),
    "countdeg": (_RANDOM, ((_countdeg, 100),)),
    "pluslap": (_SLACK, ((_pluslap, 100),)),
    "hodge": ({**_RANDOM, "kernel_tol": KERNEL_TOL}, ((_hodge, 100),)),
    "duality": (_RANDOM, ((_duality, 100),)),
    # the domination checks: single-layer bound, connectivity bound and
    # representation eigenvalue bound (the last at the default slack)
    "gamma": (_RANDOM, ((_domination, 50), (_connectivity, 100), (_eigenrep, 100))),
    "hall": ({**_RANDOM, "m_max": 5}, ((_hall, 100),)),
    "matroid-hall": ({"n_max": 9, "m_max": 3}, ((_matroid_hall, 100),)),
    "matroid-basics": ({"n_max": 9}, ((_matroid_basics, 50),)),
}


def run_suite(name, seed=0, trials=None, **params) -> VerificationReport:
    """Run one SUITES row and bundle its records into a report.

    Parameters the row does not take, or given as None, are dropped; a
    ``tol`` or ``kernel_tol`` that is nan or infinite is refused, since
    every comparison against it would pass or fail vacuously, and so is
    a ``kernel_tol`` that is not positive, below which no eigenvalue
    counts as zero.
    ``trials`` (at least 1) replaces every part's count.  The report's
    params are the parameters used plus ``trials``: a count for one
    part, a list of counts for several.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    defaults, parts = SUITES[name]
    used = {k: (v if params.get(k) is None else params[k]) for k, v in defaults.items()}
    for key in ("tol", "kernel_tol"):
        if key in used and not isfinite(used[key]):
            raise ValueError(f"{key} must be finite, got {used[key]}")
    if "kernel_tol" in used and used["kernel_tol"] <= 0:
        raise ValueError(f"kernel_tol must be positive, got {used['kernel_tol']}")
    counts = [default if trials is None else trials for _, default in parts]
    t0 = time.perf_counter()
    records = []
    for (trial, _), n in zip(parts, counts):
        for t in range(n):
            records.extend(trial(trial_rng(seed, t), **used))
    report_params = {"trials": counts[0] if len(counts) == 1 else counts, **used}
    return VerificationReport(name, seed, report_params, tuple(records),
                              wall_time_s=time.perf_counter() - t0)


# -- named reproductions ------------------------------------------------


def complete_multipartite_complex(r, size):
    """Clique complex of the complete r-partite graph with equal parts.

    Vertices j*size..(j+1)*size-1 form part j; the minimal non-faces are
    exactly the within-part pairs, so faces pick at most one vertex per
    part.  The result is a join of r discrete sets, a wedge of
    (size-1)^r spheres of dimension r-1.
    """
    if r < 2 or size < 1:
        raise ValueError("need at least two parts of at least one vertex")
    missing = [
        (j * size + a, j * size + b)
        for j in range(r)
        for a in range(size)
        for b in range(a + 1, size)
    ]
    return from_missing_faces(r * size, missing)


REPRODUCE_NAMES = ("rpartite", "ag23", "pg33", "ag23-sharpness")

# Exact Betti-4 of the 40-point geometry needs integer ranks of
# coboundary maps whose column counts reach the binomials below; the
# guard refuses anything past this many columns even under --stretch.
STRETCH_MAX_COLUMNS = 200_000


def run_reproduce(name, stretch=False, seed=0):
    """Recompute a named headline quantity and wrap it as a report.

    rpartite        mu_0 = (r-1)n/r and the Betti number of a wedge of
                    (size-1)^r spheres, for (r, size) in (2,3),(3,2),(4,2)
    ag23            mu_1 = 6 and betti_2 = 1 on the nine-point geometry
    pg33            mu_1 = 36 on the forty-point geometry; betti_4 sits
                    behind stretch and is refused with its matrix sizes
    ag23-sharpness  the vanishing threshold is met with equality while
                    betti_2 stays nonzero
    """
    t0 = time.perf_counter()
    records = []
    if name == "rpartite":
        for r, size in ((2, 3), (3, 2), (4, 2)):
            x = complete_multipartite_complex(r, size)
            mu = spectral_gap(x, 0)
            target = (r - 1) * x.n / r
            records.append(CheckRecord(
                "rpartite_gap", digest(r, size), mu, target, abs(mu - target),
                abs(mu - target) <= 1e-9))
            b = betti_exact(x, r - 1)
            wedge = (size - 1) ** r
            records.append(CheckRecord(
                "rpartite_betti", digest(r, size), b, wedge, b - wedge,
                b == wedge and b >= 1,
                details={"degree": r - 1}))
    elif name == "ag23":
        x = ag23_complex()
        mu = spectral_gap(x, 1)
        records.append(CheckRecord(
            "ag23_gap", digest(1), mu, 6.0, abs(mu - 6.0),
            abs(mu - 6.0) <= 1e-8))
        b = betti_exact(x, 2)
        records.append(CheckRecord(
            "ag23_betti", digest(2), b, 1, b - 1, b == 1))
    elif name == "pg33":
        x = pg33_complex()
        mu = spectral_gap(x, 1)
        records.append(CheckRecord(
            "pg33_gap", digest(1), mu, 36.0, abs(mu - 36.0),
            abs(mu - 36.0) <= 1e-6,
            note="" if stretch else "betti_4 needs the stretch flag"))
        if stretch:
            rows, cols = comb(x.n, 5), comb(x.n, 6)
            if cols > STRETCH_MAX_COLUMNS:
                raise ValueError(
                    f"betti_4 of the {x.n}-point geometry needs exact ranks "
                    f"of integer matrices with up to {rows} rows and {cols} "
                    f"columns; the stretch budget allows at most "
                    f"{STRETCH_MAX_COLUMNS} columns")
            records.append(CheckRecord(
                "pg33_betti", digest(4), betti_exact(x, 4), None, None, True))
    elif name == "ag23-sharpness":
        x = ag23_complex()
        mu = spectral_gap(x, 1)
        threshold = (1 - 1 / comb(3, 2)) * x.n
        records.append(CheckRecord(
            "sharp_equality", digest(1), mu, threshold, abs(mu - threshold),
            abs(mu - threshold) <= 1e-8,
            note="gap meets the vanishing threshold exactly"))
        rec = check_vanishing_threshold(x, 2)
        records.append(CheckRecord(
            rec.check, rec.inputs, rec.lhs, rec.rhs, rec.margin,
            rec.passed and rec.note.startswith("not applicable"),
            note=rec.note, details=rec.details))
        b = betti_exact(x, 2)
        records.append(CheckRecord(
            "sharp_betti", digest(2), b, 0, b, b != 0,
            note="cohomology survives at equality"))
    else:
        raise ValueError(
            f"unknown reproduction {name!r}; choose from {list(REPRODUCE_NAMES)}")
    return VerificationReport(f"reproduce-{name}", seed,
                              {"name": name, "stretch": bool(stretch)}, tuple(records),
                              wall_time_s=time.perf_counter() - t0)

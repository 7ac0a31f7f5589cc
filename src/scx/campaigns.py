"""Seeded verification campaigns over the theorem checkers.

Each runner draws instances through randomgen with a per-trial stream,
applies one family of checks, and returns a VerificationReport whose
records are ordered by trial index.  The CLI exposes the runners as
verify-suite tokens; the acceptance tests call them directly with the
published trial counts.  Reports are deterministic functions of
(seed, flags); wall time lives outside the canonical JSON.
"""

from __future__ import annotations

import inspect
import time
from fractions import Fraction
from itertools import count
from math import comb

import numpy as np

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
    laplacian_from_formula,
    laplacian_from_products,
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
    random_complex,
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
    "run_fp",
    "run_intersection",
    "run_yi",
    "run_mu_bound",
    "run_eigenhom",
    "run_countdeg",
    "run_pluslap",
    "run_hodge",
    "run_duality",
    "run_gamma",
    "run_connectivity",
    "run_eigenrep",
    "run_hall",
    "run_matroid_hall",
    "run_matroid_basics",
    "run_reproduce",
    "REPRODUCE_NAMES",
    "complete_multipartite_complex",
]


def _report(suite, seed, params, records, t0):
    return VerificationReport(suite, seed, params, tuple(records),
                              wall_time_s=time.perf_counter() - t0)


def run_fp(seed=0, trials=200, n_max=7, d_max=3, tol=SLACK_TOL):
    """Gap recursion at every admissible degree of each random complex."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        for k in range(x.max_missing_dim(), x.dim + 2):
            records.append(check_gap_recursion(x, k, tol=tol))
    return _report("fp", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_intersection(seed=0, trials=100, n_max=7, d_max=3, tol=SLACK_TOL):
    """Intersection gap bound on random pairs sharing a vertex set."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = rng.randint(4, n_max)
        pair = [random_complex(rng, n_max, d_max, n=n) for _ in range(2)]
        records.append(check_intersection_gap(pair, rng.randint(0, 2), tol=tol))
    return _report("intersection", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_yi(seed=0, trials=100, n_max=7, d_max=3):
    """Complement identity in every missing dimension of each complex."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        for i in sorted(x.missing_dims()):
            records.append(check_complement_identity(x, i))
    return _report("yi", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max}, records, t0)


def run_mu_bound(seed=0, trials=100, n_max=7, d_max=3, tol=SLACK_TOL):
    """Spectral-gap lower bound from missing-layer top eigenvalues."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        for k in range(0, x.dim + 1):
            records.append(check_gap_lower_bound(x, k, tol=tol))
    return _report("mu-bound", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_eigenhom(seed=0, trials=100, n_max=7, d_max=3, tol=SLACK_TOL):
    """Connectivity-weighted eigenvalue sums reach n."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        records.append(check_connectivity_eigen(random_complex(rng, n_max, d_max), tol=tol))
    return _report("eigenhom", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_countdeg(seed=0, trials=100, n_max=7, d_max=3):
    """Facet degree sums over every face in the top two dimensions,
    folded into one exact record per complex."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
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
        records.append(CheckRecord(
            "degree_sum_sweep", digest(x.n, x.missing_masks), None, None,
            worst, ok and checked > 0, details={"faces_checked": checked}))
    return _report("countdeg", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max}, records, t0)


def run_pluslap(seed=0, trials=100, n_max=7, d_max=3, tol=SLACK_TOL):
    """Upper-Laplacian energy of a random cochain on a missing-layer
    complex against its link-difference expansion."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        i = rng.choice(sorted(x.missing_dims()))
        y = x.missing_complex(i)
        phi = [rng.gauss(0.0, 1.0) for _ in range(y.n_faces(i - 1))]
        records.append(check_upper_energy(y, phi, tol=tol))
    return _report("pluslap", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_hodge(seed=0, trials=100, n_max=7, d_max=3, kernel_tol=KERNEL_TOL):
    """Entrywise agreement of the two Laplacian assemblies and of the
    harmonic-kernel Betti numbers with the exact ranks, at every degree."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        inputs = digest(x.n, x.missing_masks)
        worst = 0
        for k in range(-1, x.dim + 1):
            fm, fp = laplacian_from_formula(x, k)
            pm, pp = laplacian_from_products(x, k)
            diff = max(int(np.abs(fm - pm).max()), int(np.abs(fp - pp).max()))
            worst = max(worst, diff)
        records.append(CheckRecord(
            "laplacian_assembly", inputs, None, None, worst, worst == 0,
            details={"degrees": [-1, x.dim]}))
        table = {}
        agree = True
        for k in range(-1, x.dim + 1):
            h = betti_hodge(x, k, tol=kernel_tol)
            e = betti_exact(x, k)
            table[k] = [h, e]
            agree = agree and h == e
        records.append(CheckRecord(
            "hodge_betti", inputs, None, None, 0 if agree else 1, agree,
            details={"betti": table}))
    return _report("hodge", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max,
                    "kernel_tol": kernel_tol}, records, t0)


def run_duality(seed=0, trials=100, n_max=7, d_max=3):
    """Exact primal = dual for the covering value of random
    representations.  The primal and its packing dual come from one
    certified solve: rep_value's LP checks both feasibilities, equal
    objectives and complementary slackness, and raises on any failure."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        p = random_representation(rng, x)
        inputs = digest(x.n, x.missing_masks, sorted(p.matrices))
        try:
            value = rep_value(p)
        except RuntimeError as exc:  # pragma: no cover - duality never breaks
            records.append(CheckRecord("lp_duality", inputs, None, None,
                                       None, False, note=str(exc)))
            continue
        records.append(CheckRecord(
            "lp_duality", inputs, value, value, Fraction(0), True,
            details={"value": str(value)}))
    return _report("duality", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max}, records, t0)


def run_gamma(seed=0, trials=50, n_max=6, d_max=3):
    """Covering value against C(gamma-tilde, d) on single-layer
    complexes with a finite totally dominating number."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_single_layer_complex(rng, n_max, d_max)
        records.append(check_domination_bound(x, random_representation(rng, x)))
    return _report("gamma", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max}, records, t0)


def run_connectivity(seed=0, trials=100, n_max=7, d_max=3):
    """Connectivity bound with the all-ones representation."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        records.append(check_connectivity_bound(random_complex(rng, n_max, d_max)))
    return _report("connectivity", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max}, records, t0)


def run_eigenrep(seed=0, trials=100, n_max=7, d_max=3, tol=SLACK_TOL):
    """Missing-layer top eigenvalues against the representation bound."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_complex(rng, n_max, d_max)
        records.append(check_rep_eigen_bound(x, random_representation(rng, x), tol=tol))
    return _report("eigenrep", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max, "tol": tol},
                   records, t0)


def run_hall(seed=0, trials=100, n_max=7, d_max=3, m_max=5):
    """Colorful simplices on (complex, partition) pairs where the
    connectivity hypothesis holds; inapplicable draws are rerolled, with
    a fallback to one class (always applicable) after 60 attempts."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        for attempt in count():
            x = random_complex(rng, n_max, d_max)
            m = rng.randint(1, min(m_max, x.n)) if attempt < 60 else 1
            rec = check_colorful_hall(x, random_partition(rng, x.n, m))
            if "not applicable" not in rec.note:
                records.append(rec)
                break
    return _report("hall", seed,
                   {"trials": trials, "n_max": n_max, "d_max": d_max,
                    "m_max": m_max}, records, t0)


def run_matroid_hall(seed=0, trials=100, n_max=9, m_max=3):
    """Fractional general-position Hall check on random matroids with
    random partitions; zero tolerance for a firing hypothesis without a
    colorful general-position transversal."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        m = random_matroid(rng, n_max=n_max)
        part = random_partition(rng, m.n, rng.randint(2, m_max))
        records.append(check_fractional_gp_hall(m, part))
    return _report("matroid-hall", seed,
                   {"trials": trials, "n_max": n_max, "m_max": m_max}, records, t0)


def run_matroid_basics(seed=0, trials=50, n_max=9):
    """phi-star dominates phi exactly, and the two general-position
    definitions agree, on random linear matroids over F_3."""
    t0 = time.perf_counter()
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        m = random_linear_matroid(rng, n_max=n_max)
        s = [v for v in range(m.n) if rng.random() < 0.8] or list(range(m.n))
        inputs = digest(m.p, m.columns, tuple(s))
        ps = phi_star(m, s)
        pv = phi(m, s)
        records.append(CheckRecord(
            "fractional_dominates_integer", inputs, ps, pv, ps - pv, ps >= pv,
            details={"phi_star": str(ps), "phi": pv}))
        agree = True
        for _ in range(20):
            sub = [v for v in range(m.n) if rng.random() < 0.5]
            agree = agree and (is_general_position(m, sub) == gp_by_flat_counts(m, sub))
        records.append(CheckRecord(
            "gp_definitions_agree", inputs, None, None, None, agree,
            details={"subsets": 20}))
    return _report("matroid-basics", seed, {"trials": trials, "n_max": n_max},
                   records, t0)


def _run_gamma_token(seed=0, trials=None, n_max=7, d_max=3):
    """CLI surface for the domination checks: the single-layer bound,
    the connectivity bound and the representation eigenvalue bound."""
    t0 = time.perf_counter()
    parts = [
        run_gamma(seed, trials or 50, min(n_max, 6), d_max),
        run_connectivity(seed, trials or 100, n_max, d_max),
        run_eigenrep(seed, trials or 100, n_max, d_max),
    ]
    records = [r for rep in parts for r in rep.records]
    return _report("gamma", seed,
                   {"trials": [len(rep.records) for rep in parts],
                    "n_max": n_max, "d_max": d_max}, records, t0)


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
    return _report(f"reproduce-{name}", seed,
                   {"name": name, "stretch": bool(stretch)}, records, t0)


SUITES = {
    "fp": run_fp,
    "intersection": run_intersection,
    "yi": run_yi,
    "mu-bound": run_mu_bound,
    "eigenhom": run_eigenhom,
    "countdeg": run_countdeg,
    "pluslap": run_pluslap,
    "hodge": run_hodge,
    "duality": run_duality,
    "gamma": _run_gamma_token,
    "hall": run_hall,
    "matroid-hall": run_matroid_hall,
}


def run_suite(name, seed=0, trials=None, n_max=None, d_max=None, **tols) -> VerificationReport:
    """Dispatch a verify-suite token; arguments left as None fall back
    to the runner's own defaults, and tolerance knobs a runner does not
    take are dropped."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    allowed = set(inspect.signature(fn).parameters)
    kwargs = {"trials": trials, "n_max": n_max, "d_max": d_max, **tols}
    kwargs = {k: v for k, v in kwargs.items() if v is not None and k in allowed}
    return fn(seed=seed, **kwargs)

"""Acceptance gate: fifteen headline checks at their published sizes.

Each test prints one pass/fail line (routed past pytest's capture so the
lines always reach the terminal) and then asserts.  The campaigns run
through run_suite at their full trial counts; nothing here reduces a
count or loosens a tolerance to save time.
"""

import sys
import time
from itertools import combinations

import pytest

from scx.campaigns import run_reproduce, run_suite
from scx.homology import betti_exact
from scx.matroids import ag23_matroid, phi
from scx.randomgen import random_complex, trial_rng

_SUITE_T0 = time.perf_counter()
_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_announcements(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def announce(num, ok, text):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:  # pragma: no cover - direct invocation outside pytest
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def first_failure(records):
    for r in records:
        if not r.passed:
            return f"; first failure {r.check} {r.inputs} note={r.note!r}"
    return ""


def test_criterion_01_nine_point_gap_and_betti():
    t0 = time.perf_counter()
    rep = run_reproduce("ag23")
    dt = time.perf_counter() - t0
    ok = rep.passed and dt < 5.0
    announce(1, ok, f"nine-point geometry: mu_1 = 6 within 1e-8 and betti_2 = 1 "
                    f"in {dt:.2f}s{first_failure(rep.records)}")


def test_criterion_02_forty_point_gap():
    t0 = time.perf_counter()
    rep = run_reproduce("pg33")
    dt = time.perf_counter() - t0
    with pytest.raises(ValueError, match="stretch budget"):
        run_reproduce("pg33", stretch=True)
    ok = rep.passed and dt < 120.0
    announce(2, ok, f"forty-point geometry: mu_1 = 36 within 1e-6 on the 780x780 "
                    f"Laplacian in {dt:.2f}s; degree-4 homology refused with its "
                    f"sizes behind the stretch flag{first_failure(rep.records)}")


def test_criterion_03_multipartite_gaps_and_wedges():
    rep = run_reproduce("rpartite")
    ok = rep.passed
    announce(3, ok, "complete multipartite: mu_0 = (r-1)n/r within 1e-9 and a "
                    f"nonzero top Betti number for all three shapes{first_failure(rep.records)}")


def test_criterion_04_gap_recursion_campaign():
    t0 = time.perf_counter()
    rep = run_suite("fp", seed=0, trials=200, n_max=7, d_max=3, tol=1e-9)
    dt = time.perf_counter() - t0
    ok = rep.passed and dt < 180.0
    announce(4, ok, f"gap recursion: {len(rep.records)} degree checks over 200 "
                    f"random complexes, 1e-9 slack, in {dt:.2f}s{first_failure(rep.records)}")


def _hodge_rep(cache={}):
    if "rep" not in cache:
        cache["rep"] = run_suite("hodge", seed=0, trials=100)
    return cache["rep"]


def test_criterion_05_dual_assembly_exact():
    rep = _hodge_rep()
    asm = [r for r in rep.records if r.check == "laplacian_assembly"]
    ok = len(asm) == 100 and all(r.passed and r.margin == 0 for r in asm)
    announce(5, ok, "dual assembly: formula and product Laplacians identical "
                    f"(integer-exact) on {len(asm)} random complexes, every degree")


def test_criterion_06_spectral_betti_matches_exact():
    rep = _hodge_rep()
    hb = [r for r in rep.records if r.check == "hodge_betti"]
    ok = len(hb) == 100 and all(r.passed for r in hb)
    announce(6, ok, "kernel-counted and rational-rank Betti numbers agree on "
                    f"{len(hb)} random complexes, every degree")


def test_criterion_07_complement_identity():
    rep = run_suite("yi", seed=0, trials=100)
    ok = rep.passed and len(rep.records) >= 100
    announce(7, ok, f"complement identity entrywise exact: {len(rep.records)} "
                    f"missing layers over 100 random complexes{first_failure(rep.records)}")


def test_criterion_08_degree_sum_identity():
    rep = run_suite("countdeg", seed=0, trials=100)
    ok = rep.passed and len(rep.records) == 100
    announce(8, ok, "degree-sum identity exact on 100 random complexes, faces "
                    f"from the top two dimensions{first_failure(rep.records)}")


def _gamma_records(check, cache={}):
    # the gamma token runs the domination, connectivity and representation
    # eigenvalue families at their published counts (50, 100, 100)
    if "rep" not in cache:
        cache["rep"] = run_suite("gamma", seed=0)
    return [r for r in cache["rep"].records if r.check == check]


def test_criterion_09_five_spectral_families():
    records = {
        "intersection": run_suite("intersection", seed=0, trials=100).records,
        "gap lower bound": run_suite("mu-bound", seed=0, trials=100).records,
        "connectivity eigenvalue": run_suite("eigenhom", seed=0, trials=100).records,
        "upper energy": run_suite("pluslap", seed=0, trials=100).records,
        "representation eigenvalue": _gamma_records("rep_eigen_bound"),
    }
    bad = [name for name, recs in records.items() if not all(r.passed for r in recs)]
    ok = not bad and len(records["representation eigenvalue"]) == 100
    announce(9, ok, "five spectral inequality families at 100 seeds each, "
                    f"1e-9 slack; failures: {bad or 'none'}")


def test_criterion_10_lp_duality_exact():
    rep = run_suite("duality", seed=0, trials=100)
    dual = [r for r in rep.records if r.check == "lp_duality"]
    ok = rep.passed and len(dual) == 100 and all(r.margin == 0 for r in dual)
    announce(10, ok, "primal and dual representation values coincide as exact "
                     f"rationals on {len(dual)} random instances{first_failure(rep.records)}")


def test_criterion_11_domination_bound():
    recs = _gamma_records("domination_bound")
    ok = len(recs) == 50 and all(r.passed for r in recs)
    announce(11, ok, "domination bound |P| <= C(gamma, d) with a validated "
                     f"dominating construction on 50 single-layer complexes"
                     f"{first_failure(recs)}")


def test_criterion_12_connectivity_bound():
    recs = _gamma_records("connectivity_bound")
    ok = len(recs) == 100 and all(r.passed for r in recs)
    announce(12, ok, "connectivity bound with all-ones representations on 100 "
                     f"random complexes{first_failure(recs)}")


def test_criterion_13_multiplier_invariance():
    checked = 0
    ok = True
    detail = ""
    for t in range(50):
        rng = trial_rng(900, t)
        x = random_complex(rng, n_max=5, d_max=3)
        counts = [rng.randint(1, 2) for _ in range(x.n)]
        xa = x.blowup(counts)
        for k in range(-1, max(x.dim, xa.dim) + 1):
            checked += 1
            if betti_exact(xa, k) != betti_exact(x, k):
                ok = False
                detail = f"; first mismatch at trial {t} degree {k}"
                break
        if not ok:
            break
    announce(13, ok, f"vertex-multiplied complexes keep every Betti number: "
                     f"{checked} degree comparisons over 50 pairs{detail}")


def _nine_point_cap_by_exhaustion():
    pts = [(v // 3, v % 3) for v in range(9)]

    def is_cap(s):
        for a, b, c in combinations(s, 3):
            if all((pts[a][i] + pts[b][i] + pts[c][i]) % 3 == 0 for i in range(2)):
                return False
        return True

    return max(sum(1 for v in range(9) if mask >> v & 1)
               for mask in range(1 << 9)
               if is_cap([v for v in range(9) if mask >> v & 1]))


def test_criterion_14_matroid_suite():
    oracle = _nine_point_cap_by_exhaustion()
    largest = phi(ag23_matroid())
    basics = run_suite("matroid-basics", seed=0, trials=50)
    hall = run_suite("matroid-hall", seed=0, trials=100)
    ok = oracle == 4 and largest == 4 and basics.passed and hall.passed
    announce(14, ok, f"matroid suite: exhaustive nine-point cap size {oracle} "
                     f"matches phi {largest}; phi-star >= phi and definition "
                     f"cross-checks on 50 linear matroids; colorful threshold "
                     f"assertion on 100 instances{first_failure(basics.records)}"
                     f"{first_failure(hall.records)}")


def test_criterion_15_colorful_simplex():
    rep = run_suite("hall", seed=0, trials=100, m_max=5)
    ok = rep.passed and len(rep.records) == 100
    announce(15, ok, "colorful simplex found on 100 partitioned complexes "
                     f"satisfying the connectivity hypothesis{first_failure(rep.records)}")


def test_total_runtime_budget():
    dt = time.perf_counter() - _SUITE_T0
    ok = dt < 600.0
    announce(0, ok, f"full acceptance suite wall time {dt:.1f}s (budget 600s)")

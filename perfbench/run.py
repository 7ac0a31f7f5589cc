"""The scx benchmark: closed-loop workloads with checked outputs.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 30 --trace 0

One caller in one process runs whole passes of the workload's items, each
item starting when the previous one has finished, until another pass
would overrun ``--seconds``.  Every output is compared with its golden.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes untraced and then traced, and prints the per-layer metrics.  The
last stdout line is the result object; the line before it holds the
environment and the details.  Any item that raises, does not pass or
differs from its golden makes the exit code 1.

Times are CPU seconds of the process doing the work (``process_time``,
or the children's rusage for subprocesses), so time the vCPU was not
running does not count; the run is single-threaded, BLAS included.  In
``--trace 0`` runs they are then scaled to a reference host speed by an
interleaved probe (see speed.py).  Raw CPU and wall times are in the
details.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

# One BLAS thread: the loop has one caller, and idle BLAS threads spin,
# which would charge CPU time that depends on the scheduler.  Set before
# numpy loads; subprocesses inherit it.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
COLD_RUNS = 9
IMPORT_RUNS = 5
SLOWEST = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_frac": "1",
    "cold_start_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "complexes.faces.calls": "count",
    "complexes.faces.self_s": "s",
    "complexes.faces.enumerated": "count",
    "homology.coboundary.calls": "count",
    "homology.coboundary.self_s": "s",
    "homology.coboundary.entries": "count",
    "homology.laplacian.formula.self_s": "s",
    "homology.laplacian.formula.entries": "count",
    "homology.laplacian.products.self_s": "s",
    "homology.laplacians.calls": "count",
    "homology.laplacians.hit_ratio": "1",
    "homology.spectrum.calls": "count",
    "homology.spectrum.hit_ratio": "1",
    "homology.betti_exact.calls": "count",
    "homology.betti_exact.self_s": "s",
    "homology.eta.calls": "count",
    "numerics.eigen.calls": "count",
    "numerics.eigen.self_s": "s",
    "numerics.eigen.max_side": "count",
    "numerics.eigen.flops_est": "flop",
    "numerics.eigen.bytes_est": "B",
    "numerics.eigen.warnings": "count",
    "numerics.rank.calls": "count",
    "numerics.rank.self_s": "s",
    "numerics.rank.entries": "count",
    "numerics.rank.max_side": "count",
    "numerics.lp.calls": "count",
    "numerics.lp.self_s": "s",
    "numerics.lp.entries": "count",
    "numerics.lp.optimal_ratio": "1",
    "domination.self_s": "s",
    "domination.rep_value.calls": "count",
    "domination.rep_value.self_s": "s",
    "domination.total_domination.self_s": "s",
    "domination.hall.self_s": "s",
    "domination.hall.applicable_ratio": "1",
    "matroids.self_s": "s",
    "matroids.phi.self_s": "s",
    "matroids.phi_star.self_s": "s",
    "matroids.phi_star.calls": "count",
    "matroids.gp_search.self_s": "s",
    "matroids.rank_mask.calls": "count",
    "spectral_checks.self_s": "s",
    "randomgen.self_s": "s",
    "campaigns.self_s": "s",
    "reports.self_s": "s",
    "item.self_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.layers_frac": "1",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def use_checkout_src():
    if not (SRC / "scx" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scx package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def setup(workload):
    """Import scx, build the builtins and run the warm-up item; returns
    (seconds, warm-up key, warm-up output)."""
    t0 = time.process_time()
    import items

    items.build_builtins()
    key = items.WORKLOADS[workload]["warmup"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        text = items.run_item(key)
    return time.process_time() - t0, key, text


def children_cpu():
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def timed_subprocess(cmd):
    """Run ``cmd`` to its end; returns (its CPU seconds, the process)."""
    c0 = children_cpu()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)
    return children_cpu() - c0, proc


def reference_start():
    from speed import REF_START_CODE

    cpu, proc = timed_subprocess([sys.executable, "-c", REF_START_CODE])
    if proc.returncode != 0:
        raise RuntimeError(f"reference interpreter failed: {proc.stderr.strip()}")
    return cpu


def scaled_runs(cmd, n):
    """``n`` runs of ``cmd``, each between two fresh reference interpreters;
    returns (factor to reference speed, CPU seconds, process) per run.
    Start-up work slows with the host's memory more than the in-process
    probe does, so fresh processes are scaled by a fresh process."""
    from speed import REF_START_S

    ref = [reference_start()]
    runs = []
    for _ in range(n):
        cpu, proc = timed_subprocess(cmd)
        ref.append(reference_start())
        runs.append((2 * REF_START_S / (ref[-2] + ref[-1]), cpu, proc))
    return runs


def probe_setup(workload):
    """Median set-up time over fresh processes, at reference speed."""
    times = []
    for factor, _, proc in scaled_runs([sys.executable, str(HERE / "run.py"),
                                        "--probe-setup", "--workload", workload], SETUP_PROBES):
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) * factor)
    return statistics.median(times)


def median_cold_start(items, goldens, argv):
    """Median CPU time of a fresh CLI process, at reference speed."""
    times = []
    for factor, cpu, proc in scaled_runs([sys.executable, "-m", "scx.cli", *argv], COLD_RUNS):
        diff = items.mismatch(items.parse_output(goldens["cold"]), items.parse_output(proc.stdout))
        if proc.returncode != 0 or diff:
            raise RuntimeError(f"cold start `scx {' '.join(argv)}` wrong: {diff or proc.stderr}")
        times.append(cpu * factor)
    return statistics.median(times)


def median_import():
    times = []
    for _ in range(IMPORT_RUNS):
        cpu, proc = timed_subprocess([sys.executable, "-c", "import scx"])
        if proc.returncode != 0:
            raise RuntimeError(f"import scx failed: {proc.stderr.strip()}")
        times.append(cpu)
    return statistics.median(times)


class Loop:
    """Latencies, outputs and failures of one sequence of items."""

    def __init__(self, items, goldens, speed=None):
        self.items = items
        self.speed = speed
        self.probed_at = []
        self.goldens = goldens["items"]
        self.keys = []
        self.latency = []
        self.wall = []
        self.outputs = []
        self.failures = []
        self.runtime_warnings = 0

    def run(self, key, tracer=None):
        i = len(self.keys)
        if self.speed:
            self.probed_at.append(self.speed.probe())
        text, error = None, None
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    text = self.items.run_item(key)
                else:
                    with tracer.item_span(i):
                        text = self.items.run_item(key)
            except Exception:  # a failed item is counted, not fatal
                error = traceback.format_exc(limit=-4)
            dt = time.process_time() - c0
            wall = time.perf_counter() - t0
        self.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in log)
        name = self.items.key_str(key)
        if error is None:
            error = self.items.check_output(self.goldens[name]["output"], text)
        if error is not None:
            self.failures.append({"key": name, "replay": self.items.replay(key), "error": error})
        self.keys.append(key)
        self.latency.append(dt)
        self.wall.append(wall)
        self.outputs.append(text)

    def scaled(self):
        """Item CPU times at reference speed; unscaled without a probe."""
        if not self.speed:
            return list(self.latency)
        return [self.speed.scale(dt, at) for dt, at in zip(self.latency, self.probed_at)]

    def passes(self, pass_items, seconds, tracer=None):
        """Whole passes until another would end after ``seconds``."""
        t0 = time.perf_counter()
        n = 0
        while True:
            start = time.perf_counter()
            for key in pass_items:
                self.run(key, tracer)
            n += 1
            now = time.perf_counter()
            if now - t0 + (now - start) > seconds:
                if self.speed:
                    self.speed.probe()  # the last item's probe after it
                return n


def environment():
    import numpy
    import scx.numerics.eigen as eigen
    import scx.numerics.lp as lp

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    backend = getattr(eigen, "active_backend", None)
    arith = getattr(lp, "_Q", None)
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "eigen_backend": backend() if backend else None,
        "lp_arithmetic": getattr(arith, "__name__", None),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "clock": "process CPU time",
    }


def quantile(values, p):
    """Harrell-Davis estimate of the ``p`` quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density at their
    rank midpoints.  Unlike a single order statistic it does not jump
    with the timing noise of the one item that lands on the rank."""
    ranked = sorted(values)
    n = len(ranked)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * x for wi, x in zip(w, ranked)) / sum(w)


def tail(latency, pass_len):
    """Latency at the tail percentile, which leaves ten samples per pass
    beyond it."""
    return quantile(latency, 1 - 10 / pass_len)


def slowest(items, loop):
    by_key = defaultdict(list)
    for key, dt in zip(loop.keys, loop.latency):
        by_key[key].append(dt)
    top = sorted(by_key.items(), key=lambda kv: -statistics.median(kv[1]))[:SLOWEST]
    return [{"key": items.key_str(k), "replay": items.replay(k),
             "median_ms": round(1e3 * statistics.median(v), 3)} for k, v in top]


def prepare(workload, seed):
    """Set up in this process, check the warm-up item and build the pass."""
    setup_self, warm_key, warm_text = setup(workload)
    import items

    goldens = items.load_goldens(workload)
    warm = {"key": items.key_str(warm_key), "in_process_setup_s": setup_self,
            "mismatch": items.check_output(goldens["items"][items.key_str(warm_key)]["output"],
                                           warm_text)}
    return items, goldens, warm, items.pass_items(workload, seed, goldens)


def end_to_end(workload, seed, seconds):
    from speed import REF_PROBE_S, Speed

    items, goldens, warm, pass_items = prepare(workload, seed)
    speed = Speed()
    speed.probe(10)  # warm the probe's own first calls
    loop = Loop(items, goldens, speed)
    t0 = time.perf_counter()
    n_passes = loop.passes(pass_items, seconds)
    loop_wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_pct = items.tail_percentile(len(pass_items))
    n = len(loop.latency)
    scaled = loop.scaled()
    metrics = {
        "setup_s": probe_setup(workload),
        "items_per_s": n / sum(scaled),
        "item_p50_ms": 1e3 * quantile(scaled, 0.5),
        "item_tail_ms": 1e3 * tail(scaled, len(pass_items)),
        "ok_frac": 1 - len(loop.failures) / n,
        "cold_start_s": median_cold_start(items, goldens, items.WORKLOADS[workload]["cold"]),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "mode": "end_to_end", "workload": workload, "seed": seed, "seconds": seconds,
        "closed_loop": "one caller, one process, next item after the previous one",
        "pass_len": len(pass_items), "passes": n_passes, "items": n,
        "loop_wall_s": loop_wall, "item_scaled_s": sum(scaled),
        "item_cpu_s": sum(loop.latency), "item_wall_s": sum(loop.wall),
        "cpu_items_per_s": n / sum(loop.latency), "wall_items_per_s": n / sum(loop.wall),
        "cpu_item_p50_ms": 1e3 * statistics.median(loop.latency),
        "wall_item_p50_ms": 1e3 * statistics.median(loop.wall),
        "probe": {"ref_ms": 1e3 * REF_PROBE_S, "runs": len(speed.samples),
                  "median_ms": 1e3 * statistics.median(speed.samples),
                  "quartiles_ms": [1e3 * q for q in statistics.quantiles(speed.samples, n=4)]},
        "item_tail": {"percentile": tail_pct, "samples": n,
                      "samples_beyond": n * 10 // len(pass_items)},
        "fail_frac": len(loop.failures) / n,
        "failures": loop.failures[:20],
        "warmup": warm,
        "runtime_warnings": loop.runtime_warnings,
    }
    failed = len(loop.failures) + (warm["mismatch"] is not None)
    return metrics, END_TO_END, details, n, failed


def layer_metrics(tracer, loop_traced, loop_plain, traced_wall):
    selfs = tracer.self_times()
    has_child = set(tracer.parent)
    hits = defaultdict(int)
    for i, lid in enumerate(tracer.layer):
        if i not in has_child:
            hits[tracer.layers[lid]] += 1
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in tracer.layers}
    values.update(counts)
    for layer in ("homology.laplacians", "homology.spectrum"):
        values[f"{layer}.hit_ratio"] = ratio(hits[layer], counts[f"{layer}.calls"])
    values["numerics.eigen.warnings"] = tracer.warnings.get("numerics.eigen", 0)
    values["numerics.lp.optimal_ratio"] = ratio(counts["numerics.lp.optimal"],
                                                counts["numerics.lp.calls"])
    values["domination.hall.applicable_ratio"] = ratio(counts["domination.hall.applicable"],
                                                       counts["domination.hall.calls"])
    traced, untraced = sum(loop_traced.scaled()), sum(loop_plain.scaled())
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.layers_frac"] = ratio(sum(v for k, v in selfs.items() if k != "item"),
                                        traced_wall)
    values["cli.import_s"] = median_import()
    return values, selfs


def traced(workload, seed, seconds):
    from spans import Tracer
    from speed import Speed

    items, goldens, warm, pass_items = prepare(workload, seed)
    speed = Speed()
    speed.probe(10)
    plain = Loop(items, goldens, speed)
    n_passes = plain.passes(pass_items, seconds / 2)
    tracer = Tracer()
    traced_loop = Loop(items, goldens, speed)
    with tracer.installed():
        for key in plain.keys:
            traced_loop.run(key, tracer)
    speed.probe()
    traced_wall = sum(traced_loop.wall)
    differ = [items.key_str(k) for k, a, b in zip(plain.keys, plain.outputs, traced_loop.outputs)
              if a != b]
    values, selfs = layer_metrics(tracer, traced_loop, plain, traced_wall)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-s{seed}.jsonl.gz"
    tracer.write(spans, [items.key_str(k) for k in plain.keys])
    details = {
        "mode": "traced", "workload": workload, "seed": seed, "seconds": seconds,
        "passes": n_passes, "items": len(plain.keys), "spans": len(tracer.layer),
        "spans_file": str(spans.relative_to(HERE.parent)),
        "self_share": {k: round(v / traced_wall, 4)
                       for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])},
        "warnings_by_layer": dict(tracer.warnings),
        "slowest_items": slowest(items, plain),
        "traced_outputs_differ": differ,
        "failures": (plain.failures + traced_loop.failures)[:20],
        "warmup": warm,
    }
    failed = (len(plain.failures) + len(traced_loop.failures) + len(differ)
              + (warm["mismatch"] is not None))
    return values, PER_LAYER, details, len(plain.keys) + len(traced_loop.keys), failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("spectral", "exact", "geometry"))
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the inputs and their order; 0 is the default, "
                         "1 is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up and print the seconds")
    args = ap.parse_args(argv)
    use_checkout_src()
    if args.probe_setup:
        seconds, key, text = setup(args.workload)
        import items

        golden = items.load_goldens(args.workload)["items"][items.key_str(key)]["output"]
        diff = items.check_output(golden, text)
        if diff:
            sys.exit(f"warm-up item {items.key_str(key)} wrong: {diff}")
        print(seconds)
        return 0
    run = traced if args.trace else end_to_end
    values, units, details, attempted, failed = run(args.workload, args.seed, args.seconds)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    doc = {"environment": environment(), "details": details}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-s{args.seed}-{'traced' if args.trace else 'e2e'}.json"
    (OUT / name).write_text(json.dumps({**doc, "result": result}, indent=1) + "\n")
    print(json.dumps(doc))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

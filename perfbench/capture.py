"""Capture the goldens: every corpus item's output and cost.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/capture.py [WORKLOAD ...]

Costs are single wall-clock timings; they only order each suite's
candidates into the always-run heaviest ones and matched pairs (see
items.py), so their noise does not matter much.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()
import items  # noqa: E402


def capture(workload):
    spec = items.WORKLOADS[workload]
    keys = list(spec["named"])
    for suite in spec["suites"]:
        keys += [("verify", suite, s) for s in items.corpus_seeds(workload, suite)]
    out = {}
    for key in keys:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            text = items.run_item(key)
            cost = time.perf_counter() - t0
        parsed = items.parse_output(text)
        if isinstance(parsed, dict) and not parsed.get("passed", True):
            raise SystemExit(f"{items.key_str(key)} did not pass; not a usable golden")
        out[items.key_str(key)] = {"output": parsed, "cost_s": round(cost, 6)}
    cold = subprocess.run([sys.executable, "-m", "scx.cli", *spec["cold"]],
                          capture_output=True, text=True, check=True,
                          env=run.child_env()).stdout
    items.GOLDEN_DIR.mkdir(exist_ok=True)
    with gzip.GzipFile(items.golden_path(workload), "wb", mtime=0) as fh:
        fh.write(json.dumps({"items": out, "cold": cold}, sort_keys=True).encode())
    print(f"{workload}: {len(out)} items, {sum(v['cost_s'] for v in out.values()):.1f} s")


if __name__ == "__main__":
    for name in sys.argv[1:] or items.WORKLOADS:
        capture(name)

"""Workloads, items, goldens and the output check.

An item is one call into the public scx API whose result can be checked:
one ``run_suite(SUITE, seed=s, trials=1)``, one ``run_reproduce(name)``,
the pg33 f-vector, or one Betti vector.  Its key names it and gives the
CLI command that reruns it.

Each workload has a golden corpus: for every suite it draws from, two
candidate trial seeds per slot, captured with their outputs and costs by
``capture.py``.  A pass runs each suite's heaviest candidates, the
candidates that hold the pass's median cost, and one of each remaining
pair of cost neighbours, picked by the run seed, which also sets the
order.  So every seed sees mostly different inputs of matched cost,
which keeps runs with different seeds comparable, and every input has a
golden.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from pathlib import Path

import scx

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"

#: Relative slack on floats in outputs: the library's published SLACK_TOL.
FLOAT_SLACK = 1e-9

# Why each workload exists, and which layer does most of its work, is in
# README.md.  ``suites`` gives the slots of each verify suite (a pass runs
# slots + HEAVIEST/2 of its items); ``named`` the items run once per pass.
WORKLOADS = {
    "spectral": {
        "suites": {"fp": 60, "intersection": 60, "yi": 60, "mu-bound": 60, "eigenhom": 60},
        "named": [],
        "warmup": ("verify", "eigenhom", 0),
        "cold": ["spectrum", "ag23", "--dim", "1"],
    },
    "exact": {
        "suites": {"duality": 30, "gamma": 30},
        "named": [],
        "warmup": ("verify", "gamma", 5),
        "cold": ["matroid", "phistar", "--matroid", "builtin:AG23"],
    },
    "geometry": {
        "suites": {"hodge": 15, "hall": 60, "matroid-hall": 20},
        "named": [("reproduce", name, None) for name in scx.REPRODUCE_NAMES]
        + [("fvector", "pg33", None), ("betti", "pg33-0..12", None)],
        "warmup": ("reproduce", "ag23", None),
        "cold": ["betti", "ag23", "--dim", "2"],
    },
}

#: Suite arguments beyond seed and trials, part of each item's key.
SUITE_ARGS = {"hodge": {"n_max": 8}}

#: Vertices of pg33 whose induced complex gives the Betti item; other
#: subsets of this size can take minutes.
BETTI_POINTS = range(13)


def key_str(key):
    kind, name, seed = key
    return f"{kind}:{name}" if seed is None else f"{kind}:{name}:{seed}"


def replay(key):
    """Shell command that reruns the item from a checkout's root."""
    kind, name, seed = key
    if kind == "verify":
        extra = "".join(f" --{k.replace('_', '-')} {v}" for k, v in SUITE_ARGS.get(name, {}).items())
        return f"PYTHONPATH=src python3 -m scx.cli verify {name} --seed {seed} --trials 1{extra}"
    if kind == "reproduce":
        return f"PYTHONPATH=src python3 -m scx.cli reproduce {name}"
    # no CLI subcommand computes these two; the one-liner calls the same API
    code = {"fvector": "x = scx.pg33_complex(); print([x.n_faces(k) for k in range(-1, 4)])",
            "betti": "y = scx.pg33_complex().induced(range(13)); "
                     "print([scx.betti_exact(y, k) for k in range(-1, y.dim + 1)])"}[kind]
    return f"PYTHONPATH=src python3 -c 'import scx; {code}'"


def run_item(key) -> str:
    """Run one item and return its output as canonical JSON text."""
    kind, name, seed = key
    if kind == "verify":
        return scx.run_suite(name, seed=seed, trials=1, **SUITE_ARGS.get(name, {})).to_json()
    if kind == "reproduce":
        return scx.run_reproduce(name).to_json()
    if kind == "fvector":
        x = scx.pg33_complex()
        return json.dumps([x.n_faces(k) for k in range(-1, 4)])
    if kind == "betti":
        y = scx.pg33_complex().induced(BETTI_POINTS)
        return json.dumps([scx.betti_exact(y, k) for k in range(-1, y.dim + 1)])
    raise ValueError(f"unknown item kind {kind!r}")


def build_builtins():
    """The stock geometries, built once during set-up."""
    return scx.ag23_complex(), scx.pg33_complex()


# -- goldens and the output check ---------------------------------------


def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_goldens(workload):
    """{"items": {key: {"output", "cost_s"}}, "cold": stdout text}."""
    with gzip.open(golden_path(workload), "rt") as fh:
        return json.load(fh)


def mismatch(expected, actual, path="$"):
    """First difference between two parsed outputs, or None.

    Floats agree within FLOAT_SLACK relative to max(1, |expected|); every
    other value (ints, rationals rendered as strings, booleans, record
    counts, notes) must be equal and of the same type.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (expected, actual))
        if numbers and abs(actual - expected) <= FLOAT_SLACK * max(1.0, abs(expected)):
            return None
        if numbers and math.isnan(expected) and math.isnan(actual):
            return None
        return f"{path}: expected {expected!r}, got {actual!r}"
    if type(expected) is not type(actual):
        return f"{path}: expected {type(expected).__name__}, got {type(actual).__name__}"
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return f"{path}: keys {sorted(expected)} != {sorted(actual)}"
        for k in expected:
            diff = mismatch(expected[k], actual[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = mismatch(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if expected == actual else f"{path}: expected {expected!r}, got {actual!r}"


def parse_output(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text.strip()


def check_output(golden, text):
    """None when ``text`` matches the golden output, else the difference.
    A report that did not pass counts as a difference even if the golden
    records the same failure."""
    actual = parse_output(text)
    if isinstance(actual, dict) and actual.get("passed") is False:
        return "report did not pass"
    return mismatch(golden, actual)


# -- passes ---------------------------------------------------------------


def corpus_seeds(workload, suite):
    """Trial seeds captured for a suite: two per slot."""
    return range(2 * WORKLOADS[workload]["suites"][suite])


#: Candidates of each suite, by captured cost, that every pass runs.  The
#: heaviest inputs differ most within a pair, and they set the tail.
HEAVIEST = 6

#: Candidates around the pass's median cost that every pass runs, so the
#: median item is the same input whatever the seed.
MIDDLE = 6


def pass_items(workload, seed, goldens):
    """The items of one pass for a run seed, in run order.

    The named items and each suite's HEAVIEST candidates always run.  The
    other candidates of all suites are sorted by captured cost; the
    MIDDLE of them that hold the pass's median always run, and the rest
    are paired with their neighbour in cost, the seed picking one of each
    pair.  Since one of every pair runs, the number of pass items below
    the middle block is the same for every seed.  Then the seed shuffles
    the pass.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")

    def cost(key):
        return goldens["items"][key_str(key)]["cost_s"], key_str(key)

    fixed = list(WORKLOADS[workload]["named"])
    rest = []
    for suite in WORKLOADS[workload]["suites"]:
        keys = sorted((("verify", suite, s) for s in corpus_seeds(workload, suite)), key=cost)
        fixed += keys[-HEAVIEST:]
        rest += keys[:-HEAVIEST]
    rest.sort(key=cost)
    n_pass = len(fixed) + MIDDLE + (len(rest) - MIDDLE + 1) // 2

    def below(b):
        """Pass items cheaper than rest[b] when the block starts there."""
        return b // 2 + sum(cost(k) < cost(rest[b]) for k in fixed)

    b = min(range(0, len(rest) - MIDDLE + 1, 2),
            key=lambda b: abs(below(b) + MIDDLE / 2 - n_pass / 2))
    pairs = rest[:b] + rest[b + MIDDLE:]
    chosen = fixed + rest[b:b + MIDDLE] + [rng.choice(pairs[i:i + 2])
                                           for i in range(0, len(pairs), 2)]
    rng.shuffle(chosen)
    return chosen


def tail_percentile(pass_len):
    """Highest percentile that leaves at least ten of one pass's items
    beyond it; every run makes at least one pass."""
    return 100.0 * (1 - 10 / pass_len)

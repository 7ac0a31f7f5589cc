"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import items  # noqa: E402
import run  # noqa: E402
import scx  # noqa: E402
import scx.complexes  # noqa: E402
import scx.domination  # noqa: E402
import scx.homology  # noqa: E402
import scx.matroids  # noqa: E402
import scx.numerics.lp  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REF_PROBE_S, Speed  # noqa: E402

# cheap items that together reach every wrapped layer kind
SAMPLE = [("verify", "eigenhom", 0), ("verify", "hall", 1), ("verify", "duality", 3),
          ("verify", "matroid-hall", 2), ("reproduce", "ag23", None)]
WORKLOAD_OF = {"eigenhom": "spectral", "hall": "geometry", "duality": "exact",
               "matroid-hall": "geometry", "ag23": "geometry"}


def golden(key):
    return items.load_goldens(WORKLOAD_OF[key[1]])["items"][items.key_str(key)]["output"]


def bound_names():
    return {
        "scx.homology.eigenvalues_sym": scx.homology.eigenvalues_sym,
        "scx.homology.rank_exact": scx.homology.rank_exact,
        "scx.domination.lp_solve": scx.domination.lp_solve,
        "scx.domination.lp_solve_max": scx.domination.lp_solve_max,
        "scx.matroids.lp_solve_max": scx.matroids.lp_solve_max,
        "scx.numerics.lp.lp_solve": scx.numerics.lp.lp_solve,
        "scx.run_suite": scx.run_suite,
        "Complex.faces": scx.complexes.Complex.__dict__["faces"],
        "LinearMatroid.rank_mask": scx.matroids.LinearMatroid.__dict__["rank_mask"],
    }


def test_wrappers_are_installed_and_restored():
    before = bound_names()
    tracer = Tracer()
    with tracer.installed():
        during = bound_names()
        assert all(during[name] is not fn for name, fn in before.items())
        assert all(during[name].__wrapped__ is fn for name, fn in before.items())
    assert bound_names() == before


def test_wrappers_are_restored_when_an_item_raises():
    before = bound_names()
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            with tracer.item_span(0):
                scx.run_suite("no-such-suite")
    assert bound_names() == before


def test_traced_and_untraced_outputs_are_identical():
    plain = [items.run_item(key) for key in SAMPLE]
    tracer = Tracer()
    with tracer.installed():
        traced = []
        for i, key in enumerate(SAMPLE):
            with tracer.item_span(i):
                traced.append(items.run_item(key))
    assert traced == plain
    for key, text in zip(SAMPLE, plain):
        assert items.check_output(golden(key), text) is None
    selfs = tracer.self_times()
    for layer in ("numerics.eigen", "numerics.lp", "numerics.rank", "complexes.faces",
                  "domination.hall", "matroids.phi_star", "campaigns"):
        assert selfs[layer] > 0, layer
    # self times partition the items' wall time
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert len(roots) == len(SAMPLE)
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(selfs.values()) == pytest.approx(wall, rel=1e-9)
    assert tracer.counts["numerics.lp.calls"] == tracer.counts["numerics.lp.optimal"]


def test_same_layer_calls_open_one_span():
    tracer = Tracer()
    with tracer.installed():
        with tracer.item_span(0):
            scx.numerics.lp.lp_solve_max([1, 1], [[1, 2], [2, 1]], [4, 4])
    lp = tracer.layers.index("numerics.lp")
    assert list(tracer.layer).count(lp) == 1
    assert tracer.counts["numerics.lp.calls"] == 1


def test_output_check_accepts_float_noise_within_slack():
    key = ("verify", "eigenhom", 0)
    doc = copy.deepcopy(golden(key))
    rec = doc["records"][0]
    assert isinstance(rec["lhs"], float)
    rec["lhs"] += 1e-12
    assert items.mismatch(golden(key), doc) is None


@pytest.mark.parametrize("field, wrong", [
    ("lhs", lambda v: v + 1e-6 * max(1.0, abs(v))),  # float beyond slack
    ("passed", lambda v: not v),                       # exact boolean
    ("inputs", lambda v: v[::-1]),                     # exact string
])
def test_output_check_catches_a_wrong_expected_value(field, wrong):
    key = ("verify", "eigenhom", 0)
    text = items.run_item(key)
    expected = copy.deepcopy(golden(key))
    rec = expected["records"][0]
    rec[field] = wrong(rec[field])
    assert items.check_output(expected, text) is not None


def test_output_check_catches_a_wrong_rational():
    key = ("verify", "duality", 3)
    text = items.run_item(key)
    expected = copy.deepcopy(golden(key))
    expected["records"][0]["details"]["value"] += "1"
    assert "value" in items.check_output(expected, text)


def test_loop_counts_a_golden_mismatch_as_failure():
    goldens = copy.deepcopy(items.load_goldens("geometry"))
    goldens["items"]["reproduce:ag23"]["output"]["records"][1]["lhs"] = 2
    loop = run.Loop(items, goldens)
    loop.run(("reproduce", "ag23", None))
    assert len(loop.failures) == 1
    assert loop.failures[0]["replay"].endswith("scx.cli reproduce ag23")


def test_pass_is_a_function_of_the_seed():
    goldens = items.load_goldens("exact")
    a = items.pass_items("exact", 0, goldens)
    assert a == items.pass_items("exact", 0, goldens)
    assert set(a) != set(items.pass_items("exact", 1, goldens))
    slots = items.WORKLOADS["exact"]["suites"].values()
    fixed = items.HEAVIEST * len(slots) + items.MIDDLE
    assert len(a) == len(set(a)) == fixed + (2 * sum(slots) - fixed + 1) // 2


@pytest.mark.parametrize("workload", ["spectral", "exact", "geometry"])
def test_median_input_of_a_pass_is_the_same_for_every_seed(workload):
    goldens = items.load_goldens(workload)

    def median_key(seed):
        keys = items.pass_items(workload, seed, goldens)
        keys.sort(key=lambda k: goldens["items"][items.key_str(k)]["cost_s"])
        return keys[len(keys) // 2]

    assert len({median_key(seed) for seed in range(20)}) == 1


def test_tail_leaves_ten_samples_per_pass_beyond_it():
    two_passes = [float(i) for i in range(1, 201)]
    assert abs(run.tail(two_passes, 100) - 180.5) < 0.5
    assert abs(run.quantile(two_passes, 0.5) - 100.5) < 1e-9
    assert items.tail_percentile(100) == 90.0


def test_probe_calls_nothing_in_scx():
    tracer = Tracer()
    speed = Speed()
    with tracer.installed(), tracer.item_span(0):
        speed.probe(2)
    assert len(tracer.layer) == 1  # the item's root span only
    assert not any(v for k, v in tracer.counts.items() if k.endswith(".calls"))


def test_item_is_scaled_by_the_probes_on_either_side():
    speed = Speed()
    speed.samples = [REF_PROBE_S, 3 * REF_PROBE_S, REF_PROBE_S]
    assert speed.scale(1.0, 0) == 0.5
    assert speed.scale(1.0, 1) == 0.5

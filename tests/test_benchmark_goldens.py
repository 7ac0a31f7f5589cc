"""Every benchmark golden reproduces.

The benchmark in ``perfbench/`` checks each item's output against a
golden captured from the library; this runs every corpus item of the
three workloads, and each workload's cold-start command, through the
benchmark's own ``run_item`` and output check, so an output that drifts
fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import items  # noqa: E402
from scx.cli import main  # noqa: E402


def corpus(workload):
    """Every item with a golden: the named items, then each suite's seeds."""
    spec = items.WORKLOADS[workload]
    keys = list(spec["named"])
    for suite in spec["suites"]:
        keys += [("verify", suite, s) for s in items.corpus_seeds(workload, suite)]
    return keys


@pytest.mark.parametrize("workload", sorted(items.WORKLOADS))
def test_every_corpus_item_matches_its_golden(workload):
    goldens = items.load_goldens(workload)["items"]
    keys = corpus(workload)
    assert sorted(map(items.key_str, keys)) == sorted(goldens)
    diffs = {}
    for key in keys:
        diff = items.check_output(goldens[items.key_str(key)]["output"], items.run_item(key))
        if diff:
            diffs[items.key_str(key)] = diff
    assert not diffs, f"{len(diffs)} of {len(keys)} items differ: {diffs}"


@pytest.mark.parametrize("workload", sorted(items.WORKLOADS))
def test_cold_start_command_matches_its_golden(workload, capsys):
    assert main(items.WORKLOADS[workload]["cold"]) == 0
    out = capsys.readouterr().out
    golden = items.load_goldens(workload)["cold"]
    assert items.mismatch(items.parse_output(golden), items.parse_output(out)) is None

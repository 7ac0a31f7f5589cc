"""The benchmark's tracer finds the functions it times by name.

``perfbench/spans.py`` skips a name that is gone from the library, so the
benchmark keeps running across refactors, but the layer then reads zero.
This test makes a rename or deletion fail instead of silently dropping a
layer.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    spans = load_spans()
    wanted = [(layer, owner, attr) for layer, owner, attr, _ in spans.layer_table()]
    wanted += spans.counted_methods()
    assert len(wanted) > 30
    missing = [f"{layer}: {owner.__name__}.{attr}" for layer, owner, attr in wanted
               if not callable(vars(owner).get(attr))]
    assert missing == []

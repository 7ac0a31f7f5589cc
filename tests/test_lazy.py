"""numpy is loaded on first use, so the commands that never call it start without it."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from scx._lazy import lazy_import

SRC = str(Path(__file__).resolve().parents[1] / "src")

# numpy's own __init__ imports numpy.linalg, so its absence means numpy's
# code never ran
PROBE = """
import sys
{setup}
print("numpy.linalg" in sys.modules)
"""


def loads_numpy(setup):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(setup=setup)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.split()
    return out, {"True": True, "False": False}[loaded]


def test_import_scx_leaves_numpy_unloaded():
    assert loads_numpy("import scx") == ([], False)


def test_phistar_runs_without_numpy():
    setup = 'from scx.cli import main; main(["matroid", "phistar", "--matroid", "builtin:AG23"])'
    assert loads_numpy(setup) == (["9"], False)


def test_betti_runs_without_numpy():
    # exact ranks read the coboundary rows as they are built from the face masks
    setup = 'from scx.cli import main; main(["betti", "ag23", "--dim", "2"])'
    assert loads_numpy(setup) == (["1"], False)


def test_verify_hall_runs_without_numpy():
    setup = 'from scx.cli import main; main(["verify", "hall", "--seed", "0", "--trials", "3"])'
    out, loaded = loads_numpy(setup)
    assert not loaded and json.loads(out[0])["passed"] is True


def test_spectrum_loads_numpy():
    # the probe itself sees numpy when a command uses it
    setup = 'from scx.cli import main; main(["spectrum", "hollow-triangle", "--dim", "1"])'
    out, loaded = loads_numpy(setup)
    assert loaded and out


def test_lazy_import_runs_the_module_on_first_attribute(tmp_path, monkeypatch):
    (tmp_path / "scx_lazy_probe.py").write_text("import sys\nsys.scx_lazy_probe_runs += 1\nVALUE = 42\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "scx_lazy_probe_runs", 0, raising=False)
    monkeypatch.delitem(sys.modules, "scx_lazy_probe", raising=False)
    mod = lazy_import("scx_lazy_probe")
    assert sys.scx_lazy_probe_runs == 0 and type(mod) is not types.ModuleType
    assert lazy_import("scx_lazy_probe") is mod
    assert mod.VALUE == 42
    assert sys.scx_lazy_probe_runs == 1 and type(mod) is types.ModuleType
    assert lazy_import("scx_lazy_probe") is mod and sys.modules["scx_lazy_probe"] is mod
    assert mod.VALUE == 42 and sys.scx_lazy_probe_runs == 1


def test_lazy_import_of_a_loaded_module_is_that_module():
    assert lazy_import("os") is os


def test_lazy_import_of_an_unknown_name_raises_like_import():
    with pytest.raises(ModuleNotFoundError, match="scx_no_such_module") as info:
        lazy_import("scx_no_such_module")
    assert info.value.name == "scx_no_such_module"
    assert "scx_no_such_module" not in sys.modules

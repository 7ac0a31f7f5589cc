"""Command line interface: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from scx.cli import main
from scx.matroids import ag23_matroid, matroid_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_builtin_json(capsys):
    code, out, err = run_cli(capsys, "spectrum", "hollow-triangle", "--dim", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 0
    assert doc["n"] == 3
    assert doc["mu"] == pytest.approx(3.0)
    assert len(doc["eigenvalues"]) == 3
    assert "wall time" in err


def test_spectrum_ag23_degree_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "ag23", "--dim", "1")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(6.0, abs=1e-8)


def test_spectrum_pretty_is_text(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "hollow-triangle", "--dim", "0", "--pretty")
    assert code == 0
    assert out.startswith("degree 0 spectrum")


def test_spectrum_empty_degree_is_guarded(capsys):
    code, _, err = run_cli(capsys, "spectrum", "ag23", "--dim", "99")
    assert code == 4
    assert "no cochains" in err


def test_betti_builtin(capsys):
    code, out, _ = run_cli(capsys, "betti", "ag23", "--dim", "2")
    assert code == 0
    assert out.strip() == "1"


def test_betti_missing_file_is_parse_failure(capsys):
    code, _, err = run_cli(capsys, "betti", "/no/such/file.json", "--dim", "0")
    assert code == 2
    assert "cannot read complex" in err


def test_complex_file_with_missing_faces(tmp_path, capsys):
    path = tmp_path / "two_points.json"
    path.write_text('{"n": 2, "missing_faces": [[0, 1]]}')
    code, out, _ = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert code == 0
    assert out.strip() == "1"


def test_complex_file_with_facets(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text('{"n": 3, "facets": [[0, 1], [1, 2], [0, 2]]}')
    code, out, _ = run_cli(capsys, "spectrum", str(path), "--dim", "0")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(3.0)


def test_bad_complex_json_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3}')
    code, _, err = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert code == 2
    assert "exactly one of" in err


def test_non_integer_vertex_in_complex_file_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "missing_faces": [[0, 1.5]]}')
    code, _, err = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert code == 2
    assert "vertex 1.5 is not an integer" in err


def test_verify_passes_and_is_deterministic(capsys):
    code, out1, err = run_cli(capsys, "verify", "fp", "--trials", "2")
    assert code == 0
    assert "wall time" in err
    doc = json.loads(out1)
    assert doc["suite"] == "fp" and doc["passed"] is True
    code, out2, _ = run_cli(capsys, "verify", "fp", "--trials", "2")
    assert code == 0
    assert out1 == out2


def test_verify_forced_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "fp", "--trials", "2", "--slack-tol=-1e9")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_pretty_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "countdeg", "--trials", "2", "--pretty")
    assert code == 0
    assert out.startswith("suite countdeg")
    assert "overall: PASS" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_reproduce_rpartite(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "rpartite")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "reproduce-rpartite"
    assert doc["passed"] is True


def test_reproduce_stretch_refusal_is_guarded(capsys):
    code, _, err = run_cli(capsys, "reproduce", "pg33", "--stretch")
    assert code == 4
    assert "stretch budget" in err


def test_matroid_phi_builtin(capsys):
    code, out, _ = run_cli(capsys, "matroid", "phi", "--matroid", "builtin:AG23")
    assert code == 0
    assert out.strip() == "4"


def test_matroid_phistar_is_exact_rational(capsys):
    code, out, _ = run_cli(capsys, "matroid", "phistar", "--matroid", "builtin:AG23")
    assert code == 0
    assert out.strip() == "9"
    code, out, _ = run_cli(capsys, "matroid", "phistar", "--matroid", "uniform:2,4")
    assert code == 0
    assert out.strip() == "4"


def test_matroid_subset_restriction(capsys):
    code, out, _ = run_cli(capsys, "matroid", "phi", "--matroid", "builtin:AG23",
                           "--subset", "0,1,2")
    assert code == 0
    assert out.strip() == "2"


def test_matroid_subset_parse_errors(capsys):
    code, _, err = run_cli(capsys, "matroid", "phi", "--matroid", "builtin:AG23",
                           "--subset", "0,banana")
    assert code == 2
    assert "comma-separated" in err
    code, _, err = run_cli(capsys, "matroid", "phi", "--matroid", "builtin:AG23",
                           "--subset", "0,99")
    assert code == 2
    assert "outside the ground set" in err


def test_matroid_file_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matroid_to_json(ag23_matroid()))
    code, out, _ = run_cli(capsys, "matroid", "phi", "--matroid", str(path))
    assert code == 0
    assert out.strip() == "4"


def test_matroid_bad_specs_are_parse_failures(capsys):
    for spec in ("uniform:2", "builtin:FANO"):
        code, _, _ = run_cli(capsys, "matroid", "phi", "--matroid", spec)
        assert code == 2


def test_matroid_ground_cap_is_guarded(capsys):
    code, _, err = run_cli(capsys, "matroid", "phi", "--matroid", "uniform:3,30")
    assert code == 4
    assert err


def test_matroid_hall_builtin_partition(capsys):
    code, out, _ = run_cli(capsys, "matroid", "hall", "--matroid", "builtin:AG23",
                           "--partition", "3-parallel-lines")
    assert code == 0
    doc = json.loads(out)
    checks = {r["check"] for r in doc["records"]}
    assert checks == {"fractional_gp_hall", "gp_hall"}
    assert doc["passed"] is True


def test_matroid_hall_partition_file_matches_builtin(tmp_path, capsys):
    _, builtin_out, _ = run_cli(capsys, "matroid", "hall", "--matroid", "builtin:AG23",
                                "--partition", "3-parallel-lines")
    path = tmp_path / "part.json"
    path.write_text('{"classes": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}')
    _, file_out, _ = run_cli(capsys, "matroid", "hall", "--matroid", "builtin:AG23",
                             "--partition", str(path))
    assert builtin_out == file_out


def test_matroid_hall_requires_partition(capsys):
    code, _, err = run_cli(capsys, "matroid", "hall", "--matroid", "builtin:AG23")
    assert code == 2
    assert "needs --partition" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "scx.cli", "betti", "hollow-triangle", "--dim", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"

"""Command line interface: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import scx.homology as homology
import scx.matroids as matroids
import scx.numerics.rational as rational
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


def test_betti_of_sixty_vertices_missing_one_edge(tmp_path, capsys):
    # the degree-0 coboundary is 1769 x 60; the graph stays connected
    path = tmp_path / "k60_minus_edge.json"
    path.write_text('{"n": 60, "missing_faces": [[0, 1]]}')
    code, out, _ = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert code == 0
    assert out == "0\n"


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


@pytest.mark.parametrize("argv, text, message", [
    (("betti", "{path}", "--dim", "0"), '{"n":3,"missing_faces":[1]}',
     "'missing_faces' must be a list"),
    (("spectrum", "{path}", "--dim", "0"), '{"n":3,"missing_faces":[1]}',
     "'missing_faces' must be a list"),
    (("betti", "{path}", "--dim", "0"), '{"n":3,"facets":[[0,1],2]}', "'facets' must be a list"),
    (("matroid", "hall", "--matroid", "builtin:AG23", "--partition", "{path}"),
     '{"classes":[1,2]}', "'classes' must be a list"),
    (("matroid", "hall", "--matroid", "builtin:AG23", "--partition", "{path}"),
     '{"classes":5}', "'classes' must be a list"),
    (("matroid", "phi", "--matroid", "{path}"), '{"kind":"uniform"}', "needs a 'rank' field"),
    (("matroid", "phi", "--matroid", "{path}"), '{"kind":"linear","p":3,"columns":5}',
     "'columns' must be a list"),
    (("matroid", "phi", "--matroid", "{path}"), '[1,2]', "needs a 'kind' field"),
    (("matroid", "hall", "--matroid", "builtin:AG23", "--partition", "{path}"),
     '{"classes":[[0],[99]]}', "partition vertex outside the ground set"),
    (("matroid", "hall", "--matroid", "builtin:AG23", "--partition", "{path}"),
     '{"classes":[[0],[1],[2],[3],[4],[5],[6],[7],[8],[9],[10],[11],[12]]}',
     "13 classes, more than 12"),
    (("matroid", "phi", "--matroid", "{path}"),
     '{"kind":"linear","p":2305843009213693951,"columns":[[1,0],[0,1]]}',
     "modulus 2305843009213693951 is not below 2**31"),
])
def test_malformed_json_shapes_are_parse_failures(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, shape", [
    (("spectrum", "pg33", "--dim", "2"), "9360 x 9360"),
])
def test_dense_matrices_over_budget_are_refused(tmp_path, capsys, argv, shape):
    path = tmp_path / "k700_minus_edge.json"
    path.write_text('{"n":700,"missing_faces":[[0,1]]}')
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 4
    assert out == ""
    assert f"dense {shape} matrix exceeds the budget of 33554432 entries" in err


def test_a_connected_laplacian_over_the_work_budget_is_refused(tmp_path, capsys):
    # the 299 missing edges of a path leave one connected 300 x 300 vertex
    # Laplacian: 300**3 = 27000000 above the 2**21 of one split
    path = tmp_path / "path300.json"
    path.write_text(json.dumps({"n": 300, "missing_faces": [[i, i + 1] for i in range(299)]}))
    code, out, err = run_cli(capsys, "spectrum", str(path), "--dim", "0")
    assert code == 4
    assert out == ""
    assert ("300 x 300 matrix: 1 block(s), 1 distinct, largest side 300; sides cubed sum "
            "to 27000000, above the budget of 2097152") in err


def test_betti_of_700_vertices_missing_one_edge_is_sparse(tmp_path, capsys):
    # the 244649 x 700 degree-0 coboundary, refused as a dense matrix
    # before, is ranked from its incidence: it stores under 1400 entries
    path = tmp_path / "k700_minus_edge.json"
    path.write_text('{"n":700,"missing_faces":[[0,1]]}')
    t0 = time.process_time()
    code, out, _ = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert time.process_time() - t0 < 5.0
    assert (code, out) == (0, "0\n")


def test_flat_constraint_pairs_over_budget_are_refused(capsys, monkeypatch):
    # AG(2,3)'s flat constraints visit 9 + 36 (flat, sigma) pairs
    monkeypatch.setattr(matroids, "MAX_GP_PAIRS", 44)
    code, out, err = run_cli(capsys, "matroid", "phistar", "--matroid", "builtin:AG23")
    assert code == 4
    assert out == ""
    assert "visit 9 + 36 = 45 (flat, sigma) pairs, above the budget of 44" in err


def test_sparse_elimination_over_budget_is_refused(capsys, monkeypatch):
    # pg33's degree-1 coboundary stores 2223 entries
    monkeypatch.setattr(rational, "MAX_FILL", 1000)
    code, out, err = run_cli(capsys, "betti", "pg33", "--dim", "1")
    assert code == 4
    assert out == ""
    assert "sparse elimination of a 9360 x 780 matrix stores more than the budget of 1000 entries" in err


@pytest.mark.parametrize("argv, message", [
    (("betti", "{path}", "--dim", "1"),
     "enumerating the 2-faces tests 56921202 candidates, above the budget of 1048576"),
    (("matroid", "phistar", "--matroid", "builtin:PG33"),
     "the phi_star LP over 1080 flat supports x 40 elements exceeds the budget of 4096"),
    (("matroid", "phistar", "--matroid", "uniform:6,30"),
     "listing the flats of ranks 1..5 on 30 elements scans 30 + 435 + 4060 + 27405 + 142506 "
     "= 174436 subsets, above the budget of 16384"),
    (("matroid", "phistar", "--matroid", "uniform:10,40"),
     "= 373585603 subsets, above the budget of 16384"),
    (("betti", "{simplex}", "--dim", "0"),
     "listing the subsets of the maximal facets tests 584115552256 candidates (34 per subset), "
     "above the budget of 1048576"),
    (("verify", "fp", "--n-max", "40", "--d-max", "10", "--trials", "1"),
     "n_max 40 and d_max 10 let one draw list C(40, 11) = 2311801440 subsets, "
     "above the budget of 1048576"),
])
def test_size_guards_refuse_within_a_second(tmp_path, capsys, argv, message):
    # with --dim 0 the same input lists its 244649 edges and is answered
    # (see above)
    path = tmp_path / "k700_minus_edge.json"
    path.write_text('{"n":700,"missing_faces":[[0,1]]}')
    simplex = tmp_path / "simplex34.json"
    simplex.write_text(json.dumps({"n": 34, "facets": [list(range(34))]}))
    t0 = time.process_time()
    code, out, err = run_cli(capsys, *(a.format(path=path, simplex=simplex) for a in argv))
    assert time.process_time() - t0 < 1.0
    assert code == 4
    assert out == ""
    assert message in err


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


def test_failed_certification_exits_three(capsys, monkeypatch):
    # seed 2's trial reaches a float solve; at seed 0 every value is
    # certified exactly and none is solved
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda mat: np.full(len(mat), 1e6))
    code, out, err = run_cli(capsys, "verify", "yi", "--seed", "2", "--trials", "1")
    assert code == 3
    assert out == ""
    assert "certified range" in err


def test_verify_pretty_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "countdeg", "--trials", "2", "--pretty")
    assert code == 0
    assert out.startswith("suite countdeg")
    assert "overall: PASS" in out


@pytest.mark.parametrize("suite,trials", [("fp", "0"), ("fp", "-2"), ("gamma", "0")])
def test_verify_refuses_fewer_than_one_trial(capsys, suite, trials):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", trials)
    assert code == 4
    assert out == ""
    assert f"trials must be at least 1, got {trials}" in err


@pytest.mark.parametrize("argv,message", [
    (["fp", "--n-max", "3"], "n_max must be at least 4, got 3"),
    (["fp", "--d-max", "0"], "d_max must be at least 1, got 0"),
    (["matroid-hall", "--n-max", "5"], "n_max must be at least 6, got 5"),
])
def test_verify_refuses_unreachable_bounds_on_every_seed(capsys, argv, message):
    for seed in range(6):
        code, out, err = run_cli(capsys, "verify", *argv, "--seed", str(seed), "--trials", "1")
        assert code == 4
        assert out == ""
        assert message in err
        assert "randrange" not in err


@pytest.mark.parametrize("argv,option", [
    (["gamma", "--slack-tol=-1e9"], "--slack-tol"),
    (["yi", "--kernel-tol", "5"], "--kernel-tol"),
    (["matroid-hall", "--d-max", "2"], "--d-max"),
])
def test_verify_refuses_options_the_suite_does_not_take(capsys, argv, option):
    code, out, err = run_cli(capsys, "verify", *argv, "--trials", "1")
    assert code == 4
    assert out == ""
    assert f"{option} does not apply to suite {argv[0]!r}" in err


@pytest.mark.parametrize("argv,message", [
    (["fp", "--slack-tol", "inf"], "tol must be finite, got inf"),
    (["fp", "--slack-tol", "nan"], "tol must be finite, got nan"),
    (["fp", "--slack-tol=-inf"], "tol must be finite, got -inf"),
    (["hodge", "--kernel-tol", "nan"], "kernel_tol must be finite, got nan"),
    (["hodge", "--kernel-tol", "inf"], "kernel_tol must be finite, got inf"),
    (["hodge", "--kernel-tol", "0"], "kernel_tol must be positive, got 0.0"),
    (["hodge", "--kernel-tol=-1"], "kernel_tol must be positive, got -1.0"),
])
def test_verify_refuses_non_finite_tolerances(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv, "--trials", "1")
    assert code == 4
    assert out == ""
    assert message in err


@pytest.mark.parametrize("text", [
    '{"n": 3.7, "missing_faces": [[0, 1, 2]]}',
    '{"n": true, "missing_faces": [[0]]}',
    '{"n": "3", "missing_faces": [[0, 1, 2]]}',
])
def test_non_integer_vertex_count_in_complex_file_is_parse_failure(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "betti", str(path), "--dim", "0")
    assert code == 2
    assert "is not an integer" in err or "is a bool" in err


@pytest.mark.parametrize("doc", [
    {"kind": "uniform", "rank": 2.9, "n": 4.2},
    {"kind": "linear", "p": 3.0, "columns": [[1, 0], [0, 1]]},
    {"kind": "linear", "p": 3, "columns": [[1.5, 0], [0, 1]]},
])
def test_non_integer_matroid_field_is_parse_failure(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "matroid", "phi", "--matroid", str(path))
    assert code == 2
    assert out == ""
    assert "is not an integer" in err


def test_verify_matroid_basics_token(capsys):
    code, out, _ = run_cli(capsys, "verify", "matroid-basics", "--trials", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "matroid-basics" and doc["n_records"] == 4


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


def test_matroid_phistar_refuses_a_loop(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"kind":"linear","p":3,"columns":[[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,1]]}')
    code, out, err = run_cli(capsys, "matroid", "phistar", "--matroid", str(path))
    assert (code, out) == (4, "")
    assert "element 0 is a loop" in err
    code, out, _ = run_cli(capsys, "matroid", "phi", "--matroid", str(path))
    assert (code, out.strip()) == (0, "4")


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


# pinned stdout: the general-position search and Hall sweep must keep it
# byte for byte
MATROID_HALL_AG23 = (
    '{"n_records":2,"params":{"matroid":"builtin:AG23"},"passed":true,"records":['
    '{"check":"fractional_gp_hall","details":{"found":[0,3,7],"values":{"0":["3",0],'
    '"0,1":["6",2],"0,1,2":["9",8],"0,2":["6",2],"1":["3",0],"1,2":["6",2],"2":["3",0]}},'
    '"inputs":"1bad4db4c0f1","lhs":null,"margin":null,"note":"","passed":true,"rhs":null},'
    '{"check":"gp_hall","details":{"found":[0,3,7],"values":{"0":[2,0],"0,1":[4,1],'
    '"0,1,2":[4,2],"0,2":[4,1],"1":[2,0],"1,2":[4,1],"2":[2,0]}},"inputs":"1bad4db4c0f1",'
    '"lhs":null,"margin":null,"note":"","passed":true,"rhs":null}],"seed":0,'
    '"suite":"matroid-hall"}\n')


def test_matroid_hall_stdout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "matroid", "hall", "--matroid", "builtin:AG23",
                           "--partition", "3-parallel-lines")
    assert code == 0
    assert out == MATROID_HALL_AG23


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

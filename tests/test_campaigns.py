"""Campaign table: dispatch, determinism, and the reproduction names."""

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

from scx import campaigns, complexes, homology
from scx.campaigns import (
    REPRODUCE_NAMES,
    SUITES,
    complete_multipartite_complex,
    run_reproduce,
    run_suite,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# sha256 of each report's canonical JSON with every float rounded to 10
# significant digits (seed 3, 2 trials per part), captured from the
# per-campaign runners the table replaced
GOLDEN = {
    "fp": "52a2d54d140aa6eb59906c6e55dd09490864871e2023635e85dfa036a9f6bbaf",
    "intersection": "3677746425c70a8dc2a1475513d2ea40d96ec1a94b087045e33482302ccba2fc",
    "yi": "c7c3dc0a715620e4884a3d1a3b0665bc01f345da87208eb861a96d61b1276c04",
    "mu-bound": "27b5ed5ea5f81897ddfc366e7e51925d27e51ea9ec3362fd0af66333785ec838",
    "eigenhom": "164986d26888de36fe2f6e0c5170fe562e43b821431e92d382251f1b478ae416",
    "countdeg": "fcae5a81fb8ea959a8c3fb92a1502c48f023db190d3f05f0c6bb9b6bd1c1908a",
    "pluslap": "e1e054fd94aef80ee1241a8f23dc2f4474d8a2ae1c8b339be5805eb3c7897000",
    "hodge": "91ce4087a36f30ee4754c0f4d4c2c9cc18a2eaf273893c212943e43a61eb2e17",
    "duality": "d21ba4d69d12d61b36e001cb73cf3c91bacbfd15cdb84c089a767adbb1a7707f",
    "gamma": "3cc2d24ec96bbf7b2b3d24db4842e5edbf500d6a80bd7387d426270d3205d728",
    "hall": "5507fad142822f3b83faa41e0e849e78873e9ab42cad38340e60919fc85a6081",
    "matroid-hall": "b5b025f6506540d4aeccb15e0c54a67aa96ce84d0fd43c4c8a9adfc9e93edc8e",
    "matroid-basics": "ca444e2bb0f8c1d693d1f2fb272abd57fe9ef92da719d50c33ea869fd5a0493a",
    "reproduce-rpartite": "1e11375b7f7d37d143f617999991c87ce85f7079292a68cb50dc5c92b035b91f",
    "reproduce-ag23": "9ebd53205b02fc758f791615c730e6d867d3d403257a6715cd2e48ac4d824977",
    "reproduce-pg33": "1f12f495015adcab7ffcef7c038e6decaa113882906165453b384f8b090d666f",
    "reproduce-ag23-sharpness": "4716d879260389bde39ef8c82bc9051a4d7f7e382caa76af86bf0fac032b2250",
}


def _rounded(v):
    if isinstance(v, float):
        return float(f"{v:.10g}")
    if isinstance(v, list):
        return [_rounded(e) for e in v]
    if isinstance(v, dict):
        return {k: _rounded(e) for k, e in v.items()}
    return v


def _golden_digest(rep):
    doc = _rounded(json.loads(rep.to_json()))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_match_the_golden_digests():
    got = {name: _golden_digest(run_suite(name, seed=3, trials=2)) for name in SUITES}
    got.update({f"reproduce-{name}": _golden_digest(run_reproduce(name))
                for name in REPRODUCE_NAMES})
    assert got == GOLDEN


def test_every_suite_token_passes_at_small_counts():
    for name in sorted(SUITES):
        rep = run_suite(name, seed=0, trials=3)
        assert rep.records, name
        assert rep.passed, name
        doc = json.loads(rep.to_json())
        assert doc["suite"] == name
        assert doc["passed"] is True


def test_suite_json_is_byte_identical_across_reruns():
    for name in ("fp", "hodge", "duality", "matroid-hall"):
        a = run_suite(name, seed=4, trials=3).to_json()
        b = run_suite(name, seed=4, trials=3).to_json()
        assert a == b
        assert "wall" not in a


def test_suite_seed_changes_the_records():
    a = run_suite("fp", seed=0, trials=3).to_json()
    b = run_suite("fp", seed=1, trials=3).to_json()
    assert a != b


def test_run_suite_rejects_unknown_token():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_run_suite_drops_inapplicable_knobs():
    # The complement-identity family is exact, so it takes no slack
    # tolerance; passing one through the dispatcher must be harmless.
    rep = run_suite("yi", trials=2, tol=-5.0)
    assert rep.passed


def test_trials_override_lands_in_params():
    rep = run_suite("countdeg", trials=2)
    assert rep.params["trials"] == 2


def test_hodge_suite_reports_both_record_kinds():
    rep = run_suite("hodge", trials=2)
    kinds = {r.check for r in rep.records}
    assert "laplacian_assembly" in kinds
    assert "hodge_betti" in kinds


def _counting(fn, calls, name):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def test_hodge_assembles_each_degree_once(monkeypatch):
    # count calls made under any scx module's name for the assemblies
    calls = {"formula": 0, "products": 0}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "scx"]
    for name in calls:
        orig = getattr(homology, f"laplacian_from_{name}")
        counted = _counting(orig, calls, name)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    rep = run_suite("hodge", seed=0, trials=20, n_max=8)
    degrees = sum(r.details["degrees"][1] + 2 for r in rep.records
                  if r.check == "laplacian_assembly")
    assert degrees > 20
    assert calls == {"formula": degrees, "products": degrees}


def test_hodge_solves_each_coboundary_once_on_its_smaller_gram(monkeypatch):
    # one trial: one eigensolve per coboundary d_k (k = -1 .. dim-1), of
    # side min(f_k, f_{k+1}) and never a full Laplacian; asking for the
    # Betti numbers again solves nothing
    drawn, solved = [], []
    draw = campaigns.random_complex
    monkeypatch.setattr(campaigns, "random_complex",
                        lambda *a, **kw: drawn.append(draw(*a, **kw)) or drawn[-1])
    solve = homology.eigenvalues_sym
    monkeypatch.setattr(homology, "eigenvalues_sym", lambda mat: solved.append(mat) or solve(mat))
    rep = run_suite("hodge", seed=0, trials=1, n_max=8)
    assert rep.passed
    [x] = drawn
    degrees = range(-1, x.dim + 1)
    fulls = [homology.laplacians(x, k).full for k in degrees]
    assert not any(mat is full for mat in solved for full in fulls)
    assert [len(mat) for mat in solved] == [min(x.n_faces(k), x.n_faces(k + 1))
                                            for k in degrees[:-1]]
    betti = [homology.betti_hodge(x, k) for k in degrees]
    assert betti == [homology.betti_exact(x, k) for k in degrees]
    assert len(solved) == x.dim + 1


def test_hodge_trial_forms_no_full_laplacian(monkeypatch):
    # Betti numbers come from Gram ranks, so a hodge trial assembles
    # every degree's lower and upper Laplacians and never their sum; it
    # is formed, and kept, only when read
    drawn = []
    draw = campaigns.random_complex
    monkeypatch.setattr(campaigns, "random_complex",
                        lambda *a, **kw: drawn.append(draw(*a, **kw)) or drawn[-1])
    assert run_suite("hodge", seed=0, trials=1, n_max=8).passed
    [x] = drawn
    sets = [v for key, v in x._memo.items() if key[0] == "laplacians"]
    assert len(sets) == x.dim + 2
    assert not any("full" in ls.__dict__ for ls in sets)
    full = sets[0].full
    assert sets[0].full is full and (full == sets[0].minus + sets[0].plus).all()


def test_yi_builds_each_missing_layer_once(monkeypatch):
    # check_complement_identity and missing_top_eigenvalue share the layer
    # kept on the complex: one build per (trial complex, dimension).  Seed
    # 0 draws a few complexes in more than one trial, so its 111 builds
    # hold 102 distinct layers.
    built = []
    build = complexes._layer_complex
    monkeypatch.setattr(complexes, "_layer_complex",
                        lambda x, i: built.append((x.n, x.missing_masks, i)) or build(x, i))
    rep = run_suite("yi", seed=0)
    assert len(rep.records) == len(built) == 111
    assert len(set(built)) == 102


def test_hodge_records_an_assembly_disagreement_as_a_failure(monkeypatch):
    products = homology.laplacian_from_products

    def skewed(x, k):
        minus, plus = products(x, k)
        return minus, plus + 1

    monkeypatch.setattr(homology, "laplacian_from_products", skewed)
    rep = run_suite("hodge", seed=0, trials=2)
    assert [r.check for r in rep.records] == ["laplacian_assembly"] * 2
    assert not any(r.passed for r in rep.records)
    assert all("assemblies disagree in degree -1" in r.note for r in rep.records)
    assert not rep.passed


@pytest.mark.parametrize("name,knob", [("fp", "tol"), ("mu-bound", "tol"), ("hodge", "kernel_tol")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_suite_refuses_non_finite_tolerances(name, knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be finite, got {value}$"):
        run_suite(name, trials=1, **{knob: value})


@pytest.mark.parametrize("value", [0.0, -1.0, -1e-300])
def test_run_suite_refuses_a_kernel_tol_that_is_not_positive(value):
    with pytest.raises(ValueError, match=f"^kernel_tol must be positive, got {value}$"):
        run_suite("hodge", trials=1, kernel_tol=value)


def test_matroid_basics_cross_checks_definitions():
    rep = run_suite("matroid-basics", trials=5)
    kinds = {r.check for r in rep.records}
    assert kinds == {"fractional_dominates_integer", "gp_definitions_agree"}
    assert rep.passed


def test_gamma_runs_its_three_parts_in_order():
    rep = run_suite("gamma", seed=1, trials=2)
    assert rep.params["trials"] == [2, 2, 2]
    assert [r.check for r in rep.records] == ["domination_bound"] * 2 + [
        "connectivity_bound"] * 2 + ["rep_eigen_bound"] * 2
    assert run_suite("gamma").params["trials"] == [50, 100, 100]


@pytest.mark.parametrize("trials", [0, -2])
def test_run_suite_rejects_fewer_than_one_trial(trials):
    for name in ("fp", "gamma"):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_suite(name, trials=trials)


@pytest.mark.parametrize("name,knobs,message", [
    ("fp", {"n_max": 3}, "n_max must be at least 4"),
    ("fp", {"d_max": 0}, "d_max must be at least 1"),
    ("intersection", {"n_max": 3}, "n_max must be at least 4"),
    ("gamma", {"n_max": 3}, "n_max must be at least 4"),
    ("matroid-basics", {"n_max": 4}, "n_max must be at least 5"),
    ("matroid-hall", {"n_max": 5}, "n_max must be at least 6"),
    ("hall", {"m_max": 0}, "m_max must be at least 1, got 0"),
    ("matroid-hall", {"m_max": 1}, "m_max must be at least 2, got 1"),
])
def test_unreachable_bounds_are_refused_on_every_seed(name, knobs, message):
    for seed in range(6):
        with pytest.raises(ValueError, match=message):
            run_suite(name, seed=seed, trials=1, **knobs)


def test_readme_lists_every_suite_token():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"Suites: (.*?)\. ", text).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == sorted(SUITES)


def test_complete_multipartite_shape():
    x = complete_multipartite_complex(3, 2)
    assert x.n == 6
    assert len(x.missing_faces) == 3
    with pytest.raises(ValueError):
        complete_multipartite_complex(1, 3)


def test_reproduce_names_all_pass():
    for name in REPRODUCE_NAMES:
        rep = run_reproduce(name)
        assert rep.passed, name
        assert rep.suite == f"reproduce-{name}"


def test_reproduce_rpartite_betti_values():
    rep = run_reproduce("rpartite")
    betti = [r.lhs for r in rep.records if r.check == "rpartite_betti"]
    assert betti == [4, 1, 1]
    gaps = [r.lhs for r in rep.records if r.check == "rpartite_gap"]
    assert gaps == [3.0, 4.0, 6.0]


def test_reproduce_sharpness_states_not_applicable():
    rep = run_reproduce("ag23-sharpness")
    notes = [r.note for r in rep.records]
    assert any(n.startswith("not applicable") for n in notes)
    betti_rec = [r for r in rep.records if r.check == "sharp_betti"][0]
    assert betti_rec.lhs == 1


def test_reproduce_stretch_budget_refuses_with_sizes():
    with pytest.raises(ValueError, match="3838380"):
        run_reproduce("pg33", stretch=True)


def test_reproduce_unknown_name():
    with pytest.raises(ValueError, match="unknown reproduction"):
        run_reproduce("everything")

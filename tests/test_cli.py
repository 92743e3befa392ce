"""End-to-end tests of the command-line front end.

Every command is driven through click's test runner; JSON payloads are
parsed back and compared against the library-level expectations, and the
exit-code contract (0 pass, 2 invariant failure, 3 input error) is pinned.
"""

import importlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from surfrep import cohomology, reports, words
from surfrep.cli import main

# the module itself: the package exports a function of the same name
holonomy_module = importlib.import_module("surfrep.holonomy")


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def payload_of(result):
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["status"] == "pass"
    return report["payload"]


# ---------------------------------------------------------------------------
# fox


def test_fox_commutator():
    payload = payload_of(invoke("fox", "x1*x2*x1^-1*x2^-1", "--n", "2", "--json"))
    assert payload["identity_ok"] is True
    assert payload["derivatives"]["x1"] == "-x1^-1*x2^-1 + x2*x1^-1*x2^-1"
    assert payload["derivatives"]["x2"] == "x1^-1*x2^-1 - x2^-1"


def test_fox_empty_word():
    payload = payload_of(invoke("fox", "", "--n", "2", "--json"))
    assert payload["derivatives"] == {"x1": "0", "x2": "0"}


def test_fox_malformed_word():
    result = invoke("fox", "x1**x2", "--json")
    assert result.exit_code == 3
    assert "position" in result.stderr


def test_fox_generator_beyond_n():
    result = invoke("fox", "x3", "--n", "2", "--json")
    assert result.exit_code == 3


def fail_if_called(*args, **kwargs):
    raise AssertionError("did the work before checking the budget")


def test_fox_generator_budget(monkeypatch):
    monkeypatch.setattr(words, "MAX_GENERATORS", 8)
    assert payload_of(invoke("fox", "x8", "--json"))["n"] == 8
    monkeypatch.setattr(reports, "fox_derivative", fail_if_called)
    monkeypatch.setattr(reports, "verify_fox_identity", fail_if_called)
    for args in (["x9"], ["x1", "--n", "9"]):
        result = invoke("fox", *args, "--json")
        assert result.exit_code == 3
        assert "budget" in result.stderr


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_central_default():
    payload = payload_of(invoke("cohomology", "--json"))
    assert payload["h_dims"] == [3, 12, 3]
    assert payload["stratum"] == "G"
    assert payload["on_variety"] is True
    assert payload["duality_ok"] is True


def test_cohomology_torus():
    payload = payload_of(
        invoke("cohomology", "--rep", "torus:[0.7,1.1,2.3,0.4]", "--json"))
    assert payload["h_dims"] == [1, 8, 1]
    assert payload["stratum"] == "(T)"


def test_cohomology_random_projected():
    payload = payload_of(invoke("cohomology", "--rep", "random:42", "--json"))
    assert payload["h_dims"] == [0, 6, 0]
    assert payload["stratum"] == "Z"


def test_cohomology_bad_rep():
    result = invoke("cohomology", "--rep", "spin:[1]", "--json")
    assert result.exit_code == 3
    assert "error" in result.stderr


def test_cohomology_bad_group():
    assert invoke("cohomology", "--group", "E8", "--json").exit_code == 3


def test_cohomology_genus_one():
    payload = payload_of(invoke("cohomology", "--genus", "1",
                                "--rep", "central:[+,+]", "--json"))
    assert payload["h_dims"] == [3, 6, 3]


def test_cohomology_genus_budget(monkeypatch):
    monkeypatch.setattr(words, "MAX_GENERATORS", 8)
    assert payload_of(invoke("cohomology", "--genus", "4", "--json"))["h_dims"] == [3, 24, 3]
    monkeypatch.setattr(words, "Word", fail_if_called)
    monkeypatch.setattr(reports, "rep_from_name", fail_if_called)
    result = invoke("cohomology", "--genus", "5", "--json")
    assert result.exit_code == 3
    assert "budget" in result.stderr


def test_cohomology_rejects_nonpositive_tolerance(tmp_path):
    for flag in ("--tol-rank", "--tol-defect"):
        for value in ("-1", "nan", "inf"):
            result = invoke("cohomology", "--rep", "random:3", flag, value, "--json")
            assert result.exit_code == 3, (flag, value)
            assert "finite and positive" in result.stderr
    # json reads NaN and Infinity; a huge integer does not fit a float
    path = tmp_path / "job.json"
    for text in ('{"rank_tol": NaN}', '{"defect_tol": Infinity}',
                 '{"rank_tol": 1' + 400 * '0' + '}'):
        path.write_text(text)
        result = invoke("cohomology", "--config", str(path), "--json")
        assert result.exit_code == 3, text
        assert "must be a finite number" in result.stderr


# ---------------------------------------------------------------------------
# stratify


@pytest.mark.parametrize("rep,stratum,fixed", [
    ("central:[+,+,+,+]", "G", 0),
    ("torus:[0.7,1.1,-0.5,0.3]", "(T)", 4),
    ("random:11", "Z", 6),
])
def test_stratify_fixed_subspaces(rep, stratum, fixed):
    payload = payload_of(invoke("stratify", "--rep", rep, "--json"))
    assert payload["stratum"] == stratum
    assert payload["fixed_subspace_dim"] == fixed


# ---------------------------------------------------------------------------
# cone-span


def test_cone_span_central():
    payload = payload_of(invoke("cone-span", "--samples", "40", "--seed", "2", "--json"))
    assert payload["span_dim_Z1"] == payload["dim_Z1"] == 12
    assert payload["span_dim_H1"] == payload["h1"] == 12
    assert payload["success_rate"] >= 0.95
    assert payload["obstruction_residual_max"] <= 1e-8


def test_cone_span_undersampled_fails_invariant():
    # five directions cannot span a 12-dimensional cocycle space
    result = invoke("cone-span", "--samples", "5", "--seed", "2", "--json")
    assert result.exit_code == 2
    report = json.loads(result.stdout)
    assert report["status"].startswith("fail")


def test_cone_span_off_variety_is_input_error():
    # no named constructor leaves the variety, so shrink the defect gate
    # below the machine-level defect of a torus rep to drive the rejection
    result = invoke("cone-span", "--rep", "torus:[0.7,1.1,-0.5,0.3]",
                    "--tol-defect", "1e-30", "--json")
    assert result.exit_code == 3
    assert "off the variety" in result.stderr


def test_cohomology_off_variety_flagged_not_failed():
    result = invoke("cohomology", "--rep", "torus:[0.7,1.1,-0.5,0.3]",
                    "--tol-defect", "1e-30", "--json")
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["payload"]["on_variety"] is False
    assert "skipped" in report["payload"]["duality_ok"]


# ---------------------------------------------------------------------------
# reduction


def test_reduction_so3_payload_schema():
    payload = payload_of(invoke("reduction", "so3", "--samples", "60",
                                "--seed", "1", "--json"))
    assert list(payload) == ["model", "samples", "zariski_dim",
                             "relation_residual_max", "stratum_histogram"]
    assert payload["zariski_dim"] == 10
    assert payload["relation_residual_max"] < 1e-9
    assert sum(payload["stratum_histogram"].values()) == 60


def test_reduction_so2():
    payload = payload_of(invoke("reduction", "so2", "--samples", "40", "--json"))
    assert payload["zariski_dim"] == 3


def test_reduction_rejects_unknown_model():
    assert invoke("reduction", "so4", "--json").exit_code == 3


def test_reduction_rejects_tiny_sample_count():
    assert invoke("reduction", "so3", "--samples", "5", "--json").exit_code == 3


# ---------------------------------------------------------------------------
# holonomy-check


def test_holonomy_check_rejects_zero_samples():
    result = invoke("holonomy-check", "--samples", "0", "--json")
    assert result.exit_code == 3
    assert "--samples" in result.stderr


def test_holonomy_check_rejects_oversized_nodes(tmp_path, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking nodes")

    monkeypatch.setattr(holonomy_module, "MAX_NODES", 9)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"nodes": 10}))
    result = invoke("holonomy-check", "--config", str(config), "--json")
    assert result.exit_code == 3
    assert "nodes" in result.stderr


def test_holonomy_check_bounds():
    payload = payload_of(invoke("holonomy-check", "--samples", "8",
                                "--seed", "5", "--json"))
    assert payload["closed_form_max_error"] <= 1e-10
    assert payload["fd_derivative_max_error"] <= 1e-6
    assert payload["conjugation_max_error"] <= 1e-9
    assert payload["refinement_order"] >= 3.5


def test_holonomy_check_abelian_group_is_exact():
    payload = payload_of(invoke("holonomy-check", "--group", "U1", "--samples", "3", "--json"))
    assert payload["closed_form_max_error"] <= 1e-13
    assert payload["refinement_order"] == float("inf")


# ---------------------------------------------------------------------------
# genus2-su2-report


def test_genus2_report_checks_pass():
    payload = payload_of(invoke("genus2-su2-report", "--samples", "40",
                                "--seed", "7", "--json"))
    assert payload["central_count"] == 16
    assert all(payload["checks"].values())
    assert payload["strata"]["central"]["h_dims"] == [3, 12, 3]
    assert payload["strata"]["torus"]["fixed_subspace_dim"] == 4
    assert payload["local_models"]["deep_zariski_dim"] == 10
    assert payload["local_models"]["middle_zariski_dim"] == 7
    assert payload["obstruction"]["max_relative_error"] <= 1e-8


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_genus2_report_rejects_nonpositive_samples(samples):
    result = invoke("genus2-su2-report", "--samples", samples, "--json")
    assert result.exit_code == 3
    assert "--samples" in result.stderr


def test_genus2_report_builds_every_complex_with_its_rank_tol(monkeypatch):
    seen = []
    real = cohomology.build_complex

    def spy(pres, rep, rank_tol=1e-8):
        seen.append(rank_tol)
        return real(pres, rep, rank_tol)

    monkeypatch.setattr(cohomology, "build_complex", spy)
    monkeypatch.setattr(reports, "build_complex", spy)
    reports.genus2_su2_report(seed=0, samples=20, rank_tol=2e-8, defect_tol=1e-9)
    assert seen and set(seen) == {2e-8}


def test_genus2_report_byte_deterministic():
    a = invoke("genus2-su2-report", "--samples", "40", "--seed", "7", "--json")
    b = invoke("genus2-su2-report", "--samples", "40", "--seed", "7", "--json")
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.stdout_bytes == b.stdout_bytes


# ---------------------------------------------------------------------------
# config files and output modes


def test_config_supplies_and_flags_override(tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"rep": "torus:[0.7,1.1,2.3,0.4]", "genus": 2}))
    payload = payload_of(invoke("cohomology", "--config", str(config), "--json"))
    assert payload["h_dims"] == [1, 8, 1]
    payload = payload_of(invoke("cohomology", "--config", str(config),
                                "--rep", "central:[+,+,+,+]", "--json"))
    assert payload["h_dims"] == [3, 12, 3]


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"reply": "torus:[0.7]"}))
    assert invoke("cohomology", "--config", str(config)).exit_code == 3


@pytest.mark.parametrize("args,config", [
    # keys no command reads
    (["cohomology"], {"n": 3}),
    (["cohomology"], {"word": "x1"}),
    (["reduction", "so3"], {"model": "so2"}),
    # keys other commands read, which this one would ignore
    (["reduction", "so3"], {"rep": "central:[+,+,+,+]", "genus": 3, "rank_tol": 5}),
    (["cohomology"], {"fd_step": 1e-3}),
    (["holonomy-check"], {"rank_tol": 1e-6}),
], ids=["n", "word", "model", "reduction-rank_tol", "cohomology-fd_step",
        "holonomy-rank_tol"])
def test_config_key_the_command_does_not_read_rejected(tmp_path, args, config):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    result = invoke(*args, "--config", str(path), "--json")
    assert result.exit_code == 3
    assert "unknown config keys" in result.stderr


@pytest.mark.parametrize("config", [
    {"seed": [1]},
    {"seed": 1.7},
    {"seed": True},
    {"rank_tol": "1e-6"},
    {"rep": 3},
], ids=["seed-list", "seed-float", "seed-bool", "rank_tol-string", "rep-int"])
def test_config_value_of_wrong_type_rejected(tmp_path, config):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    result = invoke("stratify", "--config", str(path), "--json")
    assert result.exit_code == 3
    assert f"config key {next(iter(config))!r}" in result.stderr


def test_config_unreadable_rejected(tmp_path):
    assert invoke("cohomology", "--config", str(tmp_path / "no.json")).exit_code == 3


def test_plain_text_mirrors_payload():
    result = invoke("cohomology", "--rep", "torus:[0.7,1.1,2.3,0.4]")
    assert result.exit_code == 0
    assert "h_dims: [1, 8, 1]" in result.stdout
    assert "status: pass" in result.stdout


def test_wall_time_goes_to_stderr_only():
    result = invoke("cohomology", "--json")
    assert "wall_time" not in result.stdout
    assert "wall_time_s" in result.stderr

"""End-to-end tests of the command-line front end.

Every command is driven through click's test runner; JSON payloads are
parsed back and compared against the library-level expectations, and the
exit-code contract (0 pass, 2 invariant failure, 3 input error, 4
non-convergence) is pinned.
"""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from surfrep import cli, cohomology, reports, words
from surfrep.cli import main
from surfrep.groups import RANK_TOL


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


def test_fox_expansion_budget(monkeypatch):
    # each Fox term is a suffix word of its own: x1^5 builds 4 + 3 + 2 + 1
    # letters, x1^6 builds 15, over a budget of 10
    monkeypatch.setattr(words, "MAX_WORD_LEN", 10)
    assert payload_of(invoke("fox", "x1^5", "--json"))["identity_ok"] is True
    result = invoke("fox", "x1^6", "--json")
    assert result.exit_code == 3
    assert "Fox expansion needs 15 letters, over the budget of 10" in result.stderr
    assert result.stdout == ""


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


def test_centralizer_dim_follows_tol_rank():
    # at 1e-3 the small torus angles read as central; the centralizer dimension
    # and stratum must come from the same cutoff as h0
    payload = payload_of(invoke("cohomology", "--rep", "torus:[1e-5,2e-5,1e-5,3e-5]",
                                "--tol-rank", "1e-3", "--json"))
    assert payload["centralizer_dim"] == payload["h_dims"][0] == 3
    assert payload["stratum"] == "G"


def test_stratify_stabilizer_checks_follow_tol_rank():
    # at 1e-3 the whole group reads as the stabilizer: its elements commute with
    # the values only to about 1e-5, and D1 (entries about 1e-5) reads as zero,
    # so the stabilization and preservation checks must scale with the cutoff
    payload = payload_of(invoke("stratify", "--rep", "torus:[1e-5,2e-5,1e-5,3e-5]",
                                "--tol-rank", "1e-3", "--json"))
    assert payload["stratum"] == "G"
    assert payload["centralizer_dim"] == 3
    assert payload["fixed_subspace_dim"] == 0


def test_disagreeing_rank_cuts_fail_euler():
    # at cutoff 1.9e-12 D0 keeps its third singular value (3.3e-11), so B1 is
    # not inside the cut Z1 and the SVD that splits off H1 keeps a value of
    # 3.8e-6: basis_H1 has one column where rank-nullity counts none. The h
    # dims are the bases' column counts, so Euler fails instead of passing
    result = invoke("cohomology", "--group", "SU2", "--genus", "1", "--rep", "random:1",
                    "--tol-rank", "1e-12", "--json")
    assert result.exit_code == 2
    report = json.loads(result.stdout)
    assert report["status"] == "fail: euler"
    assert report["payload"]["h_dims"] == [0, 1, 0]
    assert report["payload"]["ranks"] == [3, 3]


def test_stratify_fails_euler_where_cohomology_does():
    # stratify prints the same h dims as cohomology, so it asserts the same
    # Euler and duality checks on them
    result = invoke("stratify", "--group", "SU2", "--genus", "1", "--rep", "random:1",
                    "--tol-rank", "1e-12", "--json")
    assert result.exit_code == 2
    report = json.loads(result.stdout)
    assert report["status"] == "fail: euler"
    assert report["payload"]["h_dims"] == [0, 1, 0]


def test_non_convergence_exits_4(monkeypatch):
    def stall(*args, **kwargs):
        raise cohomology.ConvergenceError("line search stalled before reaching tolerance")

    monkeypatch.setattr(cohomology, "newton_project_to_variety", stall)
    result = invoke("cohomology", "--rep", "random:1", "--json")
    assert result.exit_code == 4
    assert "failed to converge: no solution found from seed 1" in result.stderr
    assert result.stdout == ""


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


def test_tolerance_defaults_have_one_owner():
    # the rank cutoff's default is the library's, and each tolerance's help
    # text states the default it has
    assert cli.OPTIONS["rank_tol"][2] is RANK_TOL
    for key in cli.TOLERANCES:
        _, _, default, text = cli.OPTIONS[key]
        assert float(re.search(r"\(default ([^)]+)\)", text).group(1)) == default, key


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


def test_cone_span_undersampled_fails_invariant(monkeypatch):
    # five directions cannot span a 12-dimensional cocycle space, so the run
    # is rejected once the complex is built, before any cone sample is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking --samples against dim Z1")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    result = invoke("cone-span", "--samples", "5", "--seed", "2", "--json")
    assert result.exit_code == 3
    assert "--samples must be at least dim Z1 = 12" in result.stderr
    assert result.stdout == ""


def test_cone_span_obstruction_residual_is_pinned():
    # a change to the obstruction walk or to its stacking must keep these bits
    payload = payload_of(invoke("cone-span", "--rep", "central:[+,+,+,+]",
                                "--samples", "120", "--json"))
    assert payload["obstruction_residual_max"] == 1.5533855575865597e-10


def test_cone_span_off_variety_is_input_error():
    # no named constructor leaves the variety, so shrink the defect gate
    # below the machine-level defect of a torus rep to drive the rejection
    result = invoke("cone-span", "--rep", "torus:[0.7,1.1,-0.5,0.3]",
                    "--tol-defect", "1e-30", "--json")
    assert result.exit_code == 3
    assert "off the variety" in result.stderr


def test_cone_span_rejects_oversized_sample_count(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking --samples")

    monkeypatch.setattr(reports, "MAX_SAMPLES", 30)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    result = invoke("cone-span", "--samples", "31", "--json")
    assert result.exit_code == 3
    assert "--samples" in result.stderr


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


def test_holonomy_check_bounds():
    payload = payload_of(invoke("holonomy-check", "--samples", "8",
                                "--seed", "5", "--json"))
    assert payload["closed_form_max_error"] <= 1e-10
    assert payload["fd_derivative_max_error"] <= 1e-6
    assert payload["conjugation_max_error"] <= 1e-9
    assert payload["refinement_order"] >= 3.5


# the four payload floats of `holonomy-check --samples 8 --seed 5 --json`, as
# printed before holonomy moved from the prefix scan to the product tree and
# the finite-difference and gauge checks to one stacked refinement: both
# changes keep every bit
HOLONOMY_CHECK_FIELDS = ("closed_form_max_error", "fd_derivative_max_error",
                         "conjugation_max_error", "refinement_order")
HOLONOMY_CHECK_GOLDEN = {
    "SU2": (6.190193435307404e-15, 6.29692662801806e-10,
            2.6127540498427774e-14, 3.9999314957700043),
    "SO3": (1.9577185488496182e-14, 6.766479915595059e-10,
            3.865038875368843e-14, 4.000977604215509),
    "SU2xU1": (1.7636385104273047e-14, 4.162364829045363e-10,
               3.5146413435755887e-14, 4.000731432124779),
}


@pytest.mark.parametrize("group", sorted(HOLONOMY_CHECK_GOLDEN))
def test_holonomy_check_payload_is_pinned(group):
    payload = payload_of(invoke("holonomy-check", "--group", group, "--samples", "8",
                                "--seed", "5", "--json"))
    assert tuple(payload[field] for field in HOLONOMY_CHECK_FIELDS) == HOLONOMY_CHECK_GOLDEN[group]


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


def test_genus2_report_obstruction_fit_is_pinned():
    # a change to the obstruction walk or to its stacking must keep these bits
    payload = payload_of(invoke("genus2-su2-report", "--samples", "40",
                                "--seed", "7", "--json"))
    assert payload["obstruction"]["constant"] == -1.0000000000000002
    assert payload["obstruction"]["max_relative_error"] == 8.799360403080845e-16


def test_genus2_report_undersampled_is_input_error(monkeypatch):
    # 5 cone directions can never span the central point's 12-dimensional Z1,
    # so the report stops once that complex is built, before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking --samples against dim Z1")

    monkeypatch.setattr(reports, "sample_cone_directions", no_draw)
    monkeypatch.setattr(reports, "sample_stabilizer", no_draw)
    result = invoke("genus2-su2-report", "--samples", "5", "--json")
    assert result.exit_code == 3
    assert "--samples must be at least dim Z1 = 12" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_genus2_report_rejects_nonpositive_samples(samples):
    result = invoke("genus2-su2-report", "--samples", samples, "--json")
    assert result.exit_code == 3
    assert "--samples" in result.stderr


@pytest.fixture
def builds(monkeypatch):
    """The rank_tol of every build_complex call, in call order."""
    seen = []
    real = cohomology.build_complex

    def spy(pres, rep, rank_tol=1e-8):
        seen.append(rank_tol)
        return real(pres, rep, rank_tol)

    monkeypatch.setattr(cohomology, "build_complex", spy)
    monkeypatch.setattr(reports, "build_complex", spy)
    return seen


def test_genus2_report_builds_every_complex_with_its_rank_tol(builds):
    reports.genus2_su2_report(seed=0, samples=20, rank_tol=2e-8, defect_tol=1e-9)
    assert builds == [2e-8] * 3  # one complex per stratum


@pytest.mark.parametrize("report, extra", [
    (reports.cohomology_report, {}),
    (reports.stratify_report, {"seed": 0}),
    (reports.cone_span_report, {"seed": 0, "samples": 20}),
], ids=["cohomology", "stratify", "cone-span"])
def test_single_rep_report_builds_its_complex_once(builds, report, extra):
    report("SU2", 2, "torus:[0.7,1.1,-0.5,0.3]", rank_tol=2e-8, defect_tol=1e-9, **extra)
    assert builds == [2e-8]


def test_genus2_report_byte_deterministic():
    a = invoke("genus2-su2-report", "--samples", "40", "--seed", "7", "--json")
    b = invoke("genus2-su2-report", "--samples", "40", "--seed", "7", "--json")
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.stdout_bytes == b.stdout_bytes


# a report's payload must agree with itself: the fixed subspace and the cone's
# span in H1 lie in H1, and its span in Z1 lies in Z1. The runs are the
# README's and a genus-1 point at --tol-rank 1e-12, where the rank cut of D0
# and the one that splits off H1 disagree
SELF_CONSISTENT_RUNS = {
    "readme-stratify": ["stratify", "--rep", "central:[+,-,+,-]"],
    "readme-cone-span": ["cone-span", "--rep", "central:[+,+,+,+]", "--samples", "120"],
    "readme-genus2": ["genus2-su2-report", "--seed", "7"],
}
for command in ("stratify", "cone-span"):
    for group in ("SU2", "SO3", "SU2xU1"):
        SELF_CONSISTENT_RUNS[f"{command}-{group}-genus1-tol1e-12"] = [
            command, "--group", group, "--genus", "1", "--rep", "random:1", "--tol-rank", "1e-12"]


@pytest.mark.parametrize("args", SELF_CONSISTENT_RUNS.values(), ids=SELF_CONSISTENT_RUNS)
def test_payload_agrees_with_itself(args):
    result = invoke(*args, "--json")
    assert result.exit_code in (0, 2), result.output
    payload = json.loads(result.stdout)["payload"]
    for entry in payload.get("strata", {"": payload}).values():
        h1 = entry["h1"] if "h1" in entry else entry["h_dims"][1]
        assert entry.get("fixed_subspace_dim", 0) <= h1
        assert entry.get("span_dim_H1", 0) <= h1
        assert entry.get("span_dim_Z1", 0) <= entry.get("dim_Z1", 0)


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
    # the path length, grid and finite-difference step are fixed
    (["holonomy-check"], {"b": 2.0}),
    (["holonomy-check"], {"fd_step": 1e-3}),
    (["holonomy-check"], {"nodes": 7}),
], ids=["n", "word", "model", "reduction-rank_tol", "cohomology-fd_step",
        "holonomy-rank_tol", "holonomy-b", "holonomy-fd_step", "holonomy-nodes"])
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


@pytest.mark.parametrize("args, config, message", [
    (["fox", "x1", "--n", "0"], None, "--n must be at least 1"),
    (["cone-span", "--samples", "0"], None, "--samples must be at least 1"),
    (["cohomology"], [1, 2], "config must be a JSON object"),
    (["cohomology", "--rep", "central:[+,+]"], None, "need 4 signs, got 2"),
    (["cohomology", "--group", "SO3", "--rep", "central:[+,-,+,+]"], None,
     "group center does not contain minus the identity"),
    (["cohomology", "--rep", "torus:[0.7,x,-0.5,0.3]"], None, "bad angle list"),
], ids=["fox-n", "cone-span-samples", "config-list", "central-sign-count",
        "central-minus-SO3", "torus-angles"])
def test_input_error_exits_3(tmp_path, args, config, message):
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    result = invoke(*args, "--json")
    assert result.exit_code == 3
    assert message in result.stderr


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


# ---------------------------------------------------------------------------
# the README's config table


REPORTS = {
    "cohomology": reports.cohomology_report,
    "stratify": reports.stratify_report,
    "cone-span": reports.cone_span_report,
    "reduction": reports.reduction_report,
    "holonomy-check": reports.holonomy_check_report,
    "genus2-su2-report": reports.genus2_su2_report,
}


def test_readme_config_table_matches_report_signatures():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | config keys |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        command, keys = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", line).groups()
        rows[command] = re.findall(r"`(\w+)`", keys)
    # exactly the commands that take --config, each with its report's keys
    assert set(rows) == {name for name, cmd in main.commands.items()
                         if any(p.name == "config" for p in cmd.params)}
    assert set(rows) == set(REPORTS)
    for command, keys in rows.items():
        derived = [k for k in inspect.signature(REPORTS[command]).parameters if k in cli.OPTIONS]
        assert keys == derived, command


@pytest.mark.parametrize("args", [
    ["stratify"], ["cone-span"], ["reduction", "so2"], ["holonomy-check"], ["genus2-su2-report"],
], ids=["stratify", "cone-span", "reduction", "holonomy-check", "genus2-su2-report"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_names_the_option(tmp_path, monkeypatch, args, source):
    # rejected before any draw; numpy's own error named no option
    monkeypatch.setattr(np.random, "default_rng", fail_if_called)
    if source == "flag":
        args = [*args, "--seed", "-1"]
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"seed": -1}))
        args = [*args, "--config", str(path)]
    result = invoke(*args, "--json")
    assert result.exit_code == 3
    assert "--seed must be a non-negative integer, got -1" in result.stderr
    assert result.stdout == ""

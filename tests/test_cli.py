import inspect
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from folioid import cli
from folioid import dirac as dr
from folioid.scenarios import FAMILIES, Scenario


def config_path(name: str):
    return resources.files("folioid") / "configs" / name


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def strip_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_s": [-+0-9.eE]+,?\n', "", text)


class TestRun:
    def test_bundled_basegp_pipeline(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["run", str(config_path("ex_basegp.json")),
                         "--out", str(out), "--samples", "10"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["passed"] is True
        names = [r["name"] for r in report["results"]]
        assert "check_condition6" in names and "validate_quotient_groupoid" in names
        quotient = next(r for r in report["results"]
                        if r["name"] == "validate_quotient_groupoid")
        # the quotient label algebra is the pair groupoid on the line
        assert quotient["details"]["object_label_dim"] == 1
        assert quotient["details"]["arrow_label_dim"] == 2
        assert quotient["max_residual"] <= 1e-6

    def test_bundled_vb_pipeline(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["run", str(config_path("ex_vb.json")),
                         "--out", str(out), "--samples", "10"])
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    @pytest.mark.parametrize("family, params", [
        # the vector group R^2, a groupoid over a point, with S = span e0, 0 and TG
        ("vb_trivial", {"k": 2, "w_basis": [[1, 0]], "m_dim": 0, "f_basis": []}),
        ("vb_trivial", {"k": 2, "w_basis": [], "m_dim": 0, "f_basis": []}),
        ("vb_trivial", {"k": 2, "w_basis": [[1, 0], [0, 1]], "m_dim": 0, "f_basis": []}),
        # D = TM: the leaf space is a point
        ("pair", {"m_dim": 1, "d_basis": [[1.0]]}),
        # F = TM: one base leaf, so the quotient lies over a point
        ("vb_trivial", {"k": 2, "w_basis": [[1, 0]], "m_dim": 2, "f_basis": [[1, 0], [0, 1]]}),
        # the unit groupoid of R^2, which is étale: its algebroid is 0
        ("vb_trivial", {"k": 0, "w_basis": [], "m_dim": 2, "f_basis": [[1, 0]]}),
    ], ids=["group_S_line", "group_S_zero", "group_S_TG", "pair_D_TM", "vb_F_TM",
            "unit_groupoid_F_line"])
    def test_degenerate_cases_pass_the_vb_pipeline(self, family, params):
        data = json.loads(config_path("ex_vb.json").read_text())
        data.update(family=family, params=params, numeric={"samples": 4, "seed": 7})
        report = cli.run_pipeline(cli.ScenarioConfig.from_dict(data))
        failed = [r for r in report["results"] if not r["pass"]]
        assert report["passed"] is True, failed
        assert len(report["results"]) == 13

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_point_quotient_passes_the_presymplectic_pipeline(self, seed):
        # omega = 0 on R^3: the kernel is TM, so the leaf space and its Poisson
        # structure, the 0 x 0 bivector, lie over a point
        data = json.loads(config_path("presymplectic_dirac.json").read_text())
        data.update(params={"m_dim": 3, "omega": np.zeros((3, 3)).tolist()},
                    numeric={"samples": 4, "seed": seed})
        report = cli.run_pipeline(cli.ScenarioConfig.from_dict(data))
        failed = [r for r in report["results"] if not r["pass"]]
        assert report["passed"] is True, failed
        assert len(report["results"]) == 11

    def test_bundled_finite_pipelines(self, tmp_path):
        for name in ("finite_ex_basegp.json", "finite_ex_vb.json"):
            out = tmp_path / "report.json"
            assert cli.main(["run", str(config_path(name)), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["passed"] is True

    def test_negative_tolerance_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "family": "pair", "params": {},
            "numeric": {"tol_rank": -1.0},
            "pipeline": ["validate_groupoid"],
        })
        assert cli.main(["run", path]) == 2
        assert "positive" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": "pair", "params": {},
                                       "pipeline": ["validate_groupoid"]})
        assert cli.main(["run", path, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.ScenarioConfig.from_dict({"family": "pair", "numeric": {"seed": -1},
                                          "pipeline": ["validate_groupoid"]})

    @pytest.mark.parametrize("key,literal", [
        ("samples", "1e400"), ("samples", "Infinity"), ("seed", "NaN"),
        ("seed", "-Infinity"), ("rk4_steps_per_unit", "1e400"), ("flow_time", "1e400"),
        ("tol_member", "Infinity"), ("h_fd", "NaN"),
    ])
    def test_non_finite_numeric_value_exits_2(self, tmp_path, capsys, key, literal):
        path = tmp_path / "config.json"
        path.write_text('{"family": "pair", "params": {}, '
                        f'"numeric": {{"{key}": {literal}}}, '
                        '"pipeline": ["check_multiplicative", "spot_check_completeness"]}')
        assert cli.main(["run", str(path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body,message", [
        ('"family": "pair", "params": {"m_dim": 2, "d_basis": [[Infinity, 0]]}',
         "params.d_basis.0.0 must be finite"),
        ('"family": "presymplectic_pair_dirac", "params": {"omega": [[0, NaN, 0], [-1, 0, 0], '
         '[0, 0, 0]]}', "params.omega.0.1 must be finite"),
        ('"family": "group_action_pair", "params": {"direction": [0, 0]}',
         "direction must be a nonzero vector"),
        ('"family": "pair", "params": [["m_dim", 2]]', "params must be a JSON object"),
        ('"family": "pair", "numeric": [["samples", 4]]', "numeric must be a JSON object"),
    ], ids=["infinite_d_basis", "nan_omega", "zero_direction", "params_list", "numeric_list"])
    def test_malformed_scenario_params_exit_2(self, tmp_path, capsys, body, message):
        path = tmp_path / "config.json"
        path.write_text(f'{{{body}, "pipeline": ["validate_groupoid"]}}')
        assert cli.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,literal", [
        ("samples", '"8"'), ("samples", '"2.7"'), ("samples", '"abc"'),
        ("tol_rank", '"8"'), ("tol_rank", '"2.7"'), ("tol_rank", '"abc"'), ("tol_rank", '"inf"'),
    ])
    def test_non_number_value_exits_2(self, tmp_path, capsys, key, literal):
        path = tmp_path / "config.json"
        path.write_text('{"family": "pair", "params": {}, '
                        f'"numeric": {{"{key}": {literal}}}, '
                        '"pipeline": ["validate_groupoid"]}')
        assert cli.main(["run", str(path)]) == 2
        assert f"numeric parameter {key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("samples", 2.7), ("seed", 0.5), ("rk4_steps_per_unit", 199.5),
        ("samples", True), ("seed", False), ("rk4_steps_per_unit", True),
        ("tol_leaf", True), ("tol_member", True),
    ])
    def test_value_that_coercion_would_change_exits_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {"family": "pair", "params": {},
                                       "numeric": {key: value},
                                       "pipeline": ["validate_groupoid"]})
        assert cli.main(["run", path]) == 2
        assert f"numeric parameter {key} must be" in capsys.readouterr().err

    def test_integral_float_for_an_int_key_is_accepted(self):
        cfg = cli.ScenarioConfig.from_dict({
            "family": "pair", "params": {},
            "numeric": {"samples": 8.0, "seed": 3.0, "rk4_steps_per_unit": 200.0},
            "pipeline": ["validate_groupoid"],
        })
        values = (cfg.samples, cfg.seed, cfg.numeric.rk4_steps_per_unit)
        assert values == (8, 3, 200)
        assert all(type(v) is int for v in values)

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": "bogus", "pipeline": ["validate_groupoid"]})
        assert cli.main(["run", path]) == 2

    def test_unknown_check_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family": "pair", "pipeline": ["not_a_check"]})
        assert cli.main(["run", path]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_failing_check_exits_1(self, tmp_path, capsys):
        # every sampled axiom residual of this scenario is exactly 0.0 (the run
        # passes at tol_leaf 1e-15); what fails is a representative walk whose
        # label drifts by one rounding error, 4.4e-16 > 1e-18, which stops the
        # pipeline with a WellDefinednessViolated
        path = write_config(tmp_path, {
            "family": "group_action_pair", "params": {},
            "numeric": {"samples": 8, "seed": 3, "tol_leaf": 1e-18, "tol_axiom": 1e-18},
            "pipeline": ["validate_quotient_groupoid"],
        })
        out = tmp_path / "report.json"
        assert cli.main(["run", path, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["results"][-1]["witness"]["error"] == "WellDefinednessViolated"

    def test_seeded_reports_byte_stable(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg = str(config_path("presymplectic_dirac.json"))
        assert cli.main(["run", cfg, "--out", str(out1), "--samples", "8"]) == 0
        assert cli.main(["run", cfg, "--out", str(out2), "--samples", "8"]) == 0
        assert strip_wall_times(out1.read_text()) == strip_wall_times(out2.read_text())

    def test_hypothesis_violation_short_circuits_with_partial_report(self, tmp_path,
                                                                      monkeypatch):
        from folioid.errors import RankDrift
        from folioid.report import CheckReport

        def fine(scenario, cfg, rng):
            return CheckReport("validate_groupoid", True, 0.0)

        def drifts(scenario, cfg, rng):
            raise RankDrift("injected drift", location=np.array([0.5, -1.0]))

        registry = dict(cli.CHECKS)
        registry["validate_groupoid"] = (fine, "ok")
        registry["check_rank_structure"] = (drifts, "boom")
        monkeypatch.setattr(cli, "CHECKS", registry)
        path = write_config(tmp_path, {
            "family": "pair", "params": {},
            "pipeline": ["validate_groupoid", "check_rank_structure",
                         "check_involutive"],
        })
        out = tmp_path / "report.json"
        assert cli.main(["run", path, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        names = [r["name"] for r in report["results"]]
        assert names == ["validate_groupoid", "check_rank_structure"]
        assert report["results"][-1]["short_circuited_pipeline"] is True
        assert report["results"][-1]["witness"]["error"] == "RankDrift"
        assert report["results"][-1]["witness"]["at"] == [0.5, -1.0]
        assert report["passed"] is False

    def test_seed_override_changes_samples_not_structure(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg = str(config_path("finite_ex_basegp.json"))
        assert cli.main(["run", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert cli.main(["run", cfg, "--out", str(out2), "--seed", "2"]) == 0
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert r1["passed"] and r2["passed"]
        assert r1["config"]["numeric"]["seed"] == 1
        assert r2["config"]["numeric"]["seed"] == 2


class TestIntrospection:
    def test_list_checks(self, capsys):
        assert cli.main(["list-checks"]) == 0
        text = capsys.readouterr().out
        assert "check_condition6" in text
        assert "pushforward_dirac" in text

    def test_every_pipeline_name_maps_to_an_operation(self):
        import folioid.dirac, folioid.fingroupoid, folioid.leafspace, folioid.multdist
        import folioid.liegroupoid
        modules = [folioid.dirac, folioid.fingroupoid, folioid.leafspace,
                   folioid.multdist, folioid.liegroupoid]
        for name in cli.CHECKS:
            if name == "validate_groupoid":
                assert hasattr(folioid.fingroupoid, name)
                assert hasattr(folioid.liegroupoid, "validate_smooth_groupoid")
                continue
            assert any(hasattr(m, name) for m in modules), name

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_describe_family_names_every_parameter(self, capsys, family):
        assert cli.main(["describe-family", family]) == 0
        text = capsys.readouterr().out
        for name in inspect.signature(FAMILIES[family]).parameters:
            assert re.search(rf"\b{name}\b", text), name

    def test_describe_family_unknown(self, capsys):
        assert cli.main(["describe-family", "bogus"]) == 2


class TestRegistry:
    @pytest.mark.parametrize("key", ["tol_jac", "tol_comp", "tol_bogus"])
    def test_unknown_numeric_key_exits_2(self, tmp_path, capsys, key):
        path = write_config(tmp_path, {
            "family": "pair", "params": {}, "numeric": {key: 1e-6},
            "pipeline": ["validate_groupoid"],
        })
        assert cli.main(["run", path]) == 2
        assert "unknown numeric keys" in capsys.readouterr().err

    @pytest.mark.parametrize("check", sorted(cli.CHECKS))
    def test_check_on_scenario_without_its_data_exits_2(self, tmp_path, capsys,
                                                        monkeypatch, check):
        monkeypatch.setitem(FAMILIES, "bare", lambda: Scenario("bare"))
        family, missing = MISSING_DATA.get(check, ("finite", "groupoid"))
        path = write_config(tmp_path, {
            "family": family, "params": {}, "numeric": {"samples": 2},
            "pipeline": [check],
        })
        assert cli.main(["run", path]) == 2
        assert f"check {check} needs a scenario with {missing}" in capsys.readouterr().err

    def test_smooth_entries_carry_pipeline_names_and_reuse_no_pushforward(
            self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("is_forward_dirac reran the pushforward")

        monkeypatch.setattr(dr, "pushforward_dirac", forbidden)
        pipeline = ["validate_groupoid", "is_forward_dirac"]
        path = write_config(tmp_path, {
            "family": "presymplectic_pair_dirac", "params": {},
            "numeric": {"samples": 8}, "pipeline": pipeline,
        })
        out = tmp_path / "report.json"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [r["name"] for r in report["results"]] == pipeline
        assert report["results"][1]["max_residual"] <= 1e-6

    def test_lift_section_lifts_each_stack_once(self, monkeypatch):
        from folioid import multdist as md

        calls = []
        lift = md.lift_at_point
        monkeypatch.setattr(md, "lift_at_point",
                            lambda gd, dist, g, *args: calls.append(np.shape(g))
                            or lift(gd, dist, g, *args))
        cfg = cli.ScenarioConfig.from_dict({"family": "pair", "params": {},
                                            "numeric": {"samples": 8},
                                            "pipeline": ["lift_section"]})
        assert cli.run_pipeline(cfg)["results"][0]["pass"] is True
        assert calls == [(5, 4), (5, 4)]  # one field, modes s and t

    def test_normal_quotient_built_once_per_run(self, tmp_path, monkeypatch):
        from folioid import fingroupoid as fin

        calls = []
        build = fin.quotient_by_normal_subgroupoid
        monkeypatch.setattr(fin, "quotient_by_normal_subgroupoid",
                            lambda *args: calls.append(1) or build(*args))
        out = tmp_path / "report.json"
        for runs in (1, 2):
            assert cli.main(["run", str(config_path("finite_ex_basegp.json")),
                             "--out", str(out)]) == 0
            assert len(calls) == runs
        report = json.loads(out.read_text())
        names = [r["name"] for r in report["results"]]
        assert "quotient_by_normal_subgroupoid" in names and "quotient_by_nss" in names

    def test_cli_import_leaves_scipy_unloaded(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, folioid.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "False"


class TestRunnerWitnesses:
    """The checks the runner computes itself name a witness when they fail."""

    def run(self, check):
        cfg = cli.ScenarioConfig.from_dict({"family": "pair", "params": {},
                                            "numeric": {"samples": 8}, "pipeline": [check]})
        entry = cli.run_pipeline(cfg)["results"][0]
        assert entry["pass"] is False
        return entry

    def test_lift_section_names_field_and_mode(self, monkeypatch):
        from folioid import multdist as md

        monkeypatch.setattr(md, "descent_residual", lambda *args: 0.5)
        entry = self.run("lift_section")
        assert entry["max_residual"] == 0.5
        assert entry["witness"] == {"kind": "descent", "field": "D[0]", "mode": "s"}

    def test_completeness_names_the_start_of_a_failed_lift(self, monkeypatch):
        from folioid.geomcore import constant_field
        from folioid.scenarios import build_scenario

        def unliftable(family, params):
            scenario = build_scenario(family, params)
            scenario.base_fields = [constant_field(scenario.groupoid.base, [0.0, 1.0])]
            return scenario

        monkeypatch.setattr(cli, "build_scenario", unliftable)
        cfg = cli.ScenarioConfig.from_dict({"family": "pair", "params": {},
                                            "pipeline": ["spot_check_completeness"]})
        entry = cli.run_pipeline(cfg)["results"][0]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0])))
        first = unliftable("pair", {}).groupoid.sample_arrow(rng)
        assert entry["short_circuited_pipeline"] is True
        assert entry["witness"]["error"] == "LiftFailed"
        assert entry["witness"]["from"] == first.tolist() and entry["witness"]["sign"] == 1.0

    def test_transport_names_arrow_target_and_end(self, monkeypatch):
        from folioid import leafspace as ls

        transport = ls.transport_to_target
        monkeypatch.setattr(ls, "transport_to_target",
                            lambda *args: transport(*args) + np.array([0.1, 0.0, 0.0, 0.0]))
        entry = self.run("transport_to_target")
        witness = entry["witness"]
        assert witness["kind"] in ("target_gap", "label_drift")
        assert entry["max_residual"] == pytest.approx(0.1, rel=1e-9)
        assert set(witness) == {"kind", "arrow", "target", "end"}

    def test_finite_validation_names_its_first_three_violations(self, monkeypatch):
        from folioid import fingroupoid as fin

        report = fin.ValidationReport()
        for k in range(4):
            report.add("condition_1", (k, k + 1))
        monkeypatch.setattr(fin, "validate_nss", lambda *args: report)
        cfg = cli.ScenarioConfig.from_dict({"family": "finite", "params": {},
                                            "pipeline": ["validate_nss"]})
        entry = cli.run_pipeline(cfg)["results"][0]
        assert entry["pass"] is False and entry["max_residual"] == 1.0
        assert entry["witness"] == {"violations": [
            {"axiom": "condition_1", "witness": [k, k + 1]} for k in range(3)]}


# checks whose data a family other than "finite" (which has only the finite
# instance) lacks: check -> (family, missing scenario part); "bare" has no data
MISSING_DATA = {
    "validate_groupoid": ("bare", "groupoid"),
    "check_involutive": ("finite", "dist"),
    "validate_nss": ("pair", "finite"),
    "quotient_by_normal_subgroupoid": ("pair", "finite"),
    "quotient_by_nss": ("pair", "finite"),
    "check_lagrangian": ("pair", "dirac"),
    "check_integrable": ("pair", "dirac"),
    "check_multiplicative_dirac": ("pair", "dirac"),
    "pushforward_dirac": ("pair", "dirac"),
    "is_forward_dirac": ("pair", "dirac"),
}

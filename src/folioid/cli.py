"""Batch scenario runner.

Usage:
    folioid run <config.json> [--out report.json] [--seed N] [--samples N]
    folioid list-checks
    folioid describe-family <name>

A config names a builtin family, its parameters, numeric overrides and an
ordered pipeline of checks.  Reports are deterministic given the seed:
every check draws from its own PCG64 generator seeded by
SeedSequence([seed, check_index]).  Exit code 0 means every check passed,
1 means a check failed, 2 means the config did not validate or named a
check on a scenario that lacks the data it reads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields
import numpy as np

from . import dirac as dr
from . import fingroupoid as fin
from . import leafspace as ls
from . import liegroupoid as lg
from . import linalg
from . import multdist as md
from .errors import HypothesisViolation
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport, Worst
from .scenarios import FAMILIES, FAMILY_DESCRIPTIONS, Scenario, build_scenario

SCHEMA_VERSION = 1

# numeric config key -> the type its value is coerced to (int or float)
NUMERIC_KEYS = {f.name: type(f.default) for f in fields(NumericParams)}


class ConfigError(Exception):
    pass


def _number(key: str, kind: type, value):
    """``value`` as ``kind`` (int or float), or a ConfigError naming ``key``.

    Rejects what coercion would change: a string or a boolean, a non-integral
    value of an int key, and a non-finite value (JSON reads ``Infinity``,
    ``NaN`` and ``1e400`` as non-finite floats).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"numeric parameter {key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"numeric parameter {key} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"numeric parameter {key} must be an integer, got {value!r}")
    return kind(value)


def _finite_params(key: str, value) -> None:
    """Raise a ConfigError naming ``key`` at the first non-finite number in ``value``,
    a list entry as ``key.index`` and an object entry as ``key.name``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"scenario parameter {key} must be finite, got {value!r}")
    if isinstance(value, (dict, list)):
        for name, item in value.items() if isinstance(value, dict) else enumerate(value):
            _finite_params(f"{key}.{name}", item)


@dataclass
class ScenarioConfig:
    family: str
    params: dict
    numeric: NumericParams
    samples: int
    seed: int
    pipeline: list

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        family = data.get("family")
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
        params = data.get("params", {})
        numeric_in = data.get("numeric", {})
        for key, value in (("params", params), ("numeric", numeric_in)):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        _finite_params("params", params)
        numeric_in = dict(numeric_in)
        samples = _number("samples", int, numeric_in.pop("samples", 50))
        seed = _number("seed", int, numeric_in.pop("seed", 0))
        unknown = set(numeric_in) - NUMERIC_KEYS.keys()
        if unknown:
            raise ConfigError(f"unknown numeric keys: {sorted(unknown)}")
        overrides = {key: _number(key, NUMERIC_KEYS[key], value)
                     for key, value in numeric_in.items()}
        for key, value in overrides.items():
            if not value > 0:
                raise ConfigError(f"numeric parameter {key} must be positive")
        if samples < 1:
            raise ConfigError("samples must be >= 1")
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        numeric = DEFAULT_PARAMS.override(**overrides)
        pipeline = data.get("pipeline")
        if not isinstance(pipeline, list) or not pipeline:
            raise ConfigError("pipeline must be a non-empty list of check names")
        for name in pipeline:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; see `folioid list-checks`")
        return cls(family, params, numeric, samples, seed, pipeline)

    def echo(self) -> dict:
        numeric = {k: getattr(self.numeric, k) for k in sorted(NUMERIC_KEYS)}
        numeric["samples"] = self.samples
        numeric["seed"] = self.seed
        return {"family": self.family, "params": self.params,
                "numeric": numeric, "pipeline": list(self.pipeline)}


# ---------------------------------------------------------------------------
# check registry: name -> (runner, one-line description)

def _need(scenario: Scenario, attr: str, check: str):
    value = getattr(scenario, attr)
    if value is None:
        raise ConfigError(f"check {check} needs a scenario with {attr}")
    return value


def _points(scenario: Scenario, check: str, n: int, rng) -> list:
    gd = _need(scenario, "groupoid", check)
    return [gd.sample_arrow(rng) for _ in range(n)]


def _sampled(module, name: str, *parts: str, count=lambda samples: samples,
             at_points: bool = False):
    """Runner for ``module.name(*parts, count(samples), rng, params)``, or,
    with ``at_points``, for ``module.name(*parts, sampled arrows, params)``.

    The function is looked up when the check runs, so anything wrapping the
    module's attribute (a profiler, a test double) sees the call.
    """
    def run(s: Scenario, cfg: ScenarioConfig, rng) -> CheckReport:
        args = [_need(s, part, name) for part in parts]
        if at_points:
            return getattr(module, name)(*args, _points(s, name, cfg.samples, rng), cfg.numeric)
        return getattr(module, name)(*args, count(cfg.samples), rng, cfg.numeric)
    return run


def _exact(name: str, report: fin.ValidationReport, **details) -> CheckReport:
    """An exact finite validation: residual 1.0 on any violation, and the
    first three violations as its witness."""
    worst = Worst()
    if not report.valid:
        worst.see(1.0, violations=[v.to_json() for v in report.violations[:3]])
    return worst.report(name, 0.0, details)


def _run_validate_groupoid(s: Scenario, cfg: ScenarioConfig, rng) -> CheckReport:
    if s.finite is not None:
        return _exact("validate_groupoid", fin.validate_groupoid(s.finite.groupoid),
                      arrows=len(s.finite.groupoid.arrows))
    return lg.validate_smooth_groupoid(_need(s, "groupoid", "validate_groupoid"),
                                       cfg.samples, rng, cfg.numeric)


def _run_validate_nss(s: Scenario, cfg: ScenarioConfig, rng) -> CheckReport:
    inst = _need(s, "finite", "validate_nss")
    return _exact("validate_nss", fin.validate_nss(inst.groupoid, inst.nss))


def _run_quotient_normal(s: Scenario, cfg: ScenarioConfig, rng) -> CheckReport:
    q = _need(s, "finite", "quotient_by_normal_subgroupoid").normal_quotient
    return Worst().report("quotient_by_normal_subgroupoid", 0.0,
                          {"objects": len(q.objects), "arrows": len(q.arrows)})


def _run_quotient_nss(s: Scenario, cfg: ScenarioConfig, rng) -> CheckReport:
    inst = _need(s, "finite", "quotient_by_nss")
    q_n = inst.normal_quotient  # shared with quotient_by_normal_subgroupoid
    q_s, _ = fin.quotient_by_nss(inst.groupoid, inst.nss)
    isomorphic = fin.find_isomorphism(q_n, q_s) is not None
    return Worst().report("quotient_by_nss", 0.0,
                          {"objects": len(q_s.objects), "arrows": len(q_s.arrows),
                           "agrees_with_normal_quotient": isomorphic},
                          ok=isomorphic == inst.expected_duality)


def _run_lift_section(s, cfg, rng):
    gd, dist = (_need(s, part, "lift_section") for part in ("groupoid", "dist"))
    points = _points(s, "lift_section", max(5, cfg.samples // 4), rng)
    worst = Worst()
    for base_field in s.base_fields:
        for mode in ("s", "t"):
            x_field = md.lift_section(gd, dist, base_field, mode, cfg.numeric)
            worst.see(md.descent_residual(gd, x_field, base_field, mode, points),
                      kind="descent", field=base_field.name, mode=mode)
            for g, vec in zip(points[:3], x_field(np.array(points))):  # a memo hit
                basis = dist.fiber_basis(g, cfg.numeric.tol_rank)
                worst.see(np.linalg.norm(vec - basis @ (basis.T @ vec)), kind="membership",
                          field=base_field.name, mode=mode, at=g)
    return worst.report("lift_section", cfg.numeric.tol_desc, {"fields": len(s.base_fields)})


def _run_spot_check_completeness(s, cfg, rng):
    gd, dist = (_need(s, part, "spot_check_completeness") for part in ("groupoid", "dist"))
    points = _points(s, "spot_check_completeness", 5, rng)
    x_fields = [md.lift_section(gd, dist, f, "t", cfg.numeric) for f in s.base_fields]
    report = md.spot_check_completeness(x_fields, points, cfg.numeric.flow_time, cfg.numeric)
    report.details["declared_complete"] = s.complete
    return report


def _run_transport(s, cfg, rng):
    gd, dist, chart = (_need(s, part, "transport_to_target")
                       for part in ("groupoid", "dist", "chart"))
    worst = Worst()
    for _ in range(max(5, cfg.samples // 4)):
        g = gd.sample_arrow(rng)
        target = ls.random_leaf_point(gd, dist, gd.unit(gd.tgt(g)), rng, cfg.numeric,
                                      hops=2)
        p = gd.tgt(target)
        h = ls.transport_to_target(gd, dist, chart, g, p, cfg.numeric)
        worst.see(linalg.sup_norm(gd.tgt(h) - p), kind="target_gap", arrow=g, target=p,
                  end=h)
        worst.see(linalg.sup_norm(chart.lambda_g(h) - chart.lambda_g(g)), kind="label_drift",
                  arrow=g, target=p, end=h)
    return worst.report("transport_to_target", cfg.numeric.tol_target)


def _run_pushforward_dirac(s, cfg, rng):
    gd, dirac, chart, section = (_need(s, part, "pushforward_dirac") for part in
                                 ("groupoid", "dirac", "chart", "quotient_section"))
    return dr.pushforward_dirac(gd, dirac, chart.lambda_g, section,
                                max(4, cfg.samples // 4), rng, cfg.numeric)


def _run_is_forward_dirac(s, cfg, rng):
    dirac, chart, section = (_need(s, part, "is_forward_dirac")
                             for part in ("dirac", "chart", "quotient_section"))
    labels = chart.lambda_g
    pushed = dr.from_poisson(labels.codomain,
                             dr.pushforward_bivector(dirac, labels, section, cfg.numeric),
                             name="pushforward")
    return dr.is_forward_dirac(labels, dirac, pushed,
                               _points(s, "is_forward_dirac", max(4, cfg.samples // 8), rng),
                               cfg.numeric)


CHECKS: dict = {
    "validate_groupoid": (_run_validate_groupoid,
                          "five groupoid axioms (exhaustive or sampled)"),
    "validate_nss": (_run_validate_nss,
                     "normal subgroupoid system conditions 1-3 and action axioms"),
    "quotient_by_normal_subgroupoid": (_run_quotient_normal,
                                       "exact quotient by a normal subgroupoid"),
    "quotient_by_nss": (_run_quotient_nss,
                        "exact quotient by the system; compares with the N-quotient"),
    "check_multiplicative": (_sampled(md, "check_multiplicative", "groupoid", "dist"),
                             "distribution is a subgroupoid of the tangent prolongation"),
    "check_rank_structure": (_sampled(md, "check_rank_structure", "groupoid", "dist"),
                             "constant ranks, unit splitting, translation invariance"),
    "check_ts_surjectivity": (_sampled(md, "check_ts_surjectivity", "groupoid", "dist"),
                              "projected differentials surject onto S on TP"),
    "check_involutive": (_sampled(md, "check_involutive", "dist", at_points=True),
                         "generator brackets stay inside the span"),
    "lift_section": (_run_lift_section,
                     "min-norm descending lifts hit their base fields"),
    "spot_check_completeness": (_run_spot_check_completeness,
                                "flagged lifts integrate for |T| <= flow_time"),
    "check_leaf_chart": (_sampled(ls, "check_leaf_chart", "groupoid", "dist", "chart"),
                         "first integrals annihilate the distribution"),
    "transport_to_target": (_run_transport,
                            "leafwise transport reaches prescribed targets"),
    "check_condition6": (_sampled(ls, "check_condition6", "groupoid", "dist", "chart"),
                         "left translates of unit-leaf fibers fill target-fiber leaves"),
    "validate_quotient_groupoid": (_sampled(ls, "validate_quotient_groupoid",
                                            "groupoid", "dist", "chart"),
                                   "label algebra satisfies the groupoid axioms"),
    "check_lifted_structures": (_sampled(ls, "check_lifted_structures", "groupoid", "dist",
                                         "chart", "quotient"),
                                "tangent/cotangent products project correctly"),
    "check_ideal_system": (_sampled(ls, "check_ideal_system", "groupoid", "dist", "chart"),
                           "induced algebroid data satisfies the ideal conditions"),
    "check_lagrangian": (_sampled(dr, "check_lagrangian", "dirac", at_points=True),
                         "pairing vanishes and fibers have full rank"),
    "check_integrable": (_sampled(dr, "check_integrable", "dirac", at_points=True),
                         "sections close under the Courant-Dorfman bracket"),
    "check_multiplicative_dirac": (_sampled(dr, "check_multiplicative_dirac",
                                            "groupoid", "dirac",
                                            count=lambda samples: max(2, samples // 8)),
                                   "Dirac structure is a subgroupoid of the "
                                   "Pontryagin groupoid"),
    "pushforward_dirac": (_run_pushforward_dirac,
                          "project to the quotient and extract the Poisson bivector"),
    "is_forward_dirac": (_run_is_forward_dirac,
                         "labeling map is a forward Dirac map onto the pushforward"),
}


# ---------------------------------------------------------------------------
# runner

def run_pipeline(cfg: ScenarioConfig) -> dict:
    scenario = build_scenario(cfg.family, cfg.params)
    results = []
    all_passed = True
    for index, name in enumerate(cfg.pipeline):
        runner, _ = CHECKS[name]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([cfg.seed, index])))
        started = time.perf_counter()
        short_circuit = False
        try:
            report = runner(scenario, cfg, rng)
        except HypothesisViolation as exc:
            stop = Worst()
            stop.see(1.0, error=type(exc).__name__, message=str(exc), **(exc.witness or {}))
            report = stop.report(name, 0.0)
            short_circuit = True
        elapsed = time.perf_counter() - started
        entry = report.to_json()
        entry["name"] = name  # the smooth validate_groupoid reports under its own name
        entry["wall_time_s"] = elapsed
        results.append(entry)
        if not report.passed:
            all_passed = False
        if short_circuit:
            entry["short_circuited_pipeline"] = True
            break
    return {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "config": cfg.echo(),
        "results": results,
        "passed": all_passed and len(results) == len(cfg.pipeline),
    }


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        data["numeric"] = dict(data.get("numeric", {}), seed=args.seed)
    if args.samples is not None:
        data["numeric"] = dict(data.get("numeric", {}), samples=args.samples)
    try:
        cfg = ScenarioConfig.from_dict(data)
        report = run_pipeline(cfg)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for entry in report["results"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"[{status}] {entry['name']}  max_residual={entry['max_residual']:.3e}",
              file=sys.stderr)
    return 0 if report["passed"] else 1


def _cmd_list_checks(_args) -> int:
    width = max(len(name) for name in CHECKS)
    for name in sorted(CHECKS):
        print(f"{name:{width}s}  {CHECKS[name][1]}")
    return 0


def _cmd_describe_family(args) -> int:
    name = args.name
    if name not in FAMILY_DESCRIPTIONS:
        print(f"error: unknown family {name!r}; known: {sorted(FAMILY_DESCRIPTIONS)}",
              file=sys.stderr)
        return 2
    print(f"{name}: {FAMILY_DESCRIPTIONS[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folioid",
        description="Run structural checks for multiplicative foliations on groupoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a scenario config JSON")
    p_run.add_argument("--out", help="write the report JSON here instead of stdout")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--samples", type=int, default=None, help="override sample count")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-checks", help="list available pipeline checks")
    p_list.set_defaults(fn=_cmd_list_checks)

    p_desc = sub.add_parser("describe-family", help="describe a scenario family")
    p_desc.add_argument("name")
    p_desc.set_defaults(fn=_cmd_describe_family)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

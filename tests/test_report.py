import json
import math

import numpy as np

from folioid.report import Worst


def test_first_witness_stays_on_a_tie():
    worst = Worst()
    worst.see(0.5, kind="a", at=[0.0])
    worst.see(0.5, kind="b", at=[1.0])
    assert worst.witness == {"kind": "a", "at": [0.0]}


def test_arrays_are_stored_as_lists():
    worst = Worst()
    point = np.array([1.0, 2.0])
    worst.see(1.0, at=point, pair=[0, 1])
    point[0] = 9.0
    assert worst.witness == {"at": [1.0, 2.0], "pair": [0, 1]}
    assert type(worst.witness["at"]) is list


def test_passing_report_has_no_witness():
    worst = Worst()
    worst.see(1e-9, kind="a", at=[0.0])
    report = worst.report("check", 1e-6, {"samples": 3})
    assert report.passed and report.witness is None
    assert report.max_residual == 1e-9 and report.details == {"samples": 3}


def test_failing_report_keeps_the_worst_witness():
    worst = Worst()
    worst.see(1e-3, kind="a", at=[0.0])
    worst.see(2e-3, kind="b", at=[1.0])
    worst.see(1e-3, kind="c", at=[2.0])
    report = worst.report("check", 1e-6)
    assert not report.passed
    assert report.max_residual == 2e-3 and report.witness == {"kind": "b", "at": [1.0]}


def test_not_ok_fails_at_residual_zero():
    report = Worst().report("check", 1e-6, ok=False)
    assert not report.passed and report.max_residual == 0.0 and report.witness is None


def test_exact_failure_is_judged_at_tolerance_zero():
    worst = Worst()
    assert worst.report("check", 0.0).passed
    worst.see(1.0, at=[0.0], rank=1)
    worst.see(1.0, at=[1.0], rank=0)
    report = worst.report("check", 0.0)
    assert not report.passed and report.witness == {"at": [0.0], "rank": 1}


def test_each_named_kind_keeps_its_own_maximum():
    worst = Worst("a", "b", "c")
    for value, kind in ((0.3, "a"), (0.1, "b"), (0.2, "a"), (0.7, "b"), (0.4, "other")):
        worst.see(value, kind=kind)
    assert worst.of == {"a": 0.3, "b": 0.7, "c": 0.0}
    assert list(worst.of) == ["a", "b", "c"]
    assert worst.value == 0.7 and worst.witness == {"kind": "b"}


def test_nan_after_finite_residuals_wins():
    worst = Worst("a")
    worst.see(0.5, kind="a", at=[0.0])
    worst.see(float("nan"), kind="a", at=[1.0])
    worst.see(0.7, kind="a", at=[2.0])
    assert math.isnan(worst.value) and math.isnan(worst.of["a"])
    assert worst.witness == {"kind": "a", "at": [1.0]}
    report = worst.report("check", 1e-6)
    assert not report.passed and report.witness == {"kind": "a", "at": [1.0]}


def test_nan_before_finite_residuals_keeps_its_witness():
    worst = Worst("a")
    worst.see(np.nan, kind="a", at=[0.0])
    worst.see(np.nan, kind="b", at=[1.0])
    worst.see(2.0, kind="a", at=[2.0])
    assert math.isnan(worst.value) and math.isnan(worst.of["a"])
    report = worst.report("check", math.inf)
    assert not report.passed and report.witness == {"kind": "a", "at": [0.0]}


def test_bools_serialize_as_json_booleans():
    # bool is a subclass of int, so a flag must not come out as 1 or 0
    worst = Worst()
    worst.see(1.0, at=[0.0], flags=[True, np.bool_(False)])
    details = {"splitting_holds": True, "declared_complete": np.bool_(False), "samples": 3,
               "ranks": {"S": np.int64(2)}}
    out = worst.report("check", 0.5, details).to_json()
    assert out["details"] == {"splitting_holds": True, "declared_complete": False,
                              "samples": 3, "ranks": {"S": 2}}
    assert type(out["details"]["splitting_holds"]) is bool
    assert type(out["details"]["samples"]) is int
    assert out["witness"]["flags"] == [True, False]
    text = json.dumps(out, sort_keys=True)
    assert '"splitting_holds": true' in text and '"declared_complete": false' in text
    assert '"flags": [true, false]' in text

import dataclasses

import numpy as np
import pytest

from folioid import cli
from folioid import leafspace as ls
from folioid import multdist as md
from folioid.errors import (Condition6Violated, TransportFailed,
                            WellDefinednessViolated)
from folioid.geomcore import ChartManifold, SmoothMap, VectorField
from folioid.params import DEFAULT_PARAMS
from folioid.scenarios import (affine_map, build_scenario, group_action_pair_scenario,
                               pair_scenario, vb_scenario)
from helpers import SMOOTH_EXPECTED, same_leaf

ALL_SMOOTH = list(SMOOTH_EXPECTED)


def corrupt_base_chart(scenario):
    """A leaf chart whose object labels are not first integrals of S ∩ TP."""
    m = scenario.groupoid.base.dim
    labels = np.arange(1.0, m * m + 1).reshape(m, m) + np.eye(m)
    return ls.LeafChart(scenario.chart.lambda_g,
                        affine_map(scenario.groupoid.base, ChartManifold(m), labels,
                                   name="bad object labels"))


def corrupt_chart(scenario):
    """A leaf chart whose labels are not first integrals of S."""
    gd = scenario.groupoid
    n = gd.space.dim
    return ls.LeafChart(
        affine_map(gd.space, ChartManifold(n), np.eye(n), name="bad labels"),
        scenario.chart.lambda_p)


class TestSameLeaf:
    def test_basegp_labels(self):
        s = pair_scenario()
        assert same_leaf(s.chart, np.array([0.0, 1.0, 0.0, 2.0]),
                         np.array([5.0, 1.0, -3.0, 2.0]))

    def test_reflexive(self):
        s = pair_scenario()
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert same_leaf(s.chart, x, x)

    def test_distinct_labels(self):
        s = pair_scenario()
        assert not same_leaf(s.chart, np.array([0.0, 1.0, 0.0, 2.0]),
                             np.array([0.0, 1.5, 0.0, 2.0]))


class TestTransport:
    def test_basegp_closed_form(self):
        s = pair_scenario()
        h = ls.transport_to_target(s.groupoid, s.dist, s.chart,
                                   np.array([0.0, 1.0, 0.0, 2.0]), np.array([3.0, 1.0]))
        assert np.abs(h - np.array([3.0, 1.0, 0.0, 2.0])).max() <= 1e-9

    def test_zero_length_path(self):
        s = pair_scenario()
        g = np.array([0.4, 0.5, 0.6, 0.7])
        h = ls.transport_to_target(s.groupoid, s.dist, s.chart, g, s.groupoid.tgt(g))
        assert np.array_equal(h, g)

    def test_vb_fixes_fiber_class(self):
        s = vb_scenario()
        g = np.array([1.0, 2.0, 3.0, 4.0])       # (x, m)
        p = np.array([-1.0, 4.0])                 # same base leaf (y-coordinate)
        h = ls.transport_to_target(s.groupoid, s.dist, s.chart, g, p)
        assert np.abs(s.groupoid.tgt(h) - p).max() <= 1e-9
        assert same_leaf(s.chart, g, h)

    def test_unreachable_target_fails(self):
        s = pair_scenario()
        with pytest.raises(TransportFailed):
            ls.transport_to_target(s.groupoid, s.dist, s.chart,
                                   np.array([0.0, 1.0, 0.0, 2.0]), np.array([3.0, 9.0]))


class TestFlowTolerance:
    def test_floored_at_round_off(self, monkeypatch):
        # 1e-4 * tol_leaf would ask Dormand-Prince for a local error of 1e-22
        tols = []
        flow = ls.flow
        monkeypatch.setattr(ls, "flow",
                            lambda *args, tol: tols.append(tol) or flow(*args, tol=tol))
        s = pair_scenario()
        params = DEFAULT_PARAMS.override(tol_leaf=1e-18)
        ls.random_t_fiber_point(s.groupoid, s.dist, np.array([0.1, 0.2, 0.3, 0.4]),
                                np.random.default_rng(0), params)
        assert tols and set(tols) == {100 * np.finfo(float).eps}


    def test_nan_object_jacobian_fails_with_witness(self):
        s = pair_scenario()
        labels = s.chart.lambda_p
        nan_jac = np.full((labels.codomain.dim, labels.domain.dim), np.nan)
        chart = ls.LeafChart(s.chart.lambda_g,
                             SmoothMap(labels.domain, labels.codomain, labels.fn,
                                       jac=lambda x: nan_jac))
        report = ls.check_leaf_chart(s.groupoid, s.dist, chart, 5, np.random.default_rng(0))
        assert not report.passed and np.isnan(report.max_residual)
        assert report.witness["kind"] == "base_integral"
        assert len(report.witness["at"]) == s.groupoid.base.dim


class TestCondition6:
    @pytest.mark.parametrize("build", ALL_SMOOTH)
    def test_builtin_scenarios_hold(self, build):
        s = build()
        report = ls.check_condition6(s.groupoid, s.dist, s.chart, 15,
                                     np.random.default_rng(0))
        assert report.passed and report.max_residual <= 1e-8

    def test_group_action_both_sides_singletons(self):
        # the t-fiber part of the orbit distribution is zero, so the flows
        # never move: both sides of the identity collapse to single points
        s = group_action_pair_scenario()
        rng = np.random.default_rng(1)
        g = s.groupoid.sample_arrow(rng)
        moved = ls.random_t_fiber_point(s.groupoid, s.dist, g, rng, DEFAULT_PARAMS)
        assert np.array_equal(moved, g)
        report = ls.check_condition6(s.groupoid, s.dist, s.chart, 10, rng)
        assert report.max_residual <= 1e-8

    def test_violation_raises_with_witness(self):
        s = pair_scenario()
        with pytest.raises(Condition6Violated) as caught:
            ls.check_condition6(s.groupoid, s.dist, corrupt_chart(s), 10,
                                np.random.default_rng(2))
        witness = caught.value.witness
        assert set(witness) == {"arrow", "sample", "direction", "residual"}
        assert len(witness["arrow"]) == s.groupoid.space.dim
        assert witness["sample"] == 0
        assert witness["direction"] in ("forward", "backward")
        assert witness["residual"] > DEFAULT_PARAMS.tol_leaf

    def test_pipeline_report_carries_the_witness(self, monkeypatch):
        def corrupted(family, params):
            scenario = build_scenario(family, params)
            scenario.chart = corrupt_chart(scenario)
            return scenario

        monkeypatch.setattr(cli, "build_scenario", corrupted)
        cfg = cli.ScenarioConfig.from_dict(
            {"family": "pair", "params": {}, "pipeline": ["check_condition6"]})
        entry = cli.run_pipeline(cfg)["results"][-1]
        assert entry["short_circuited_pipeline"] is True
        witness = entry["witness"]
        assert witness["error"] == "Condition6Violated"
        assert witness["message"].startswith("condition (6) residual")
        assert witness["direction"] in ("forward", "backward")
        assert witness["residual"] > DEFAULT_PARAMS.tol_leaf
        assert isinstance(witness["sample"], int)
        assert len(witness["arrow"]) == 4


class TestQuotientStructureMaps:
    def test_basegp_source_target_projections(self):
        s = pair_scenario()
        g = np.array([0.0, 1.0, 0.0, 2.0])  # labels (1, 2)
        assert np.allclose(s.chart.lambda_p(s.groupoid.src(g)), [2.0])
        assert np.allclose(s.chart.lambda_p(s.groupoid.tgt(g)), [1.0])

    def test_unit_has_equal_source_and_target(self):
        s = pair_scenario()
        e = s.groupoid.unit(np.array([0.7, -0.3]))
        assert np.allclose(s.chart.lambda_p(s.groupoid.src(e)),
                           s.chart.lambda_p(s.groupoid.tgt(e)))

    def test_inverse_swaps_labels(self):
        s = pair_scenario()
        qi = ls.quotient_arrow(s.chart, s.groupoid.inv(np.array([0.0, 1.0, 0.0, 2.0])))
        assert np.allclose(qi.label, [2.0, 1.0])

    def test_representative_drift_detected(self):
        s = pair_scenario()
        q = ls.quotient_arrow(corrupt_chart(s), np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(WellDefinednessViolated):
            ls.resample_representative(s.groupoid, s.dist, corrupt_chart(s), q,
                                       np.random.default_rng(3))


class TestQuotientMul:
    def test_basegp_pair_algebra(self):
        s = pair_scenario()
        rng = np.random.default_rng(4)
        q1 = ls.quotient_arrow(s.chart, np.array([0.0, 1.0, 0.0, 2.0]))
        q2 = ls.quotient_arrow(s.chart, np.array([4.0, 2.0, 9.0, 5.0]))
        out = ls.quotient_mul(s.groupoid, s.dist, s.chart, q1, q2,
                              rng=rng, verify=True)
        assert np.abs(out.label - np.array([1.0, 5.0])).max() <= 1e-9

    def test_vb_adds_fiber_classes(self):
        s = vb_scenario()
        rng = np.random.default_rng(5)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([5.0, 6.0, 7.0, 4.0])
        out = ls.quotient_mul(s.groupoid, s.dist, s.chart,
                              ls.quotient_arrow(s.chart, g),
                              ls.quotient_arrow(s.chart, h), rng=rng, verify=True)
        assert np.abs(out.label - np.array([2.0 + 6.0, 4.0])).max() <= 1e-9

    def test_unit_composition_is_identity(self):
        s = vb_scenario()
        g = np.array([1.0, 2.0, 3.0, 4.0])
        q = ls.quotient_arrow(s.chart, g)
        unit = ls.quotient_arrow(s.chart, s.groupoid.unit(s.groupoid.src(g)))
        out = ls.quotient_mul(s.groupoid, s.dist, s.chart, q, unit)
        assert np.abs(out.label - q.label).max() <= 1e-9

    def test_non_composable_rejected(self):
        s = pair_scenario()
        q1 = ls.quotient_arrow(s.chart, np.array([0.0, 1.0, 0.0, 2.0]))
        q2 = ls.quotient_arrow(s.chart, np.array([0.0, 9.0, 0.0, 5.0]))
        with pytest.raises(TransportFailed):
            ls.quotient_mul(s.groupoid, s.dist, s.chart, q1, q2)


def skewed_mul(scenario):
    """The pair(R^2) scenario with (a, b)(b, c) = (a + b0 e1, c): the product's
    first label a1 + b0 moves along the leaves of S = D x D, D = span e0."""
    gd = scenario.groupoid
    mul = np.zeros((4, 8))
    mul[:2, :2] = np.eye(2)
    mul[1, 2] = 1.0
    mul[2:, 6:] = np.eye(2)
    return dataclasses.replace(gd, mul=affine_map(gd.mul.domain, gd.space, mul, name="skewed"))


class TestViolationWitnesses:
    G = np.array([0.0, 1.0, 0.0, 2.0])

    def transport_failure(self, s, chart, target):
        with pytest.raises(TransportFailed) as caught:
            ls.transport_to_target(s.groupoid, s.dist, chart, self.G, np.array(target))
        witness = caught.value.witness
        assert witness["arrow"] == self.G.tolist() and witness["target"] == target
        return witness

    def test_transport_to_another_base_leaf(self):
        s = pair_scenario()
        witness = self.transport_failure(s, s.chart, [3.0, 9.0])
        assert witness["label_gap"] == 8.0

    def test_transport_along_a_path_that_leaves_the_base_leaf(self):
        # a base label equal at both ends of the segment but not in between
        s = pair_scenario()
        bulge = SmoothMap(s.groupoid.base, ChartManifold(1),
                          lambda x: np.array([x[1] + x[0] * (3.0 - x[0])]))
        witness = self.transport_failure(s, ls.LeafChart(s.chart.lambda_g, bulge),
                                         [3.0, 1.0])
        assert witness["label_gap"] == 2.25

    def test_transport_that_stalls_short_of_the_target(self, monkeypatch):
        s = pair_scenario()
        monkeypatch.setattr(ls, "flow", lambda field, x0, t_final, tol: x0)
        witness = self.transport_failure(s, s.chart, [3.0, 1.0])
        assert witness["residual"] == 3.0

    def test_transport_that_leaves_the_leaf(self):
        s = pair_scenario()
        witness = self.transport_failure(s, corrupt_chart(s), [3.0, 1.0])
        assert abs(witness["label_gap"] - 3.0) <= 1e-9

    def test_leaves_that_do_not_compose(self):
        s = pair_scenario()
        q1 = ls.quotient_arrow(s.chart, self.G)
        q2 = ls.quotient_arrow(s.chart, np.array([0.0, 9.0, 0.0, 5.0]))
        with pytest.raises(TransportFailed) as caught:
            ls.quotient_mul(s.groupoid, s.dist, s.chart, q1, q2)
        assert caught.value.witness == {"arrow": [0.0, 9.0, 0.0, 5.0],
                                        "target": [0.0, 2.0], "label_gap": 7.0}

    def test_representative_walk_that_drifts(self):
        s = pair_scenario()
        chart = corrupt_chart(s)
        q = ls.quotient_arrow(chart, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(WellDefinednessViolated) as caught:
            ls.resample_representative(s.groupoid, s.dist, chart, q,
                                       np.random.default_rng(3))
        witness = caught.value.witness
        assert set(witness) == {"representative", "moved", "drift"}
        assert witness["representative"] == [1.0, 2.0, 3.0, 4.0]
        moved = np.array(witness["moved"])
        assert witness["drift"] == float(np.max(np.abs(moved - q.label)))
        assert witness["drift"] > DEFAULT_PARAMS.tol_leaf

    def test_product_that_depends_on_representatives(self):
        s = pair_scenario()
        gd = skewed_mul(s)
        q1 = ls.quotient_arrow(s.chart, self.G)
        q2 = ls.quotient_arrow(s.chart, np.array([4.0, 2.0, 9.0, 5.0]))
        with pytest.raises(Condition6Violated) as caught:
            ls.quotient_mul(gd, s.dist, s.chart, q1, q2, rng=np.random.default_rng(4),
                            verify=True)
        witness = caught.value.witness
        assert set(witness) == {"representatives", "alternates", "drift"}
        assert witness["representatives"] == [self.G.tolist(), [4.0, 2.0, 9.0, 5.0]]
        alt1, alt2 = (np.array(x) for x in witness["alternates"])
        # the alternates stay in their leaves; only the skew term b0 moves
        assert np.abs(s.chart.lambda_g(alt1) - q1.label).max() <= 1e-9
        assert np.abs(s.chart.lambda_g(alt2) - q2.label).max() <= 1e-9
        assert abs(witness["drift"] - abs(alt1[2] - self.G[2])) <= 1e-9
        assert witness["drift"] > DEFAULT_PARAMS.tol_leaf

    def test_pipeline_report_carries_the_product_witness(self, monkeypatch):
        def skewed(family, params):
            scenario = build_scenario(family, params)
            scenario.groupoid = skewed_mul(scenario)
            return scenario

        monkeypatch.setattr(cli, "build_scenario", skewed)
        cfg = cli.ScenarioConfig.from_dict(
            {"family": "pair", "params": {}, "pipeline": ["validate_quotient_groupoid"]})
        entry = cli.run_pipeline(cfg)["results"][-1]
        assert entry["short_circuited_pipeline"] is True
        witness = entry["witness"]
        assert witness["error"] == "Condition6Violated"
        assert len(witness["representatives"]) == len(witness["alternates"]) == 2
        assert witness["drift"] > DEFAULT_PARAMS.tol_leaf


class TestValidateQuotient:
    @pytest.mark.parametrize("build", ALL_SMOOTH)
    def test_builtin_scenarios(self, build):
        s = build()
        report = ls.validate_quotient_groupoid(s.groupoid, s.dist, s.chart, 12,
                                               np.random.default_rng(6))
        assert report.passed
        assert report.max_residual <= 1e-8
        for key in ("object_label_dim", "arrow_label_dim"):
            assert report.details[key] == SMOOTH_EXPECTED[build][key]

    def test_offset_product_label_names_axiom_and_point(self, monkeypatch):
        s = pair_scenario()
        quotient_mul = ls.quotient_mul

        def offset(*args, **kwargs):
            q = quotient_mul(*args, **kwargs)
            return ls.QuotientArrow(q.label + 0.1, q.representative)

        monkeypatch.setattr(ls, "quotient_mul", offset)
        report = ls.validate_quotient_groupoid(s.groupoid, s.dist, s.chart, 4,
                                               np.random.default_rng(6))
        assert not report.passed
        residuals = report.details["sampled_axiom_residuals"]
        assert residuals[report.witness["kind"]] == report.max_residual
        assert report.max_residual == pytest.approx(0.1, rel=1e-9)
        assert "at" in report.witness

    @pytest.mark.parametrize("build", ALL_SMOOTH)
    def test_label_algebra_matches_explicit_quotient(self, build):
        # quotient_mul labels equal the explicit quotient groupoid's product
        s = build()
        rng = np.random.default_rng(7)
        for _ in range(15):
            g, h = s.groupoid.composable_pair(rng)
            got = ls.quotient_mul(s.groupoid, s.dist, s.chart,
                                  ls.quotient_arrow(s.chart, g),
                                  ls.quotient_arrow(s.chart, h)).label
            want = s.quotient.compose(s.chart.lambda_g(g), s.chart.lambda_g(h))
            assert np.abs(got - want).max() <= 1e-8

    def test_morphism_square_commutes(self):
        s = pair_scenario()
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = s.groupoid.sample_arrow(rng)
            label = s.chart.lambda_g(g)
            assert np.allclose(s.quotient.src(label), s.chart.lambda_p(s.groupoid.src(g)))
            assert np.allclose(s.quotient.tgt(label), s.chart.lambda_p(s.groupoid.tgt(g)))


class TestUnitLeafSubgroupoid:
    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario])
    def test_products_and_inverses_stay_unit_equivalent(self, build):
        # points leaf-equivalent to units form a wide subgroupoid, sampled:
        # composable products and inverses of such points stay unit-equivalent
        s = build()
        gd, chart = s.groupoid, s.chart
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = gd.sample_object(rng)
            n1 = ls.random_leaf_point(gd, s.dist, gd.unit(p), rng, DEFAULT_PARAMS)
            n2 = ls.random_leaf_point(gd, s.dist, gd.unit(gd.src(n1)), rng,
                                      DEFAULT_PARAMS)
            h = ls.transport_to_target(gd, s.dist, chart, n2, gd.src(n1))
            prod = gd.compose(n1, h)
            unit_label = chart.lambda_g(gd.unit(gd.tgt(prod)))
            assert np.abs(chart.lambda_g(prod) - unit_label).max() <= 1e-8
            inv_label = chart.lambda_g(gd.inv(n1))
            unit_label = chart.lambda_g(gd.unit(gd.src(n1)))
            assert np.abs(inv_label - unit_label).max() <= 1e-8

    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario])
    def test_left_translates_stay_in_leaf_fiber(self, build):
        # g * (unit-leaf point over s(g) with target s(g)) lands in the leaf
        # of g without moving the target
        s = build()
        gd, chart = s.groupoid, s.chart
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = gd.sample_arrow(rng)
            n = ls.random_t_fiber_point(gd, s.dist, gd.unit(gd.src(g)), rng,
                                        DEFAULT_PARAMS)
            gn = gd.compose(g, n)
            assert same_leaf(chart, gn, g, 1e-8)
            assert np.abs(gd.tgt(gn) - gd.tgt(g)).max() <= 1e-9


class TestLiftedStructures:
    def test_basegp_fifty_samples(self):
        s = pair_scenario()
        report = ls.check_lifted_structures(s.groupoid, s.dist, s.chart, s.quotient,
                                            50, np.random.default_rng(11))
        assert report.passed
        assert report.max_residual <= 1e-6
        assert report.details["tangent_max_residual"] <= 1e-6
        assert report.details["cotangent_max_residual"] <= 1e-6

    @pytest.mark.parametrize("build", [vb_scenario, group_action_pair_scenario])
    def test_other_scenarios(self, build):
        s = build()
        report = ls.check_lifted_structures(s.groupoid, s.dist, s.chart, s.quotient,
                                            15, np.random.default_rng(12))
        assert report.passed

    def test_skewed_quotient_mul_names_a_witness(self):
        # pair(R) downstairs with (a, b)(b, c) = (a + b, c): the quotient's
        # tangent product picks up v_b, which no upstairs product produces
        s = pair_scenario()
        q = s.quotient
        mul = q.mul.jacobian(np.zeros(2 * q.space.dim)).copy()
        mul[0, 1] += 1.0
        skewed = dataclasses.replace(q, mul=affine_map(q.mul.domain, q.space, mul, name="skewed"))
        report = ls.check_lifted_structures(s.groupoid, s.dist, s.chart, skewed, 5,
                                            np.random.default_rng(11))
        assert not report.passed
        witness = report.witness
        assert witness["kind"] in ("tangent", "cotangent")
        assert witness["residual"] == report.max_residual
        assert witness["residual"] == report.details[f"{witness['kind']}_max_residual"]
        g, h = (np.array(point) for point in witness["at"])
        assert np.abs(s.groupoid.src(g) - s.groupoid.tgt(h)).max() <= 1e-12


class TestIdealSystem:
    @pytest.mark.parametrize("build", ALL_SMOOTH)
    def test_builtin_scenarios(self, build):
        s = build()
        report = ls.check_ideal_system(s.groupoid, s.dist, s.chart, 15,
                                       np.random.default_rng(13))
        assert report.passed and report.max_residual <= 1e-8

    def test_vb_subalgebroid_is_fiber_subspace(self):
        s = vb_scenario()
        report = ls.check_ideal_system(s.groupoid, s.dist, s.chart, 10,
                                       np.random.default_rng(14))
        assert report.details["subalgebroid_rank"] == 1
        assert report.details["anchor_max_residual"] <= 1e-12

    def test_anchor_residual_is_worst_column(self):
        # D of rank 2, so S ∩ AG has two columns; one sample, so the residual
        # comes from the first object drawn
        s = pair_scenario(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        gd, chart = s.groupoid, corrupt_base_chart(s)
        report = ls.check_ideal_system(gd, s.dist, chart, 1, np.random.default_rng(18))
        p = gd.sample_object(np.random.default_rng(18))
        sub = md.fiber_kernel_intersection(gd, s.dist, gd.unit(p), "t")
        j_src, j_lambda_p = gd.src.jacobian(gd.unit(p)), chart.lambda_p.jacobian(p)
        columns = [np.abs(j_lambda_p @ (j_src @ sub[:, j])).max() for j in range(sub.shape[1])]
        assert len(columns) == 2
        assert report.details["anchor_max_residual"] == pytest.approx(max(columns), rel=1e-12)

    def test_witness_names_the_worst_residual(self):
        # object labels (x0 + x0^2 / 2, x1, x2) are not first integrals of
        # D = span e0, and their Jacobian diag(1 + x0, 1, 1) varies, so both
        # the anchor and the equivariance residuals are nonzero
        s = pair_scenario(3, ((1.0, 0.0, 0.0),))
        base = s.groupoid.base
        bent = SmoothMap(base, ChartManifold(3),
                         lambda x: np.array([x[0] + 0.5 * x[0] ** 2, x[1], x[2]]),
                         jac=lambda x: np.diag([1.0 + x[0], 1.0, 1.0]), name="bent")
        report = ls.check_ideal_system(s.groupoid, s.dist, ls.LeafChart(s.chart.lambda_g, bent),
                                       5, np.random.default_rng(0))
        assert not report.passed
        kind = report.witness["kind"]
        assert kind == "anchor"
        assert report.details[f"{kind}_max_residual"] == report.max_residual
        assert report.details["equivariance_max_residual"] < report.max_residual
        p = np.array(report.witness["at"])
        assert report.max_residual == pytest.approx(abs(1.0 + p[0]), rel=1e-12)

    def test_zero_distribution_trivially_stable(self):
        s = pair_scenario()
        zero = md.Distribution(s.groupoid.space, [], rank=0)
        report = ls.check_ideal_system(s.groupoid, zero, s.chart, 5,
                                       np.random.default_rng(15))
        assert report.details["subalgebroid_rank"] == 0

    def test_nan_equivariance_residual_reaches_the_details(self):
        # the object labels' Jacobian is NaN everywhere but at the one sampled
        # object p, so the anchor is finite and only the equivariance residual,
        # taken at the displaced q, is NaN
        s = pair_scenario(3, ((1.0, 0.0, 0.0),))
        labels = s.chart.lambda_p
        p = s.groupoid.sample_object(np.random.default_rng(19))
        nan_jac = np.full((labels.codomain.dim, labels.domain.dim), np.nan)
        chart = ls.LeafChart(s.chart.lambda_g, SmoothMap(
            labels.domain, labels.codomain, labels.fn,
            jac=lambda x: labels.jacobian(x) if np.array_equal(x, p) else nan_jac))
        report = ls.check_ideal_system(s.groupoid, s.dist, chart, 1, np.random.default_rng(19))
        assert not report.passed and np.isnan(report.max_residual)
        assert report.witness["kind"] == "equivariance"
        assert report.details["anchor_max_residual"] <= 1e-12
        assert np.isnan(report.details["equivariance_max_residual"])


class TestLeafChartContract:
    @pytest.mark.parametrize("build", ALL_SMOOTH)
    def test_first_integral_invariance_at_200_samples(self, build):
        s = build()
        report = ls.check_leaf_chart(s.groupoid, s.dist, s.chart, 200,
                                     np.random.default_rng(16))
        assert report.passed and report.max_residual <= 1e-5

    def test_corrupt_chart_detected(self):
        s = pair_scenario()
        report = ls.check_leaf_chart(s.groupoid, s.dist, corrupt_chart(s), 10,
                                     np.random.default_rng(17))
        assert not report.passed

    def test_base_residual_is_worst_column_at_witness(self):
        s = pair_scenario(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        chart = corrupt_base_chart(s)
        report = ls.check_leaf_chart(s.groupoid, s.dist, chart, 5, np.random.default_rng(19))
        assert not report.passed and report.witness["kind"] == "base_integral"
        p = np.array(report.witness["at"])
        downstairs = md.base_intersection_basis(s.groupoid, s.dist, p)
        jp = chart.lambda_p.jacobian(p)
        columns = [np.abs(jp @ downstairs[:, j]).max() for j in range(downstairs.shape[1])]
        assert len(columns) == 2
        assert report.max_residual == pytest.approx(max(columns), rel=1e-12)


class TestGaugeFreeWalks:
    def test_walk_ignores_basis_swaps(self):
        # two spanning families of the same constant span S = <e0, e2>: in
        # one the generator lengths cross where x0 + x2 = 0, so the SVD
        # basis swaps its columns there; the other is frozen at the start.
        # A one-hop walk (each hop's direction is drawn in the basis at its
        # start) that crosses the swap must end at the same point for both.
        gd = pair_scenario().groupoid
        e0, e2 = np.eye(4)[0], np.eye(4)[2]

        def s(x):
            return np.tanh(4.0 * (x[0] + x[2]))

        start = np.array([0.05, 0.3, 0.05, -0.2])
        a, b = 2.0 + s(start), 2.0 - s(start)
        varying = md.Distribution(gd.space, [
            VectorField(gd.space, lambda x: (2.0 + s(x)) * e0),
            VectorField(gd.space, lambda x: (2.0 - s(x)) * e2)], rank=2)
        frozen = md.Distribution(gd.space, [
            VectorField(gd.space, lambda x: a * e0),
            VectorField(gd.space, lambda x: b * e2)], rank=2)
        ends = [ls.random_leaf_point(gd, dist, start, np.random.default_rng(0),
                                     DEFAULT_PARAMS, hops=1)
                for dist in (varying, frozen)]
        assert s(start) > 0.0 > s(ends[1])
        assert np.abs(ends[0] - ends[1]).max() <= 1e-9

import dataclasses

import numpy as np
import pytest

from folioid import geomcore as gc
from folioid import linalg
from folioid import multdist as md
from folioid.errors import LiftFailed, RankDrift
from folioid.geomcore import SmoothMap, VectorField, constant_field
from folioid.scenarios import (group_action_pair_scenario, pair_groupoid_maps,
                               pair_scenario, presymplectic_pair_dirac_scenario,
                               vb_scenario)
from folioid.params import DEFAULT_PARAMS
from helpers import count_calls, euclidean

TOL = DEFAULT_PARAMS.tol_rank
R2 = euclidean(2)
R3 = euclidean(3)


class TestFiberBasis:
    def test_single_direction(self):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0])])
        basis = dist.fiber_basis(np.array([0.3, 0.7]), TOL)
        assert basis.shape == (2, 1)
        assert np.allclose(np.abs(basis[:, 0]), [1, 0])

    def test_dependent_generators_collapse(self):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0]),
                                    constant_field(R2, [2, 0])])
        assert dist.fiber_basis(np.zeros(2), TOL).shape[1] == 1

    def test_rank_two_at_origin(self):
        # det of [[1, 0], [x, 1]] is 1 everywhere, rank 2 even at the origin
        dist = md.Distribution(R2, [
            constant_field(R2, [1, 0]),
            VectorField(R2, lambda x: np.array([x[0], 1.0])),
        ])
        assert dist.fiber_basis(np.zeros(2), TOL).shape[1] == 2

    def test_rank_follows_the_tolerance_given(self):
        # singular values 1 and 1e-4: rank 2 at tolerance 1e-6, rank 1 at 1e-3
        gens = [constant_field(R2, [1, 0]), constant_field(R2, [0, 1e-4])]
        for tol, rank in ((1e-6, 2), (1e-3, 1)):
            assert md.Distribution(R2, gens).fiber_basis(np.zeros(2), tol).shape[1] == rank
        dist = md.Distribution(R2, gens)
        assert dist.fiber_basis(np.zeros(2), 1e-6).shape[1] == 2
        with pytest.raises(RankDrift):  # the same frame, so a memo keyed on it alone would hit
            dist.fiber_basis(np.zeros(2), 1e-3)

    def test_rank_drift_raises(self):
        dist = md.Distribution(R2, [VectorField(R2, lambda x: np.array([x[0], 0.0]))])
        assert dist.fiber_basis(np.array([1.0, 0.0]), TOL).shape[1] == 1
        with pytest.raises(RankDrift):
            dist.fiber_basis(np.zeros(2), TOL)


class TestFiberBasisMemo:
    """The basis is computed once per distinct generator matrix."""

    def test_constant_distribution_takes_one_svd(self, monkeypatch):
        dist = md.Distribution(R3, [constant_field(R3, [1, 0, 0]),
                                    constant_field(R3, [0, 1, 1])])
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for k in range(5):
            assert dist.fiber_basis(np.array([k, 0.5 * k, -1.0]), TOL).shape == (3, 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("gens,evals_per_point", [
        ([constant_field(R3, [1, 0, 0]), constant_field(R3, [0, 1, 1])], 0),
        ([], 0),
        ([constant_field(R3, [1, 0, 0]),
          VectorField(R3, lambda x: np.array([0.0, 1.0, x[0]]))], 2),
    ], ids=["constant", "empty", "mixed"])
    def test_constant_generators_not_evaluated_per_point(self, monkeypatch, gens,
                                                         evals_per_point):
        dist = md.Distribution(R3, gens)
        points = [np.array([k, 0.5 * k, -1.0]) for k in range(4)]
        want = [np.column_stack([np.asarray(g.fn(x), dtype=float) for g in gens]
                                + [np.zeros((3, 0))]).tobytes() for x in points]
        calls = count_calls(monkeypatch, VectorField, "__call__")
        got = [dist.generator_matrix(x) for x in points]
        assert len(calls) == evals_per_point * len(points)
        assert [mat.tobytes() for mat in got] == want
        assert all(mat.shape == (3, len(gens)) for mat in got)
        if evals_per_point == 0:
            assert not got[0].flags.writeable and got[0] is got[-1]

    def test_kept_basis_equals_fresh_and_is_read_only(self):
        dist = md.Distribution(R3, [constant_field(R3, [1, 0, 0]),
                                    constant_field(R3, [0, 1, 1])])
        dist.fiber_basis(np.zeros(3), TOL)
        x = np.array([0.3, -2.0, 1.5])
        basis = dist.fiber_basis(x, TOL)
        fresh = linalg.orth_basis(dist.generator_matrix(x), TOL)
        assert basis.shape == fresh.shape
        assert basis.tobytes() == fresh.tobytes()
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_turning_span_recomputes_at_every_point(self, monkeypatch):
        dist = md.Distribution(R2, [VectorField(
            R2, lambda x: np.array([np.cos(x[0]), np.sin(x[0])]))])
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for angle in (0.0, 0.4, 0.8, 1.2):
            x = np.array([angle, 0.0])
            basis = dist.fiber_basis(x, TOL)
            fresh = linalg.orth_basis(dist.generator_matrix(x), TOL)
            assert basis.tobytes() == fresh.tobytes()
        assert len(calls) == 4 + 4  # one per point, plus the fresh bases

    def test_rank_drop_after_memo_hits_raises(self, monkeypatch):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0]),
                                    VectorField(R2, lambda x: np.array([0.0, x[0]]))])
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for y in (0.0, 1.0, 2.0, 3.0):
            assert dist.fiber_basis(np.array([1.0, y]), TOL).shape[1] == 2
        assert len(calls) == 1
        with pytest.raises(RankDrift) as exc:
            dist.fiber_basis(np.array([0.0, 1.0]), TOL)
        assert exc.value.witness["at"] == [0.0, 1.0]

    def test_rank_checked_on_a_memo_hit(self, monkeypatch):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0])], rank=2)
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for x in (np.zeros(2), np.ones(2)):
            with pytest.raises(RankDrift):
                dist.fiber_basis(x, TOL)
        assert len(calls) == 1


class TestLiftMemo:
    """The min-norm solve of a lift is computed once per distinct system."""

    def test_flowed_lift_solves_a_few_times(self, monkeypatch):
        s = pair_scenario()
        section = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "t")
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        g = np.array([0.4, -1.0, 2.0, 0.3])
        end = gc.flow(section.x_field, g, 1.0, steps=200)
        assert len(calls) <= 5
        assert np.allclose(end, g + np.array([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_lift_failed_after_memo_hits(self, monkeypatch):
        s = pair_scenario()  # D = span{d/dx}; d/dy is not liftable
        gd, dist = s.groupoid, s.dist
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        good, bad = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for k in range(3):
            md.lift_at_point(gd, dist, np.array([k, 2.0, 3.0, 4.0]), good, "t")
        assert len(calls) == 1
        for k in range(2):
            with pytest.raises(LiftFailed):
                md.lift_at_point(gd, dist, np.array([k, 2.0, 3.0, 4.0]), bad, "t")
        assert len(calls) == 2


class TestCheckMultiplicative:
    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario,
                                       group_action_pair_scenario,
                                       presymplectic_pair_dirac_scenario])
    def test_builtin_scenarios_pass(self, build):
        s = build()
        report = md.check_multiplicative(s.groupoid, s.dist, 25,
                                         np.random.default_rng(1))
        assert report.passed and report.max_residual <= 1e-9

    def test_skewed_span_fails_with_witness(self):
        # span of the single section (x d/dx, d/dx) on the pair groupoid of R:
        # composable products scale the slots inconsistently, so the product
        # of fiber vectors leaves the span whenever the middle point is not 1
        gd = pair_groupoid_maps(1)
        dist = md.Distribution(gd.space, [
            VectorField(gd.space, lambda g: np.array([g[0], 1.0])),
        ])
        report = md.check_multiplicative(gd, dist, 30, np.random.default_rng(0))
        assert not report.passed
        assert report.witness is not None
        assert report.max_residual > 1e-2

    def test_three_end_points_per_pair(self, monkeypatch):
        # s(g) = t(h), so S ∩ TP is needed at s(g), t(g) and s(h) only
        s = pair_scenario()
        fresh = md.check_multiplicative(s.groupoid, s.dist, 4, np.random.default_rng(2))
        calls = []
        inner = md.base_intersection_basis
        monkeypatch.setattr(md, "base_intersection_basis",
                            lambda *args: calls.append(1) or inner(*args))
        again = md.check_multiplicative(s.groupoid, s.dist, 4, np.random.default_rng(2))
        assert len(calls) == 3 * 4
        assert again.to_json() == fresh.to_json()


def rotated_without_jacobians(gd, rotation):
    """``gd`` in the arrow coordinates y = rotation x, every map differenced.

    The rotation mixes every coordinate into every map, so a Jacobian applied
    to a direction it kills is finite-difference noise, not an exact zero.
    """
    back = rotation.T
    n = gd.dim_space
    return dataclasses.replace(
        gd,
        src=SmoothMap(gd.space, gd.base, lambda y: gd.src(back @ y)),
        tgt=SmoothMap(gd.space, gd.base, lambda y: gd.tgt(back @ y)),
        unit=SmoothMap(gd.base, gd.space, lambda p: rotation @ gd.unit(p)),
        inv=SmoothMap(gd.space, gd.space, lambda y: rotation @ gd.inv(back @ y)),
        mul=SmoothMap(gd.mul.domain, gd.space, lambda yy: rotation @ gd.mul(
            np.concatenate([back @ yy[:n], back @ yy[n:]]))),
        sample_arrow=None, sample_object=None, sample_arrow_to=None)


ROTATION = np.linalg.qr(np.random.default_rng(11).standard_normal((4, 4)))[0]


class TestIntersections:
    """Each intersection takes one SVD, ranked against the unprojected scale."""

    def constant_dist(self, gd, columns):
        return md.Distribution(gd.space, [constant_field(gd.space, ROTATION @ c)
                                          for c in columns])

    def test_fiber_inside_the_t_kernel_is_kept_whole(self):
        # pair(R^2): t(a, b) = a, so S = the b slot lies in ker Tt; T t B is noise
        gd = rotated_without_jacobians(pair_groupoid_maps(2), ROTATION)
        dist = self.constant_dist(gd, np.eye(4)[:, 2:].T)
        g = np.array([0.31, -1.27, 0.83, 1.9])
        assert np.max(np.abs(gd.tgt.jacobian(g) @ dist.fiber_basis(g, TOL))) > 0.0
        got = md.fiber_kernel_intersection(gd, dist, g, "t")
        assert got.shape == (4, 2)
        assert linalg.subspace_max_angle(got, dist.fiber_basis(g, TOL)) <= 1e-12

    def test_fiber_containing_the_units_keeps_all_of_tp(self):
        # S = span{(e0, e0), (e1, e1), (e0, 0)} contains the unit directions
        gd = rotated_without_jacobians(pair_groupoid_maps(2), ROTATION)
        dist = self.constant_dist(gd, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                                       [1.0, 0.0, 0.0, 0.0]])
        p = np.array([0.57, -0.44])
        got = md.base_intersection_basis(gd, dist, p)
        assert got.shape == (2, 2)
        assert np.allclose(got.T @ got, np.eye(2), atol=1e-12)

    def test_base_intersection_takes_one_svd(self, monkeypatch):
        s = pair_scenario()
        p = np.array([0.3, -0.7])
        s.dist.fiber_basis(s.groupoid.unit(p), TOL)  # kept by the basis memo
        svds = count_calls(monkeypatch, np.linalg, "svd")
        got = md.base_intersection_basis(s.groupoid, s.dist, p)
        assert len(svds) == 1
        assert got.shape == (2, s.expected["rank_S_cap_TP"])

    @pytest.mark.parametrize("mode", ["s", "t"])
    def test_fiber_kernel_intersection_takes_one_svd(self, monkeypatch, mode):
        s = pair_scenario()
        g = np.array([0.4, -1.0, 2.0, 0.3])
        s.dist.fiber_basis(g, TOL)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        got = md.fiber_kernel_intersection(s.groupoid, s.dist, g, mode)
        assert len(svds) == 1
        assert got.shape == (4, s.expected["rank_S_t"])


class TestRankStructure:
    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario,
                                       group_action_pair_scenario,
                                       presymplectic_pair_dirac_scenario])
    def test_ranks_and_splitting(self, build):
        s = build()
        report = md.check_rank_structure(s.groupoid, s.dist, 30,
                                         np.random.default_rng(2))
        assert report.passed
        ranks = report.details["ranks"]
        assert ranks["S"] == s.expected["rank_S"]
        assert ranks["S_cap_TP"] == s.expected["rank_S_cap_TP"]
        assert ranks["S_t"] == s.expected["rank_S_t"]
        assert ranks["S_s"] == s.expected["rank_S_t"]
        assert ranks["S_cap_TP"] + ranks["S_cap_AG"] == ranks["S"]
        assert report.details["splitting_holds"]
        assert report.max_residual <= 1e-5  # translation-invariance angles

    def test_zero_distribution_trivially_constant(self):
        s = pair_scenario()
        dist = md.Distribution(s.groupoid.space, [], rank=0)
        report = md.check_rank_structure(s.groupoid, dist, 10,
                                         np.random.default_rng(0))
        assert report.passed
        assert report.details["ranks"]["S"] == 0


class TestSurjectivity:
    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario])
    def test_builtin_scenarios(self, build):
        s = build()
        report = md.check_ts_surjectivity(s.groupoid, s.dist, 25,
                                          np.random.default_rng(3))
        assert report.passed

    def test_unit_points_covered_by_splitting(self):
        s = pair_scenario()
        gd = s.groupoid
        rng = np.random.default_rng(4)
        p = gd.sample_object(rng)
        e = gd.unit(p)
        basis = s.dist.fiber_basis(e, TOL)
        downstairs = md.base_intersection_basis(gd, s.dist, p)
        from folioid import linalg
        got = linalg.numerical_rank(gd.src.jacobian(e) @ basis)
        assert got == downstairs.shape[1]


class TestLiftSection:
    def test_basegp_min_norm_lift(self):
        # s-lift of the base direction is (0, d): nothing in the target slot
        s = pair_scenario()
        section = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "s")
        g = np.array([0.4, -1.0, 2.0, 0.3])
        assert np.allclose(section.x_field(g), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_field_lifts_to_zero(self):
        s = pair_scenario()
        zero = constant_field(s.groupoid.base, [0.0, 0.0])
        section = md.lift_section(s.groupoid, s.dist, zero, "t")
        assert np.allclose(section.x_field(np.array([1.0, 2.0, 3.0, 4.0])), 0.0)

    def test_vb_t_lift(self):
        # t-lift of the base leaf direction has no fiber component
        s = vb_scenario()
        section = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "t")
        g = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(section.x_field(g), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_lift_residuals_and_membership(self):
        s = pair_scenario()
        rng = np.random.default_rng(5)
        points = [s.groupoid.sample_arrow(rng) for _ in range(30)]
        for mode in ("s", "t"):
            section = md.lift_section(s.groupoid, s.dist, s.base_fields[0], mode)
            assert md.descent_residual(s.groupoid, section, points) <= 1e-6
            for g in points[:10]:
                value = section.x_field(g)
                basis = s.dist.fiber_basis(g, TOL)
                assert np.linalg.norm(value - basis @ (basis.T @ value)) <= 1e-6

    def test_lift_failed_outside_distribution(self):
        s = pair_scenario()  # D = span{d/dx}; d/dy is not liftable
        bad = constant_field(s.groupoid.base, [0.0, 1.0])
        section = md.lift_section(s.groupoid, s.dist, bad, "s")
        with pytest.raises(LiftFailed):
            section.x_field(np.array([1.0, 2.0, 3.0, 4.0]))


class TestInvolutive:
    def test_coordinate_plane(self):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0]),
                                    constant_field(R2, [0, 1])])
        report = md.check_involutive(dist, [np.array([0.1, 0.2])])
        assert report.passed

    def test_non_involutive_with_hand_bracket(self):
        # [d/dx, x d/dz + d/dy] = d/dz leaves the span
        dist = md.Distribution(R3, [
            constant_field(R3, [1, 0, 0]),
            VectorField(R3, lambda x: np.array([0.0, 1.0, x[0]])),
        ])
        report = md.check_involutive(dist, [np.array([0.5, 0.5, 0.5])])
        assert not report.passed
        assert report.witness["pair"] == [0, 1]
        assert report.max_residual > 0.5

    @pytest.mark.parametrize("build", [pair_scenario, vb_scenario,
                                       group_action_pair_scenario])
    def test_builtin_upstairs_and_downstairs(self, build):
        # both S and S on TP are involutive on the builtin scenarios
        s = build()
        rng = np.random.default_rng(6)
        up_points = [s.groupoid.sample_arrow(rng) for _ in range(10)]
        down_points = [s.groupoid.sample_object(rng) for _ in range(10)]
        assert md.check_involutive(s.dist, up_points).passed
        base_dist = md.Distribution(s.groupoid.base, s.base_fields)
        assert md.check_involutive(base_dist, down_points).passed


class TestCompleteness:
    def test_spot_check_constant_lifts(self):
        s = pair_scenario()
        rng = np.random.default_rng(7)
        points = [s.groupoid.sample_arrow(rng) for _ in range(3)]
        sections = [md.lift_section(s.groupoid, s.dist, f, "t", complete=True)
                    for f in s.base_fields]
        report = md.spot_check_completeness([sec.x_field for sec in sections],
                                            points, t_max=5.0)
        assert report.passed

    def test_escape_reported(self):
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        field = constant_field(box, [1.0])
        report = md.spot_check_completeness([field], [np.array([0.0])], t_max=5.0)
        assert not report.passed
        assert report.witness["error"] == "FlowEscapedBox"

    def test_escape_witness_names_time_state_and_sign(self):
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        field = constant_field(box, [1.0])
        report = md.spot_check_completeness([field], [np.array([0.0])], t_max=5.0)
        witness = report.witness
        assert witness["sign"] == 1.0
        assert 0.99 <= witness["time"] <= 1.0
        assert box.contains(np.array(witness["last_state"]))

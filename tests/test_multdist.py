import dataclasses
import math
import struct

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
from folioid.dirac import characteristic_distribution
from helpers import (SMOOTH_EXPECTED, count_calls, cubic_pair_groupoid, euclidean, graph_fields,
                     pair_lie_bracket, pair_rank2_scenario, per_pair_check_involutive,
                     per_pair_check_multiplicative)

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
        x_field = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "t")
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        g = np.array([0.4, -1.0, 2.0, 0.3])
        end = gc.flow(x_field, g, 1.0, steps=200)
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
    n = gd.space.dim
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
        assert got.shape == (2, SMOOTH_EXPECTED[pair_scenario]["S_cap_TP"])

    def test_base_intersection_repeat_takes_no_svd(self, monkeypatch):
        # constant generators and an affine unit: Tu and the fiber repeat at every p
        s = pair_scenario()
        first = md.base_intersection_basis(s.groupoid, s.dist, np.array([0.3, -0.7]))
        svds = count_calls(monkeypatch, np.linalg, "svd")
        again = md.base_intersection_basis(s.groupoid, s.dist, np.array([1.5, 2.0]))
        assert svds == [] and np.array_equal(again, first)

    def test_base_intersection_of_a_varying_fiber_is_recomputed(self, monkeypatch):
        # S = span (1, a) on pair(R): at the unit over p it meets the unit
        # directions (1, 1) only when p = 1
        gd = pair_groupoid_maps(1)
        dist = md.Distribution(gd.space, [VectorField(gd.space, lambda g: np.array([1.0, g[0]]))])
        calls = count_calls(monkeypatch, linalg, "intersect_subspaces")
        ranks = [md.base_intersection_basis(gd, dist, np.array([p])).shape[1]
                 for p in (0.5, 1.0, 0.5)]
        assert ranks == [0, 1, 0] and len(calls) == 3

    @pytest.mark.parametrize("mode", ["s", "t"])
    def test_fiber_kernel_intersection_takes_one_svd(self, monkeypatch, mode):
        s = pair_scenario()
        g = np.array([0.4, -1.0, 2.0, 0.3])
        s.dist.fiber_basis(g, TOL)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        got = md.fiber_kernel_intersection(s.groupoid, s.dist, g, mode)
        assert len(svds) == 1
        assert got.shape == (4, SMOOTH_EXPECTED[pair_scenario]["S_t"])


class TestRankStructure:
    @pytest.mark.parametrize("build", list(SMOOTH_EXPECTED))
    def test_ranks_and_splitting(self, build):
        s = build()
        want = SMOOTH_EXPECTED[build]
        report = md.check_rank_structure(s.groupoid, s.dist, 30,
                                         np.random.default_rng(2))
        assert report.passed
        ranks = report.details["ranks"]
        assert ranks["S"] == want["S"]
        assert ranks["S_cap_TP"] == want["S_cap_TP"]
        assert ranks["S_t"] == ranks["S_s"] == want["S_t"]
        assert ranks["S_cap_TP"] + ranks["S_cap_AG"] == ranks["S"]
        assert report.details["splitting_holds"]
        assert report.max_residual <= 1e-5  # translation-invariance angles

    def test_failed_splitting_names_the_ranks(self):
        # S spanned by (1, 0) on the pair groupoid of R meets neither TP nor
        # AG at the units, so rank(S ∩ TP) + rank(S ∩ AG) = 0 < rank(S) = 1
        gd = pair_groupoid_maps(1)
        dist = md.Distribution(gd.space, [constant_field(gd.space, [1.0, 0.0])], rank=1)
        report = md.check_rank_structure(gd, dist, 3, np.random.default_rng(0))
        ranks = {"S": 1, "S_cap_TP": 0, "S_cap_AG": 0}
        assert {key: report.details["ranks"][key] for key in ranks} == ranks
        assert not report.passed and report.max_residual == 1.0
        assert report.witness == {"kind": "splitting", "ranks": report.details["ranks"]}
        lenient = DEFAULT_PARAMS.override(tol_member=10.0)
        assert not md.check_rank_structure(gd, dist, 3, np.random.default_rng(0),
                                           lenient).passed

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
        x_field = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "s")
        g = np.array([0.4, -1.0, 2.0, 0.3])
        assert np.allclose(x_field(g), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_field_lifts_to_zero(self):
        s = pair_scenario()
        zero = constant_field(s.groupoid.base, [0.0, 0.0])
        x_field = md.lift_section(s.groupoid, s.dist, zero, "t")
        assert np.allclose(x_field(np.array([1.0, 2.0, 3.0, 4.0])), 0.0)

    def test_vb_t_lift(self):
        # t-lift of the base leaf direction has no fiber component
        s = vb_scenario()
        x_field = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "t")
        g = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(x_field(g), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_lift_residuals_and_membership(self):
        s = pair_scenario()
        rng = np.random.default_rng(5)
        points = [s.groupoid.sample_arrow(rng) for _ in range(30)]
        for mode in ("s", "t"):
            base_field = s.base_fields[0]
            x_field = md.lift_section(s.groupoid, s.dist, base_field, mode)
            assert md.descent_residual(s.groupoid, x_field, base_field, mode, points) <= 1e-6
            for g in points[:10]:
                value = x_field(g)
                basis = s.dist.fiber_basis(g, TOL)
                assert np.linalg.norm(value - basis @ (basis.T @ value)) <= 1e-6

    def test_descent_residual_keeps_a_nan_gap(self):
        # a NaN source Jacobian at the second point is a NaN residual, not 0.0
        gd = pair_groupoid_maps(1)
        src = gd.src
        gd = dataclasses.replace(gd, src=SmoothMap(
            src.domain, src.codomain, src.fn,
            jac=lambda g: np.full((1, 2), np.nan) if g[0] > 0 else src.jacobian(g)))
        points = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
        assert math.isnan(md.descent_residual(gd, constant_field(gd.space, [0.0, 0.0]),
                                              constant_field(gd.base, [0.0]), "s", points))

    def test_lift_failed_outside_distribution(self):
        s = pair_scenario()  # D = span{d/dx}; d/dy is not liftable
        bad = constant_field(s.groupoid.base, [0.0, 1.0])
        x_field = md.lift_section(s.groupoid, s.dist, bad, "s")
        with pytest.raises(LiftFailed):
            x_field(np.array([1.0, 2.0, 3.0, 4.0]))


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

    @pytest.mark.parametrize("h", [1e-5, 1e-3])
    def test_report_equals_the_per_pair_reference(self, h):
        # three nonlinear differenced fields whose three brackets all leave the span
        R4 = euclidean(4)
        points = np.random.default_rng(9).uniform(-0.5, 0.5, (20, 4))
        params = DEFAULT_PARAMS.override(h_fd=h)
        report = md.check_involutive(md.Distribution(R4, graph_fields(R4)), points, params)
        reference = per_pair_check_involutive(md.Distribution(R4, graph_fields(R4)), points,
                                              params)
        assert not report.passed and report.max_residual > 0.5
        assert struct.pack("d", report.max_residual) == struct.pack("d", reference.max_residual)
        assert report.to_json() == reference.to_json()  # the witness too
        # every pair is nonzero, so the witness is chosen among three live residuals
        x = points[0]
        fields = graph_fields(R4)
        basis = md.Distribution(R4, fields).fiber_basis(x, params.tol_rank)
        assert all(linalg.span_residuals(pair_lie_bracket(fields[i], fields[j], x, h),
                                         basis)[0] > 1e-3
                   for i, j in [(0, 1), (0, 2), (1, 2)])

    def test_rank_drift_raised_before_any_bracket(self, monkeypatch):
        dist = md.Distribution(R2, [constant_field(R2, [1, 0]),
                                    VectorField(R2, lambda x: np.array([0.0, x[0]]))])
        brackets = count_calls(monkeypatch, gc, "lie_brackets")
        with pytest.raises(RankDrift):
            md.check_involutive(dist, [np.array([1.0, 0.0]), np.array([0.0, 0.0])])
        assert len(brackets) == 1  # the first point only; the drifting one forms none

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

    def test_difference_step_comes_from_params(self):
        # X = (1, 0, y^3, 0) and Y = (0, 1, 0, x) carry no Jacobian, and the
        # central difference of y^3 is exactly 3y^2 + h^2, so the bracket is
        # (0, 0, -(3y^2 + h^2), 1) and the residual moves with h_fd
        R4 = euclidean(4)
        points = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 4))

        def closed_form(h):
            worst = 0.0
            for x in points:
                bracket = np.array([0.0, 0.0, -(3.0 * x[1] ** 2 + h * h), 1.0])
                span = np.array([[1.0, 0.0, x[1] ** 3, 0.0], [0.0, 1.0, 0.0, x[0]]]).T
                rem = bracket - span @ np.linalg.lstsq(span, bracket, rcond=None)[0]
                worst = max(worst, float(np.linalg.norm(rem) / np.linalg.norm(bracket)))
            return worst

        got = {}
        for h in (1e-5, 1e-1):
            dist = md.Distribution(R4, [
                VectorField(R4, lambda x: np.array([1.0, 0.0, x[1] ** 3, 0.0])),
                VectorField(R4, lambda x: np.array([0.0, 1.0, 0.0, x[0]]))])
            report = md.check_involutive(dist, points, DEFAULT_PARAMS.override(h_fd=h))
            assert not report.passed
            assert abs(report.max_residual - closed_form(h)) <= 1e-9
            got[h] = report.max_residual
        assert got[1e-1] - got[1e-5] > 1e-4


class TestCompleteness:
    def test_spot_check_constant_lifts(self):
        s = pair_scenario()
        rng = np.random.default_rng(7)
        points = [s.groupoid.sample_arrow(rng) for _ in range(3)]
        x_fields = [md.lift_section(s.groupoid, s.dist, f, "t") for f in s.base_fields]
        report = md.spot_check_completeness(x_fields, points, t_max=5.0)
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

    def test_witness_maps_the_stopped_row_to_its_start_and_sign(self):
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        field = constant_field(box, [1.0])
        report = md.spot_check_completeness([field], [np.array([0.0]), np.array([0.9])],
                                            t_max=0.5)
        witness = report.witness
        assert not report.passed
        assert witness["from"] == [0.9] and witness["sign"] == 1.0
        assert abs(witness["time"] - 0.1) <= 0.01
        assert box.contains(np.array(witness["last_state"]))

    def test_blowup_inside_a_per_point_field_names_its_start(self):
        line = gc.ChartManifold(1)
        inner = SmoothMap(line, line, lambda x: np.array([np.inf if x[0] == 0.0 else 1.0]))
        field = VectorField(line, lambda x: inner(x), name="inner")
        report = md.spot_check_completeness([field], [np.array([1.0]), np.array([0.0])],
                                            t_max=0.5)
        assert not report.passed
        assert report.witness == {"field": "inner", "from": [0.0],
                                  "error": "NumericalBlowup", "sign": 1.0}

    @pytest.mark.parametrize("base, start", [
        (lambda p: np.array([0.0, 1.0]), [-1.0, 0.0, 2.0, 3.0]),  # lifts nowhere: row 0
        (lambda p: np.array([1.0, max(p[0], 0.0)]), [1.0, 0.0, 2.0, 3.0]),  # bent: row 2
    ], ids=["vertical", "bent"])
    def test_failed_lift_inside_a_per_point_field_names_its_start(self, base, start):
        s = pair_scenario()  # D = span{d/dx}
        gd = s.groupoid
        field = VectorField(gd.space, lambda g: md.lift_at_point(
            gd, s.dist, g, base(gd.tgt(g)), "t"), name="per-point lift")
        starts = [np.array([-1.0, 0.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0, 3.0])]
        with pytest.raises(LiftFailed) as exc:
            md.spot_check_completeness([field], starts, 0.5)
        assert exc.value.witness == {"from": start, "sign": 1.0}


class TestStackedFiberBasis:
    """A (k, n) stack of points gives a (k, n, rank) stack of bases, each
    equal bit for bit to its point's own basis."""

    def test_constant_frame_basis_once_per_tolerance(self, monkeypatch):
        dist = md.Distribution(R3, [constant_field(R3, [1, 0, 0]), constant_field(R3, [0, 1, 1])])
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        stack = np.random.default_rng(3).uniform(-2.0, 2.0, (4, 3))
        got = dist.fiber_basis(stack, TOL)
        assert got.shape == (4, 3, 2) and not got.flags.writeable
        assert all(b.tobytes() == dist.fiber_basis(x, TOL).tobytes() for b, x in zip(got, stack))
        assert dist.generator_matrix(stack).shape == (4, 3, 2)
        assert len(calls) == 1
        assert dist.fiber_basis(stack, 1e-3).shape == (4, 3, 2)
        dist.fiber_basis(stack[0], 1e-3)
        assert len(calls) == 2

    def test_varying_generators_ranked_per_matrix(self):
        dist = md.Distribution(R3, [
            VectorField(R3, lambda x: np.array([np.cos(x[0]), np.sin(x[0]), 0.0])),
            VectorField(R3, lambda x: np.array([x[1], 1.0, x[2] ** 2]))])
        stack = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 3))
        mats, got = dist.generator_matrix(stack), dist.fiber_basis(stack, TOL)
        assert mats.shape == (5, 3, 2) and got.shape == (5, 3, 2)
        for m, b, x in zip(mats, got, stack):
            assert m.tobytes() == dist.generator_matrix(x).tobytes()
            assert b.tobytes() == dist.fiber_basis(x, TOL).tobytes()

    @pytest.mark.parametrize("rank", [None, 1])
    def test_rank_drift_names_the_first_drifting_row(self, rank):
        dist = md.Distribution(R2, [VectorField(R2, lambda x: np.array([x[0], 0.0]))], rank=rank)
        stack = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 3.0]])
        with pytest.raises(RankDrift) as exc:
            dist.fiber_basis(stack, TOL)
        assert exc.value.witness == {"at": [0.0, 2.0]}
        assert dist.rank == 1

    @pytest.mark.parametrize("gens", [[constant_field(R2, [1, 0])],
                                      [VectorField(R2, lambda x: np.array([x[0], 1.0]))]],
                             ids=["constant", "varying"])
    def test_empty_stack(self, gens):
        dist = md.Distribution(R2, gens, rank=2)  # a wrong rank, but no point to drift at
        assert dist.fiber_basis(np.zeros((0, 2)), TOL).shape[0] == 0


def rotated_with_samplers(gd, rotation):
    """``rotated_without_jacobians`` with ``gd``'s samplers carried along."""
    return dataclasses.replace(
        rotated_without_jacobians(gd, rotation), sample_object=gd.sample_object,
        sample_arrow=lambda rng: rotation @ gd.sample_arrow(rng),
        sample_arrow_to=lambda rng, p: rotation @ gd.sample_arrow_to(rng, p))


def skewed_pair():
    gd = pair_groupoid_maps(1)
    return gd, md.Distribution(gd.space, [VectorField(gd.space, lambda g: np.array([g[0], 1.0]))])


def presymplectic_characteristic():
    s = presymplectic_pair_dirac_scenario()
    ref = s.groupoid.sample_arrow(np.random.default_rng(0))
    return s.groupoid, characteristic_distribution(s.dirac, ref)


def groupoid_and_dist(build):
    s = build()
    return s.groupoid, s.dist


# each builds a fresh (groupoid, distribution), so no memo or fixed rank is shared
STACK_CASES = {
    "affine_pair": (lambda: groupoid_and_dist(pair_scenario), 25, 1),
    "pair_rank2": (lambda: groupoid_and_dist(pair_rank2_scenario), 25, 2),
    "differenced": (lambda: (rotated_with_samplers(pair_groupoid_maps(2), ROTATION),
                             md.Distribution(euclidean(4), [
                                 constant_field(euclidean(4), ROTATION[:, i]) for i in (0, 2)])),
                    12, 3),
    "characteristic": (presymplectic_characteristic, 12, 4),
    "skewed": (skewed_pair, 30, 0),
    "no_samples": (lambda: groupoid_and_dist(pair_scenario), 0, 5),
}


class TestStackedCheckMultiplicative:
    """The stacked check reports what a pair-by-pair pass reports, byte for byte."""

    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_report_equals_the_per_pair_pass(self, case):
        build, samples, seed = STACK_CASES[case]
        want = per_pair_check_multiplicative(*build(), samples, np.random.default_rng(seed))
        got = md.check_multiplicative(*build(), samples, np.random.default_rng(seed))
        assert got.to_json() == want.to_json()
        if case == "skewed":
            assert not got.passed and got.witness["kind"] in ("projection", "product")
            assert got.witness["at"] == want.witness["at"]
        elif case != "differenced":  # differenced maps turn a killed direction into noise
            assert got.passed

    def test_a_drifting_sample_raises_where_the_per_pair_pass_does(self):
        # the rank of (max(a, 0), max(b, 0)) on pair(R) drops to 0 where a, b <= 0
        gd = pair_groupoid_maps(1)

        def outcome(check, seed):
            dist = md.Distribution(gd.space, [VectorField(
                gd.space, lambda y: np.array([max(y[0], 0.0), max(y[1], 0.0)]))])
            try:
                return check(gd, dist, 1, np.random.default_rng(seed)).to_json()
            except RankDrift as exc:
                return str(exc), exc.witness

        raised = 0
        for seed in range(12):
            want = outcome(per_pair_check_multiplicative, seed)
            assert outcome(md.check_multiplicative, seed) == want
            raised += isinstance(want, tuple)
        assert 0 < raised < 12

    def test_first_drifting_row_of_g_raises_first(self):
        # with several drifting samples the fibers at g are ranked before those at h
        gd = pair_groupoid_maps(1)
        dist = md.Distribution(gd.space, [VectorField(
            gd.space, lambda y: np.array([max(y[0], 0.0), 0.0]))], rank=1)
        rng = np.random.default_rng(6)
        g = [gd.composable_pair(rng)[0] for _ in range(8)]
        first = next(x for x in g if x[0] <= 0.0)
        with pytest.raises(RankDrift) as exc:
            md.check_multiplicative(gd, dist, 8, np.random.default_rng(6))
        assert exc.value.witness == {"at": first.tolist()}


def varying_base_field(base, mask):
    """A base field that changes from point to point, inside the span of the
    base coordinates that ``mask`` keeps."""
    mask = np.asarray(mask, dtype=float)
    return VectorField(base, lambda p: mask * np.cos(p[::-1]), name="varying")


def lift_case(build, mask):
    """(groupoid, distribution, base fields): the scenario's own and a varying one."""
    def make():
        s = build()
        return s.groupoid, s.dist, s.base_fields + [varying_base_field(s.groupoid.base, mask)]
    return make


def rotated_pair():
    gd = rotated_with_samplers(pair_groupoid_maps(2), ROTATION)
    dist = md.Distribution(gd.space, [constant_field(gd.space, ROTATION[:, i]) for i in (0, 2)])
    return gd, dist, [constant_field(gd.base, [1.0, 0.0]), varying_base_field(gd.base, [1, 0])]


def cubic_pair():
    gd, dist = cubic_pair_groupoid()
    return gd, dist, [varying_base_field(gd.base, [1, 0])]


# each builds a fresh (groupoid, distribution, base fields), so no memo is shared
LIFT_CASES = {
    "pair": lift_case(pair_scenario, [1, 0]),
    "vb": lift_case(vb_scenario, [1, 0]),
    "pair_rank2": lift_case(pair_rank2_scenario, [1, 1, 0, 0]),
    "rotated_differenced": rotated_pair,
    "cubic_differenced": cubic_pair,
}


class TestStackedLift:
    """A (k, n) stack of arrows lifts as each of its rows does on its own."""

    # pair_scenario lifts (a, 0) and nothing with a second component
    LIFTABLE_A, LIFTABLE_B, UNLIFTABLE = [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("mode", ["s", "t"])
    @pytest.mark.parametrize("case", list(LIFT_CASES))
    def test_rows_equal_their_per_point_lifts(self, case, mode, k):
        gd, dist, fields = LIFT_CASES[case]()
        rng = np.random.default_rng(k)
        stack = np.array([gd.sample_arrow(rng) for _ in range(k)])
        proj = gd.src if mode == "s" else gd.tgt
        for base_field in fields:
            targets = base_field(proj(stack))
            lifted = md.lift_at_point(gd, dist, stack, targets, mode)
            x_field = md.lift_section(gd, dist, base_field, mode)
            on_stack = x_field(stack)
            assert lifted.shape == on_stack.shape == stack.shape
            for g, target, got, field_got in zip(stack, targets, lifted, on_stack):
                want = md.lift_at_point(gd, dist, g, target, mode)
                assert got.tobytes() == want.tobytes()
                assert field_got.tobytes() == want.tobytes() == x_field(g).tobytes()

    @pytest.mark.parametrize("case", ["pair", "cubic_differenced"])
    def test_stacked_flow_equals_each_rows_own_flow(self, case):
        gd, dist, fields = LIFT_CASES[case]()
        x_field = md.lift_section(gd, dist, fields[-1], "t")
        rng = np.random.default_rng(2)
        stack = np.array([gd.sample_arrow(rng) for _ in range(4)])
        times = np.array([0.5, -0.5, -0.5, 0.5])
        ends = gc.flow(x_field, stack, times, steps=20)
        assert not np.array_equal(ends, stack)
        for g, t, end in zip(stack, times, ends):
            assert end.tobytes() == gc.flow(x_field, g, t, steps=20).tobytes()

    def test_flowed_stack_solves_a_few_times(self, monkeypatch):
        s = pair_scenario()
        x_field = md.lift_section(s.groupoid, s.dist, s.base_fields[0], "t")
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        stack = np.array([s.groupoid.sample_arrow(np.random.default_rng(i)) for i in range(10)])
        ends = gc.flow(x_field, stack, 1.0, steps=200)
        assert len(calls) <= 5
        assert np.allclose(ends, stack + np.array([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_lift_failed_names_the_lowest_failing_row(self):
        s = pair_scenario()  # D = span{d/dx}; d/dy lifts nowhere
        gd, dist = s.groupoid, s.dist
        stack = np.array([[-1.0, 0.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0], [2.0, 1.0, 2.0, 3.0]])
        bent = VectorField(gd.base, lambda p: np.array([1.0, max(p[0], 0.0)]), name="bent")
        with pytest.raises(LiftFailed) as per_point:
            md.lift_at_point(gd, dist, stack[1], bent(stack[1, :2]), "t")
        assert per_point.value.row is None
        for lift in (lambda: md.lift_at_point(gd, dist, stack, bent(stack[:, :2]), "t"),
                     lambda: md.lift_section(gd, dist, bent, "t")(stack)):
            with pytest.raises(LiftFailed) as exc:
                lift()
            assert exc.value.row == 1
            assert str(exc.value) == str(per_point.value)

    def test_completeness_names_the_start_of_a_failed_lift(self):
        s = pair_scenario()
        gd = s.groupoid
        bent = VectorField(gd.base, lambda p: np.array([1.0, max(p[0], 0.0)]), name="bent")
        starts = [np.array([-1.0, 0.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0, 3.0])]
        with pytest.raises(LiftFailed) as exc:
            md.spot_check_completeness([md.lift_section(gd, s.dist, bent, "t")], starts, 0.5)
        assert exc.value.row == 2
        assert exc.value.witness == {"from": [1.0, 0.0, 2.0, 3.0], "sign": 1.0}

    def lift_counting_solves(self, monkeypatch, targets):
        """A fresh distribution's stacked lift of ``targets`` at rows of one arrow
        repeated, each row checked against its per-point lift, and the solves made."""
        s = pair_scenario()
        stack = np.tile([0.5, -1.0, 2.0, 3.0], (len(targets), 1))
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        lifted = md.lift_at_point(s.groupoid, s.dist, stack, np.array(targets), "t")
        solves = len(calls)
        for g, target, got in zip(stack, targets, lifted):
            want = md.lift_at_point(s.groupoid, s.dist, g, np.array(target), "t")
            assert got.tobytes() == want.tobytes()
        return lifted, solves

    def test_equal_rows_solve_once(self, monkeypatch):
        lifted, solves = self.lift_counting_solves(monkeypatch, [self.LIFTABLE_A] * 10)
        assert solves == 1
        assert lifted.shape == (10, 4)

    def test_each_run_solves_again(self, monkeypatch):
        rows = [self.LIFTABLE_A, self.LIFTABLE_B] * 2
        assert self.lift_counting_solves(monkeypatch, rows)[1] == 4

    def test_negative_zero_starts_its_own_run(self, monkeypatch):
        rows = [[1.0, 0.0], [1.0, -0.0], [1.0, -0.0]]
        assert self.lift_counting_solves(monkeypatch, rows)[1] == 2

    def test_lowest_failing_row_of_a_failing_run(self, monkeypatch):
        s = pair_scenario()
        gd, dist = s.groupoid, s.dist
        stack = np.array([[-1.0, 0.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0], [2.0, 1.0, 2.0, 3.0],
                          [2.0, 1.0, 2.0, 3.0], [2.0, 1.0, 2.0, 3.0]])
        targets = np.array([self.LIFTABLE_A, self.LIFTABLE_B] + [self.UNLIFTABLE] * 3)
        calls = count_calls(monkeypatch, linalg, "solve_min_norm")
        with pytest.raises(LiftFailed) as exc:
            md.lift_at_point(gd, dist, stack, targets, "t")
        assert exc.value.row == 2
        assert len(calls) == 3
        with pytest.raises(LiftFailed) as per_point:
            md.lift_at_point(gd, pair_scenario().dist, stack[2], targets[2], "t")
        assert str(exc.value) == str(per_point.value)

import math
import struct

import numpy as np
import pytest

from folioid import dirac as dr
from folioid import geomcore
from folioid import linalg
from folioid import multdist as md
from folioid.errors import RankDrift
from folioid.geomcore import OneForm, SmoothMap, VectorField, constant_field
from folioid.params import DEFAULT_PARAMS
from folioid.report import Worst
from folioid.scenarios import (affine_map, pair_groupoid_maps,
                               presymplectic_pair_dirac_scenario)
from helpers import (count_calls, cotangent_source, euclidean, graph_fields, loop_jacobi_residual,
                     pair_courant_bracket, pontryagin_pairing)

R2 = euclidean(2)
R3 = euclidean(3)
R6 = euclidean(6)

OMEGA_XY = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
PI_XY = np.array([[0.0, 1.0], [-1.0, 0.0]])


def sample_points(dim, n, seed=0, width=2.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-width, width, dim) for _ in range(n)]


class TestPairing:
    def test_zero_covectors(self):
        assert pontryagin_pairing(((1, 0), (0, 0)), ((0, 1), (0, 0))) == 0.0

    def test_hand_value(self):
        assert pontryagin_pairing(((1, 0), (2, 3)), ((0, 1), (1, 1))) == 4.0

    def test_isotropic_self_pairing(self):
        v, alpha = (1.0, 2.0), (2.0, -1.0)  # alpha(v) = 0
        assert pontryagin_pairing((v, alpha), (v, alpha)) == 0.0


class TestCharacteristicSpaces:
    def test_two_form_kernel(self):
        d = dr.from_two_form(R3, OMEGA_XY)
        g0 = dr.characteristic_spaces(d, np.array([0.2, -0.4, 1.0]))
        assert g0.shape[1] == 1 and np.allclose(np.abs(g0[:, 0]), [0, 0, 1])

    def test_invertible_poisson_has_trivial_kernel(self):
        d = dr.from_poisson(R2, PI_XY)
        assert dr.characteristic_spaces(d, np.zeros(2)).shape[1] == 0

    def test_tangent_dirac_structure(self):
        d = dr.from_two_form(R2, np.zeros((2, 2)))  # TM + 0
        assert dr.characteristic_spaces(d, np.zeros(2)).shape[1] == 2

    def test_zero_poisson_is_cotangent_graph(self):
        # graph of pi = 0 is {(0, alpha)}: no kernel directions
        d = dr.from_poisson(R2, np.zeros((2, 2)))
        assert dr.characteristic_spaces(d, np.zeros(2)).shape[1] == 0


class TestCourantBracket:
    def test_constant_sections_vanish(self):
        d = dr.from_poisson(R2, PI_XY)
        t, c = dr.courant_bracket(d.gens, np.array([0.3, 0.4]))
        assert t.shape == c.shape == (1, 2)
        assert np.abs(t).max() <= 1e-9 and np.abs(c).max() <= 1e-9

    def test_hand_cartan_value(self):
        # [(d/dx, 0), (0, x dy)] = (0, L_{d/dx}(x dy)) = (0, dy)
        sec1 = (constant_field(R2, [1, 0]), OneForm(R2, lambda x: np.zeros(2)))
        sec2 = (VectorField(R2, lambda x: np.zeros(2)),
                OneForm(R2, lambda x: np.array([0.0, x[0]])))
        t, c = dr.courant_bracket([sec1, sec2], np.array([0.7, -0.2]))
        assert np.abs(t).max() <= 1e-9
        assert np.abs(c - np.array([[0.0, 1.0]])).max() <= 1e-8

    def test_both_orders_land_in_integrable_structure(self):
        d = dr.from_two_form(R3, OMEGA_XY)
        x = np.array([0.1, 0.2, 0.3])
        fiber = d.fiber_basis(x)
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            for a, b in [(i, j), (j, i)]:
                t, c = dr.courant_bracket([d.gens[a], d.gens[b]], x)
                assert linalg.span_residuals(np.hstack([t, c]).T, fiber)[0] <= 1e-6


def graph_sections():
    """``graph_fields`` on R^4 paired with three nonlinear one-forms; no section has a
    Jacobian, so every derivative is differenced."""
    R4 = euclidean(4)
    forms = [OneForm(R4, lambda x, a=a: np.array([math.sin(a * x[0]), a * x[1] * x[2],
                                                  x[3] ** 2, math.cos(x[0] * x[1])]))
             for a in (0.5, 1.3, -0.7)]
    return list(zip(graph_fields(R4), forms))


class TestAllPairBrackets:
    @pytest.mark.parametrize("h", [1e-5, 1e-3, 1e-1])
    def test_rows_equal_the_per_pair_reference_bitwise(self, h):
        sections = graph_sections()
        fields = [x_field for x_field, _ in sections]
        for x in np.random.default_rng(8).uniform(-0.5, 0.5, (30, 4)):
            tangent, covector = dr.courant_bracket(sections, x, h)
            assert tangent.shape == covector.shape == (3, 4)
            assert tangent.tobytes() == geomcore.lie_brackets(fields, x, h)[0].tobytes()
            for row, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                ref_tangent, ref_covector = pair_courant_bracket(sections[i], sections[j], x, h)
                assert tangent[row].tobytes() == ref_tangent.tobytes()
                assert covector[row].tobytes() == ref_covector.tobytes()
        # the brackets are not all zero: the reference is compared on live numbers
        assert np.abs(tangent).max(initial=0.0) > 0.1 and np.abs(covector).max(initial=0.0) > 0.1


class TestIntegrability:
    def test_closed_form_integrable(self):
        d = dr.from_two_form(R3, OMEGA_XY)
        assert dr.check_integrable(d, sample_points(3, 20)).passed

    def test_z_weighted_form_fails_with_witness(self):
        d = dr.from_two_form(
            R3, lambda x: np.array([[0.0, x[2], 0.0], [-x[2], 0.0, 0.0],
                                    [0.0, 0.0, 0.0]]))
        report = dr.check_integrable(d, sample_points(3, 20, seed=1))
        assert not report.passed
        assert report.witness is not None
        # the failing bracket has the dz covector component the fiber lacks
        assert report.max_residual > 0.1

    def test_constant_poisson_integrable(self):
        d = dr.from_poisson(R2, PI_XY)
        assert dr.check_integrable(d, sample_points(2, 10, seed=2)).passed


class TestGraphConstructors:
    def test_zero_two_form_gives_tangent_structure(self):
        d = dr.from_two_form(R2, np.zeros((2, 2)))
        mat = d.generator_matrix(np.zeros(2))
        assert np.allclose(mat[2:], 0)
        assert linalg.numerical_rank(mat[:2]) == 2

    def test_zero_poisson_gives_cotangent_structure(self):
        # the graph {(pi_sharp(a), a)} with pi = 0 has no tangent part
        d = dr.from_poisson(R2, np.zeros((2, 2)))
        mat = d.generator_matrix(np.zeros(2))
        assert np.allclose(mat[:2], 0)
        assert linalg.numerical_rank(mat[2:]) == 2

    def test_poisson_generators_under_declared_convention(self):
        d = dr.from_poisson(R2, PI_XY)
        mat = d.generator_matrix(np.zeros(2))
        assert np.allclose(mat[:, 0], [0.0, 1.0, 1.0, 0.0])   # (pi_sharp dx, dx)
        assert np.allclose(mat[:, 1], [-1.0, 0.0, 0.0, 1.0])  # (pi_sharp dy, dy)

    @pytest.mark.parametrize("builder,arg", [
        (dr.from_two_form, OMEGA_XY),
        (dr.from_poisson, PI_XY),
    ])
    def test_constructions_are_lagrangian(self, builder, arg):
        base = euclidean(arg.shape[0])
        d = builder(base, arg)
        assert dr.check_lagrangian(d, sample_points(arg.shape[0], 30)).passed


class TestMinusDouble:
    def test_tangent_structure_keeps_full_kernel(self):
        d = dr.minus_double(dr.from_two_form(R2, np.zeros((2, 2))))
        assert dr.characteristic_spaces(d, np.zeros(4)).shape[1] == 4

    def test_kernel_splits_per_slot(self):
        d = dr.minus_double(dr.from_two_form(R3, OMEGA_XY))
        g0 = dr.characteristic_spaces(d, sample_points(6, 1, seed=3)[0])
        assert g0.shape[1] == 2
        # kernel directions live in the z-coordinates of both slots
        mask = np.zeros(6, dtype=bool)
        mask[[2, 5]] = True
        assert np.abs(g0[~mask]).max() <= 1e-12

    def test_result_is_lagrangian(self):
        d = dr.minus_double(dr.from_two_form(R3, OMEGA_XY))
        assert dr.check_lagrangian(d, sample_points(6, 20, seed=4)).passed


class TestForwardDirac:
    def test_identity_map(self):
        d = dr.from_poisson(R2, PI_XY)
        ident = affine_map(R2, R2, np.eye(2))
        assert dr.is_forward_dirac(ident, d, d, sample_points(2, 10)).passed

    def test_projection_of_presymplectic_graph(self):
        # dropping the kernel coordinate sends graph(omega) to the graph of
        # the bivector inverting the reduced form under the fixed conventions
        proj = affine_map(R3, R2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        upstairs = dr.from_two_form(R3, OMEGA_XY)
        downstairs = dr.from_poisson(R2, np.array([[0.0, -1.0], [1.0, 0.0]]))
        report = dr.is_forward_dirac(proj, upstairs, downstairs,
                                     sample_points(3, 15, seed=5))
        assert report.passed and report.max_residual <= 1e-9

    def test_rescaled_target_fails(self):
        proj = affine_map(R3, R2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        upstairs = dr.from_two_form(R3, OMEGA_XY)
        wrong = dr.from_poisson(R2, 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]]))
        report = dr.is_forward_dirac(proj, upstairs, wrong,
                                     sample_points(3, 15, seed=6))
        assert not report.passed
        assert report.witness is not None


class TestMultiplicativeDirac:
    def test_pair_dirac_groupoid(self):
        s = presymplectic_pair_dirac_scenario()
        report = dr.check_multiplicative_dirac(s.groupoid, s.dirac, 5,
                                               np.random.default_rng(7))
        assert report.passed and report.max_residual <= 1e-9
        assert report.details["characteristic_rank"] == 2

    def test_full_tangent_structure_is_multiplicative(self):
        gd = pair_groupoid_maps(2)
        d = dr.from_two_form(gd.space, np.zeros((4, 4)))  # TG + 0
        report = dr.check_multiplicative_dirac(gd, d, 5, np.random.default_rng(8))
        assert report.passed

    def test_slot_coupled_scaling_fails(self):
        # scale the first slot's covectors by a function of the second slot:
        # still Lagrangian pointwise, but products land outside the fiber
        gd = pair_groupoid_maps(3)
        base = gd.space
        omega = OMEGA_XY

        def scale(z):
            return 1.0 + z[3] ** 2

        gens = []
        for i in range(3):
            e = np.eye(3)[i]
            gens.append((
                VectorField(base, lambda z, e=e: np.concatenate([e, np.zeros(3)])),
                OneForm(base, lambda z, e=e: np.concatenate([scale(z) * (omega.T @ e),
                                                             np.zeros(3)])),
            ))
        for i in range(3):
            e = np.eye(3)[i]
            gens.append((
                VectorField(base, lambda z, e=e: np.concatenate([np.zeros(3), -e])),
                OneForm(base, lambda z, e=e: np.concatenate([np.zeros(3), omega.T @ e])),
            ))
        d = dr.DiracStructure(base, gens)
        assert dr.check_lagrangian(d, sample_points(6, 10, seed=9)).passed
        report = dr.check_multiplicative_dirac(gd, d, 6, np.random.default_rng(10))
        assert not report.passed


class TestJacobiResidual:
    def test_constant_bivector_satisfies_jacobi(self):
        pi = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
        assert dr.jacobi_residual(lambda x: pi, sample_points(4, 5)) <= 1e-12

    def test_non_poisson_bivector_detected(self):
        def pi(x):
            out = np.zeros((4, 4))
            out[0, 1], out[1, 0] = 1.0, -1.0
            out[2, 3], out[3, 2] = x[0], -x[0]
            return out

        assert dr.jacobi_residual(pi, sample_points(4, 5, seed=11)) > 0.5

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_loop_reference_bitwise(self, n):
        weights = np.random.default_rng(n).standard_normal((n, n, n))

        def pi(x):
            m = np.sin(np.outer(x, x[::-1]) + np.tanh(weights @ x)) * (1.0 + x.sum())
            return m - m.T

        points = sample_points(n, 5, seed=n, width=1.0)
        got = dr.jacobi_residual(pi, points)
        assert struct.pack("d", got) == struct.pack("d", loop_jacobi_residual(pi, points))
        assert got > 0.1 or n < 3

    def test_nan_bivector_is_not_dropped(self):
        # a NaN bracket term is a NaN residual, not the fold's starting 0.0
        assert math.isnan(dr.jacobi_residual(lambda x: np.full((3, 3), np.nan),
                                             sample_points(3, 2)))


class TestPushforward:
    def test_presymplectic_scenario_oracle(self):
        # hand oracle: labels keep the symplectic coordinates of both slots;
        # the projected structure is the graph of the bivector with
        # pi(dx, dy) = -1 on the target slot and +1 on the source slot
        s = presymplectic_pair_dirac_scenario()
        rng = np.random.default_rng(12)
        report = dr.pushforward_dirac(s.groupoid, s.dirac, s.chart.lambda_g,
                                      s.quotient_section, 20, rng)
        assert report.passed
        pi = dr.pushforward_bivector(s.dirac, s.chart.lambda_g, s.quotient_section)(np.zeros(4))
        expected = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
        assert np.abs(pi - expected).max() <= 1e-6
        assert abs(abs(pi[0, 1]) - 1.0) <= 1e-6
        assert abs(abs(pi[2, 3]) - 1.0) <= 1e-6
        assert report.details["jacobi_residual"] <= 1e-6
        assert report.details["forward_dirac_residual"] <= 1e-6

    def test_pushforward_result_multiplicative_on_quotient(self):
        s = presymplectic_pair_dirac_scenario()
        rng = np.random.default_rng(13)
        labels = s.chart.lambda_g
        assert dr.pushforward_dirac(s.groupoid, s.dirac, labels, s.quotient_section,
                                    10, rng).passed
        pushed = dr.from_poisson(labels.codomain,
                                 dr.pushforward_bivector(s.dirac, labels, s.quotient_section))
        report = dr.check_multiplicative_dirac(s.quotient, pushed, 4, rng)
        assert report.passed

    def test_identity_labels_round_trip(self):
        # with trivial kernel and identity labels the pushforward returns
        # the structure itself, fiber by fiber
        gd = pair_groupoid_maps(1)
        d = dr.from_poisson(gd.space, PI_XY)
        ident = affine_map(gd.space, gd.space, np.eye(2))
        rng = np.random.default_rng(14)
        assert dr.pushforward_dirac(gd, d, ident, ident, 10, rng).passed
        pi = dr.pushforward_bivector(d, ident, ident)
        pushed = dr.from_poisson(gd.space, pi)
        for x in sample_points(2, 5, seed=15):
            angle = linalg.subspace_max_angle(pushed.fiber_basis(x),
                                              d.fiber_basis(x))
            assert angle <= 1e-7
        assert np.abs(pi(np.zeros(2)) - PI_XY).max() <= 1e-7

    def test_poisson_round_trip_through_extraction(self):
        gd = pair_groupoid_maps(1)
        d = dr.from_poisson(gd.space, PI_XY)
        ident = affine_map(gd.space, gd.space, np.eye(2))
        assert dr.pushforward_dirac(gd, d, ident, ident, 5, np.random.default_rng(16)).passed
        pi = dr.pushforward_bivector(d, ident, ident)
        for x in sample_points(2, 5, seed=17):
            assert np.abs(pi(x) - PI_XY).max() <= 1e-7

    def test_nontrivial_kernel_downstairs_reported(self):
        # labels that keep the kernel direction leave G0 visible downstairs
        s = presymplectic_pair_dirac_scenario()
        gd = s.groupoid
        ident = affine_map(gd.space, gd.space, np.eye(6))
        report = dr.pushforward_dirac(gd, s.dirac, ident, ident, 5, np.random.default_rng(18))
        assert not report.passed
        assert report.details["hypothesis_violation"].startswith("characteristic space")
        assert "characteristic" in report.witness["kind"]


class TestCharacteristicInvolutivity:
    def test_integrable_implies_involutive_kernel(self):
        s = presymplectic_pair_dirac_scenario()
        rng = np.random.default_rng(19)
        ref = s.groupoid.sample_arrow(rng)
        g0 = dr.characteristic_distribution(s.dirac, ref)
        points = [s.groupoid.sample_arrow(rng) for _ in range(10)]
        report = md.check_involutive(g0, points)
        assert report.passed and report.max_residual <= 1e-5


def z_weighted_double():
    """minus_double of graph(z dx^dy) on R^3: not closed, so not integrable."""
    return dr.minus_double(dr.from_two_form(
        R3, lambda x: np.array([[0.0, x[2], 0.0], [-x[2], 0.0, 0.0], [0.0, 0.0, 0.0]])))


class TestIntegrabilityWork:
    def test_each_generator_differenced_once_per_point(self, monkeypatch):
        from folioid import geomcore

        calls = []
        central = geomcore.central_difference
        monkeypatch.setattr(geomcore, "central_difference",
                            lambda *args: calls.append(1) or central(*args))
        d = z_weighted_double()
        report = dr.check_integrable(d, sample_points(6, 1, seed=3))
        assert not report.passed
        # six vector fields and six one-forms, each differenced once for 15 pairs
        assert 0 < len(calls) <= 12

    def test_difference_step_comes_from_params(self, monkeypatch):
        from folioid import geomcore

        steps = []
        central = geomcore.central_difference
        monkeypatch.setattr(geomcore, "central_difference",
                            lambda fn, x, h: steps.append(h) or central(fn, x, h))
        params = DEFAULT_PARAMS.override(h_fd=1e-3)
        dr.check_integrable(z_weighted_double(), sample_points(6, 2, seed=3), params)
        assert steps and set(steps) == {1e-3}

    def test_report_equals_fresh_brackets(self):
        points = sample_points(6, 3, seed=4)
        report = dr.check_integrable(z_weighted_double(), points)
        worst, witness = 0.0, None
        for x in points:
            for i in range(6):
                for j in range(i + 1, 6):
                    d = z_weighted_double()  # fresh fields: nothing is shared
                    bracket = np.concatenate(pair_courant_bracket(d.gens[i], d.gens[j], x))
                    resid = linalg.span_residuals(bracket, d.fiber_basis(x))[0]
                    if resid > worst:
                        worst = resid
                        witness = {"pair": [i, j], "at": x.tolist(),
                                   "bracket": bracket.tolist()}
        assert worst > 0.1
        assert report.max_residual == worst
        assert report.witness == witness


class TestExactJacobians:
    @pytest.mark.parametrize("build", [
        lambda: dr.from_two_form(R3, OMEGA_XY),
        lambda: dr.from_poisson(R2, PI_XY),
        lambda: dr.minus_double(dr.from_two_form(R3, OMEGA_XY)),
    ], ids=["from_two_form", "from_poisson", "minus_double"])
    def test_equal_to_differences_bit_for_bit(self, build):
        d = build()
        x = np.linspace(-0.7, 1.3, d.dim)
        for gen in d.gens:
            for field in gen:
                assert field.jac is not None
                exact = field.jacobian(x)
                diff = geomcore.central_difference(
                    lambda z: np.asarray(field.fn(z), dtype=float), x, DEFAULT_PARAMS.h_fd)
                assert np.array_equal(exact, diff)
                assert np.array_equal(np.signbit(exact), np.signbit(diff))

    def test_minus_double_blocks_from_inner_jacobian(self):
        a = np.array([[0.0, 2.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        inner = dr.DiracStructure(R3, [
            (VectorField(R3, lambda x: a @ x, jac=lambda x: a),
             geomcore.constant_form(R3, np.eye(3)[i])) for i in range(3)])
        doubled = dr.minus_double(inner)
        left, right = doubled.gens[0][0], doubled.gens[3][0]
        z = np.linspace(-1.0, 1.0, 6)
        assert np.array_equal(left.jacobian(z)[:3, :3], a)
        jac = right.jacobian(z)
        assert np.array_equal(jac[3:, 3:], -a)
        # the negated block keeps +0.0 where a is zero, as differences would
        assert np.array_equal(np.signbit(jac[3:, 3:]), a > 0)
        assert not np.signbit(jac[:3]).any() and not np.signbit(jac[:, :3]).any()
        assert np.array_equal(right(z)[3:], -(a @ z[3:]))

    def test_callable_two_form_keeps_differences(self):
        d = z_weighted_double()
        assert all(form.jac is None for _, form in d.gens)
        assert all(field.jac is not None for field, _ in d.gens)


def stacked_per_point(d, x):
    """The generator matrix of ``d`` at x, read from each generator's ``fn``."""
    return np.column_stack([
        np.concatenate([np.asarray(xf.fn(x), dtype=float), np.asarray(af.fn(x), dtype=float)])
        for xf, af in d.gens])


CONSTANT_BUILDS = [
    lambda: dr.from_two_form(R3, OMEGA_XY),
    lambda: dr.from_poisson(R2, PI_XY),
    lambda: dr.minus_double(dr.from_two_form(R3, OMEGA_XY)),
    lambda: presymplectic_pair_dirac_scenario().dirac,
]
CONSTANT_IDS = ["from_two_form", "from_poisson", "minus_double", "presymplectic_pair"]


class TestConstantFrames:
    """Constant generators carry their value, and their structure its frame."""

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("vec", [[1.0, 0.0, -2.5], [0.0, -0.0, 3.0]])
    @pytest.mark.parametrize("cls,const", [(VectorField, geomcore.constant_field),
                                           (OneForm, geomcore.constant_form)])
    def test_in_slot_of_constant_equals_evaluation(self, negate, vec, cls, const):
        inner = const(R3, vec)
        field = dr._in_slot(cls, R6, inner, slice(3, 6), negate=negate)
        z = np.linspace(-1.0, 1.0, 6)
        want = np.zeros(6)
        want[3:] = -np.asarray(vec) if negate else np.asarray(vec)
        assert isinstance(field, cls) and field.value is not None
        assert field(z).tobytes() == want.tobytes()
        assert field(z).tobytes() == np.asarray(field.fn(z), dtype=float).tobytes()

    def test_in_slot_of_non_constant_is_evaluated(self):
        inner = VectorField(R3, lambda x: 2.0 * x)
        field = dr._in_slot(VectorField, R6, inner, slice(0, 3), negate=True)
        z = np.linspace(-1.0, 1.0, 6)
        assert field.value is None
        assert np.array_equal(field(z)[:3], -2.0 * z[:3])

    @pytest.mark.parametrize("build", CONSTANT_BUILDS, ids=CONSTANT_IDS)
    def test_frame_built_once_equals_evaluation(self, build, monkeypatch):
        d = build()
        points = sample_points(d.dim, 4, seed=8)
        want = [stacked_per_point(d, x).tobytes() for x in points]
        calls = count_calls(monkeypatch, VectorField, "__call__")
        got = [d.generator_matrix(x) for x in points]
        assert calls == []
        assert [mat.tobytes() for mat in got] == want
        assert not got[0].flags.writeable

    @pytest.mark.parametrize("build", CONSTANT_BUILDS, ids=CONSTANT_IDS)
    def test_fiber_basis_takes_one_svd_per_tol(self, build, monkeypatch):
        d = build()
        points = sample_points(d.dim, 5, seed=9)
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for x in points:
            basis = d.fiber_basis(x)
            assert basis.shape == (2 * d.dim, d.dim)
        assert len(calls) == 1
        fresh = linalg.orth_basis(stacked_per_point(d, points[0]), dr.DEFAULT_PARAMS.tol_rank)
        assert basis.tobytes() == fresh.tobytes()
        assert not basis.flags.writeable
        for x in points:
            d.fiber_basis(x, 1e-9)
        assert len(calls) == 1 + 1 + 1  # the fresh basis, then one for the new tol

    def test_rank_deficient_frame_raises_on_every_call(self, monkeypatch):
        d = dr.DiracStructure(R2, [
            (constant_field(R2, [1.0, 0.0]), geomcore.constant_form(R2, [0.0, 0.0])),
            (constant_field(R2, [2.0, 0.0]), geomcore.constant_form(R2, [0.0, 0.0]))])
        calls = count_calls(monkeypatch, linalg, "orth_basis")
        for x in sample_points(2, 3, seed=10):
            with pytest.raises(RankDrift):
                d.fiber_basis(x)
        assert len(calls) == 1

    def test_callable_form_is_evaluated_per_point(self, monkeypatch):
        d = z_weighted_double()
        assert all(form.value is None for _, form in d.gens)
        assert all(field.value is not None for field, _ in d.gens)
        points = sample_points(6, 3, seed=11)
        want = [stacked_per_point(d, x).tobytes() for x in points]
        calls = count_calls(monkeypatch, VectorField, "__call__")
        got = [d.generator_matrix(x).tobytes() for x in points]
        # every field and form is asked at every point; the constant tangent
        # parts answer with their value, and each form is evaluated by
        # asking the inner form it places in its slot
        assert len(calls) == len(points) * (2 + 1) * len(d.gens)
        assert got == want


class TestPerPointWork:
    @pytest.mark.parametrize("m_dim", [2, 4])
    def test_multiplicative_dirac_translates_once_per_sample(self, monkeypatch, m_dim):
        # 2 algebroid fibers, 3 source and 3 target translations per sample,
        # and one tangent and one covector product with one composable basis
        # and one rank test, however many element pairs (3 m_dim) are multiplied
        from folioid import liegroupoid as lgd

        counts = {}
        for name in ("algebroid_fiber", "source_translates", "target_translates",
                     "tangent_mul", "cotangent_mul"):
            counts[name] = count_calls(monkeypatch, lgd, name)
            monkeypatch.setattr(dr, name, getattr(lgd, name))
        counts["composable_tangent_basis"] = count_calls(monkeypatch, lgd,
                                                         "composable_tangent_basis")
        counts["numerical_rank"] = count_calls(monkeypatch, linalg, "numerical_rank")
        s = presymplectic_pair_dirac_scenario(m_dim=m_dim)
        report = dr.check_multiplicative_dirac(s.groupoid, s.dirac, 3,
                                               np.random.default_rng(7))
        assert report.passed
        assert {name: len(calls) for name, calls in counts.items()} == {
            "algebroid_fiber": 3 * 2, "source_translates": 3 * 3, "target_translates": 3 * 3,
            "tangent_mul": 3, "cotangent_mul": 3, "composable_tangent_basis": 3,
            "numerical_rank": 3}

    def test_integrable_bundled_scenario_takes_no_differences(self, monkeypatch):
        calls = []
        central = geomcore.central_difference
        monkeypatch.setattr(geomcore, "central_difference",
                            lambda *args: calls.append(1) or central(*args))
        s = presymplectic_pair_dirac_scenario()
        report = dr.check_integrable(s.dirac, sample_points(6, 3, seed=5))
        assert report.passed
        assert calls == []

    def test_forward_dirac_projects_once_per_point(self, monkeypatch):
        calls = []
        project = dr.pushforward_fiber
        monkeypatch.setattr(dr, "pushforward_fiber",
                            lambda *args: calls.append(1) or project(*args))
        s = presymplectic_pair_dirac_scenario()
        labels = s.chart.lambda_g
        pushed = dr.from_poisson(labels.codomain,
                                 dr.pushforward_bivector(s.dirac, labels, s.quotient_section),
                                 name="pushforward")
        points = sample_points(6, 5, seed=6)
        report = dr.is_forward_dirac(labels, s.dirac, pushed, points)
        assert report.passed
        assert pushed.dim == 4 and len(calls) == len(points)

    def test_pontryagin_matrix_translates_each_basis_vector_once(self, monkeypatch):
        from folioid import liegroupoid as lgd

        s = presymplectic_pair_dirac_scenario()
        gd = s.groupoid
        g = sample_points(6, 1, seed=7)[0]
        fiber = s.dirac.fiber_basis(g)
        alg = lgd.algebroid_fiber(gd, gd.src(g))
        per_column = np.column_stack([
            cotangent_source(gd, g, fiber[6:, j], alg)
            for j in range(fiber.shape[1])])

        calls = count_calls(monkeypatch, lgd, "translate")
        mat = dr._pontryagin_matrix(gd, g, fiber, gd.src,
                                    lgd.source_translates(gd, g, alg))
        assert alg.shape[1] == 3 and len(calls) == 1
        assert np.array_equal(mat[3:], per_column)

    def test_pushforward_solves_equal_per_column_solves(self, monkeypatch):
        # z dx^dy makes every fiber, bivector and solve depend on the point; the
        # labels drop both z slots and the section puts z = 1 back in each, so
        # the forward check holds to rounding only at points with both z = 1
        gd, quotient = pair_groupoid_maps(3), euclidean(4)
        keep = np.eye(6)[[0, 1, 3, 4]]
        labels = SmoothMap(gd.space, quotient, lambda g: keep @ g, jac=lambda g: keep)
        section = SmoothMap(quotient, gd.space, lambda y: keep.T @ y + [0, 0, 1, 0, 0, 1],
                            jac=lambda y: keep.T)
        points = [keep.T @ keep @ g + [0, 0, 1, 0, 0, 1] for g in sample_points(6, 4, seed=21)]
        seen = []  # every residual either check weighs, not only the largest
        see = Worst.see
        monkeypatch.setattr(Worst, "see", lambda self, value, /, *args, **kwargs:
                            seen.append(float(value)) or see(self, value, *args, **kwargs))

        def reports():
            seen.clear()
            d = z_weighted_double()
            pushed = dr.from_poisson(quotient, dr.pushforward_bivector(d, labels, section))
            return (dr.pushforward_dirac(gd, d, labels, section, 6,
                                         np.random.default_rng(20)).to_json(),
                    dr.is_forward_dirac(labels, d, pushed, points).to_json(), list(seen))

        solve = linalg.solve_min_norm

        def per_column(a, b):
            if np.ndim(b) == 1:
                return solve(a, b)
            solved = [solve(a, column) for column in np.asarray(b, dtype=float).T]
            return (np.column_stack([x for x, _ in solved]),
                    np.array([resid for _, resid in solved]))

        got = reports()
        monkeypatch.setattr(linalg, "solve_min_norm", per_column)
        assert reports() == got
        assert not got[0]["pass"] and got[0]["details"]["forward_dirac_residual"] > 0.1
        assert got[1]["pass"] and 0.0 < got[1]["max_residual"] <= 1e-12


class TestStackedGenerators:
    """A (k, n) stack gives (k, 2n) generator values, a (k, 2n, n) generator
    matrix and a (k, 2n, n) fiber basis, each row bit for bit its point's."""

    def test_non_constant_two_form(self):
        d = dr.from_two_form(R3, lambda x: np.array([[0.0, x[2], 0.0], [-x[2], 0.0, 1.0],
                                                      [0.0, -1.0, 0.0]]))
        x = np.array(sample_points(3, 2, seed=12))
        assert all(gen(x).shape == (2, 6) for gen in d._span.gens)
        mats, bases = d.generator_matrix(x), d.fiber_basis(x)
        assert mats.shape == (2, 6, 3) and bases.shape == (2, 6, 3)
        for mat, basis, row in zip(mats, bases, x):
            assert mat.tobytes() == d.generator_matrix(row).tobytes()
            assert mat.tobytes() == stacked_per_point(d, row).tobytes()
            assert basis.tobytes() == d.fiber_basis(row).tobytes()

    def test_characteristic_fields_of_a_stack(self):
        s = presymplectic_pair_dirac_scenario()
        x = np.array(sample_points(6, 4, seed=13))
        g0 = dr.characteristic_distribution(s.dirac, x[0])
        stacked = [gen(x) for gen in g0.gens]
        for i, row in enumerate(x):
            assert all(values[i].tobytes() == gen(row).tobytes()
                       for values, gen in zip(stacked, g0.gens))

    def test_characteristic_rank_drift_names_its_row(self):
        # graph(z dx^dy) has kernel span d/dz off z = 0 and all of R^3 on it
        d = dr.from_two_form(R3, lambda x: np.array([[0.0, x[2], 0.0], [-x[2], 0.0, 0.0],
                                                      [0.0, 0.0, 0.0]]))
        g0 = dr.characteristic_distribution(d, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(RankDrift) as exc:
            g0.gens[0](np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0], [3.0, 3.0, 0.0]]))
        assert exc.value.witness == {"at": [2.0, 2.0, 0.0]}

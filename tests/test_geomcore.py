import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folioid import geomcore as gc
from folioid.errors import FlowEscapedBox, FlowStopped, NumericalBlowup
from folioid.errors import StepSizeCollapsed
from folioid.params import DEFAULT_PARAMS
from folioid.scenarios import affine_map
from helpers import (count_calls, d_oneform, euclidean, graph_fields, identity_map,
                     lie_derivative_oneform, linear_field, pair_lie_bracket, pushforward)

R2 = euclidean(2)
R3 = euclidean(3)


class TestFlow:
    def test_constant_field(self):
        x = gc.flow(gc.constant_field(R2, [1.0, 0.0]), np.zeros(2), 1.0)
        assert np.allclose(x, [1.0, 0.0])

    def test_rotation_quarter_turn(self):
        rot = linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
        x = gc.flow(rot, np.array([1.0, 0.0]), math.pi / 2, steps=1000)
        assert np.linalg.norm(x - np.array([0.0, 1.0])) <= 1e-8

    def test_zero_time_is_identity(self):
        x0 = np.array([0.3, -0.7])
        assert np.array_equal(gc.flow(gc.constant_field(R2, [5.0, 5.0]), x0, 0.0), x0)

    def test_box_escape_carries_last_state(self):
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        with pytest.raises(FlowEscapedBox) as err:
            gc.flow(gc.constant_field(box, [1.0]), np.array([0.0]), 5.0, steps=50)
        assert err.value.last_state is not None
        assert -1.0 <= err.value.last_state[0] <= 1.0
        assert err.value.row == 0

    def test_stack_escape_names_the_lowest_row_to_leave(self):
        # rows 1 and 2 leave at the same step, backward and forward
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        field = gc.constant_field(box, [1.0])
        with pytest.raises(FlowEscapedBox) as single:
            gc.flow(field, np.array([-0.9]), -0.5)
        with pytest.raises(FlowEscapedBox) as err:
            gc.flow(field, np.array([[0.0], [-0.9], [0.9]]), [0.5, -0.5, 0.5])
        assert err.value.row == 1
        assert -0.11 <= err.value.time < -0.09
        assert err.value.time == single.value.time
        assert err.value.last_state.tobytes() == single.value.last_state.tobytes()

    def test_periodic_coordinate_wraps(self):
        circle = gc.ChartManifold(1, box=((0.0, 2 * math.pi),), periodic=(2 * math.pi,))
        x = gc.flow(gc.constant_field(circle, [1.0]), np.array([0.5]), 2 * math.pi)
        assert abs(x[0] - 0.5) <= 1e-9

    def test_blowup_detected(self):
        f = gc.VectorField(R2, lambda x: x * (np.inf if np.sum(x ** 2) > 4.0 else 1e6))
        with pytest.raises(NumericalBlowup):
            gc.flow(f, np.array([1.0, 1.0]), 50.0, steps=20)

    @pytest.mark.parametrize("value", [np.inf, 1e308], ids=["field", "step"])
    def test_stack_blowup_names_its_row(self, value):
        # a non-finite field value, or finite values whose step overflows
        f = gc.VectorField(R2, lambda x: np.array([value if x[0] > 1.0 else 1.0, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowup) as err:
            gc.flow(f, np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), 1.0)
        assert err.value.row == 1

    def test_stack_rows_equal_their_own_flows_bitwise(self):
        cylinder = gc.ChartManifold(2, box=((-5.0, 5.0), (0.0, 1.0)), periodic=(None, 1.0))
        field = gc.VectorField(cylinder, lambda x: np.array(
            [0.3 * math.sin(2 * math.pi * x[1]) - 0.1 * x[0], 1.7 + 0.4 * math.cos(x[0])]))
        starts = np.array([[0.2, 0.1], [0.2, 0.1], [-1.3, 0.85], [2.0, 0.5]])
        times = np.array([1.3, -1.3, -1.3, 1.3])
        got = gc.flow(field, starts, times)
        assert got.shape == (4, 2)
        for row, x0, t in zip(got, starts, times):
            assert row.tobytes() == gc.flow(field, x0, t).tobytes()
        forward = gc.flow(field, starts, 1.3, steps=7)
        for row, x0 in zip(forward, starts):
            assert row.tobytes() == gc.flow(field, x0, 1.3, steps=7).tobytes()

    def test_stack_rows_share_one_length_of_time(self):
        field = gc.constant_field(R2, [1.0, 0.0])
        with pytest.raises(ValueError):
            gc.flow(field, np.zeros((2, 2)), [1.0, 2.0])
        assert np.array_equal(gc.flow(field, np.ones((2, 2)), [0.0, -0.0]), np.ones((2, 2)))

    def test_semigroup_property(self):
        # times off the common step grid, so both sides use different meshes
        rot = linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
        x0 = np.array([1.0, 0.2])
        for s, t in [(0.2137, 0.4441), (1.0 / 3.0, 0.511), (0.777, 1.2923)]:
            whole = gc.flow(rot, x0, s + t)
            parts = gc.flow(rot, gc.flow(rot, x0, s), t)
            assert np.linalg.norm(whole - parts) <= 1e-7


class TestPushforward:
    def test_identity(self):
        v = np.array([2.0, -1.0])
        assert np.allclose(pushforward(identity_map(R2), np.zeros(2), v), v)

    def test_linear_sum(self):
        f = gc.SmoothMap(R2, euclidean(1), lambda x: np.array([x[0] + x[1]]))
        assert np.allclose(pushforward(f, np.array([3.0, 4.0]), [1.0, 0.0]), [1.0])

    def test_quadratic_hand_jacobian(self):
        f = gc.SmoothMap(R2, R2, lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
        out = pushforward(f, np.array([1.0, 2.0]), [1.0, 1.0])
        assert np.allclose(out, [2.0, 3.0], atol=1e-8)

    def test_analytic_jacobian_matches_differences(self):
        f = gc.SmoothMap(
            R2, R2,
            lambda x: np.array([np.sin(x[0]) * x[1], x[0] ** 2 - x[1] ** 3]),
            jac=lambda x: np.array([[np.cos(x[0]) * x[1], np.sin(x[0])],
                                    [2 * x[0], -3 * x[1] ** 2]]),
        )
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=2)
            ja, jd = f.jacobian(x), f.jacobian_fd(x)
            scale = max(1.0, float(np.abs(ja).max()))
            assert np.abs(ja - jd).max() / scale <= 1e-5

    def test_zero_dimensional_domain(self):
        f = gc.SmoothMap(euclidean(0), R2, lambda x: np.array([1.0, 2.0]))
        assert f.jacobian(np.zeros(0)).shape == (2, 0)
        # a matrix-valued function keeps its shape, with an empty derivative axis
        assert gc.central_difference(lambda x: np.eye(2), np.zeros(0), 1e-5).shape == (2, 2, 0)


def bracket(x_field, y_field, x, h=DEFAULT_PARAMS.h_fd):
    """[X, Y](x): the one row of ``lie_brackets`` of the pair."""
    return gc.lie_brackets([x_field, y_field], x, h)[0][0]


class TestBracketAndForms:
    def test_coordinate_fields_commute(self):
        ex = gc.constant_field(R2, [1, 0])
        ey = gc.constant_field(R2, [0, 1])
        assert np.allclose(bracket(ex, ey, np.array([0.3, 0.4])), 0, atol=1e-9)

    def test_x_dy_with_dx(self):
        x_dy = gc.VectorField(R2, lambda x: np.array([0.0, x[0]]))
        dx = gc.constant_field(R2, [1, 0])
        out = bracket(x_dy, dx, np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_self_bracket_vanishes(self):
        f = gc.VectorField(R2, lambda x: np.array([x[1] ** 2, x[0]]))
        assert np.linalg.norm(bracket(f, f, np.array([0.5, 0.2]))) <= 1e-8

    def test_lie_derivative_constant_pair(self):
        ex = gc.constant_field(R2, [1, 0])
        dy = gc.constant_form(R2, [0, 1])
        assert np.allclose(lie_derivative_oneform(ex, dy, np.array([1.0, 2.0])), 0,
                           atol=1e-9)

    def test_d_of_x_dy(self):
        x_dy = gc.OneForm(R2, lambda x: np.array([0.0, x[0]]))
        val = d_oneform(x_dy, np.array([0.7, -0.1]), [1.0, 0.0], [0.0, 1.0])
        assert abs(val - 1.0) <= 1e-8

    def test_d_of_dx_vanishes(self):
        dx = gc.constant_form(R2, [1, 0])
        val = d_oneform(dx, np.array([0.2, 0.3]), [1.0, 2.0], [3.0, -1.0])
        assert abs(val) <= 1e-10

    def test_lie_derivative_matches_directional_evaluation(self):
        # (L_X beta)(e_i) = X(beta(e_i)) - beta([X, e_i]) with constant e_i
        x_field = gc.VectorField(R2, lambda x: np.array([x[1], x[0] * x[1]]))
        beta = gc.OneForm(R2, lambda x: np.array([x[0] ** 2, x[0] + x[1]]))
        x = np.array([0.4, -0.3])
        got = lie_derivative_oneform(x_field, beta, x)
        h = 1e-6
        for i, e in enumerate(np.eye(2)):
            def pairing(y):
                return float(beta(y) @ e)
            directional = (pairing(x + h * x_field(x)) - pairing(x - h * x_field(x))) / (2 * h)
            lie = bracket(x_field, gc.constant_field(R2, e), x)
            assert abs(got[i] - (directional - float(beta(x) @ lie))) <= 1e-5


def poly_field(coeffs):
    """Vector field on R^2 with quadratic components from a (2, 6) table."""
    c = np.asarray(coeffs, dtype=float)

    def fn(x):
        basis = np.array([1.0, x[0], x[1], x[0] ** 2, x[0] * x[1], x[1] ** 2])
        return c @ basis

    return gc.VectorField(R2, fn)


coeff = st.floats(-2.0, 2.0, allow_nan=False)
coeff_table = st.lists(st.lists(coeff, min_size=6, max_size=6), min_size=2, max_size=2)


class TestBracketProperties:
    @given(coeff_table, coeff_table)
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, cx, cy):
        x_field, y_field = poly_field(cx), poly_field(cy)
        p = np.array([0.3, -0.6])
        lhs = bracket(x_field, y_field, p)
        rhs = bracket(y_field, x_field, p)
        assert np.abs(lhs + rhs).max() <= 1e-5

    @given(coeff_table, coeff_table, coeff_table)
    @settings(max_examples=25, deadline=None)
    def test_jacobi(self, cx, cy, cz):
        fields = [poly_field(c) for c in (cx, cy, cz)]
        p = np.array([0.2, 0.5])

        def bracket_field(a, b):
            return gc.VectorField(R2, lambda x: bracket(a, b, x))

        total = np.zeros(2)
        for i in range(3):
            a, b, c = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
            total = total + bracket(a, bracket_field(b, c), p)
        assert np.abs(total).max() <= 1e-5


class TestAllPairs:
    @pytest.mark.parametrize("h", [1e-5, 1e-3, 1e-1])
    def test_rows_equal_the_per_pair_reference_bitwise(self, h):
        R4 = euclidean(4)
        fields = graph_fields(R4) + [gc.VectorField(R4, lambda x: np.array(
            [x[0] * x[1], math.exp(0.3 * x[2]), x[3] ** 3, math.sin(x[0] + x[3])]))]
        for x in np.random.default_rng(5).uniform(-0.5, 0.5, (50, 4)):
            rows, values, jacobians = gc.lie_brackets(fields, x, h)
            pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
            assert rows.shape == (6, 4)
            for row, (i, j) in zip(rows, pairs):
                assert row.tobytes() == pair_lie_bracket(fields[i], fields[j], x, h).tobytes()
            assert values.shape == (4, 4, 1)
            assert values.tobytes() == np.array([f(x) for f in fields]).tobytes()
            assert jacobians.tobytes() == np.array([f.jacobian(x, h) for f in fields]).tobytes()

    def test_each_field_read_once(self, monkeypatch):
        fields = [counted(poly_field(np.full((2, 6), c))) for c in (0.5, -1.0, 2.0)]
        jacobians = count_calls(monkeypatch, gc.VectorField, "jacobian")
        rows = gc.lie_brackets(fields, np.array([0.3, 0.1]))[0]
        assert rows.shape == (3, 2)
        assert [f.evals for f in fields] == [1 + 4, 1 + 4, 1 + 4]  # the value, and 2n differences
        assert len(jacobians) == 3

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_fields_give_no_rows(self, k):
        rows, values, jacobians = gc.lie_brackets([gc.constant_field(R2, [1.0, 0.0])] * k,
                                                  np.zeros(2))
        assert rows.shape == (0, 2) and values.shape == (k, 2, 1)
        assert jacobians.shape == (k, 2, 2)

    def test_pair_index_built_once_and_read_only(self):
        index = gc.pairs(4)
        assert gc.pairs(4) is index and not index.flags.writeable
        assert index.T.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert gc.pairs(1).shape == (2, 0)

    def test_non_finite_bracket_raises(self):
        # DX Y = (1e300 * 1e300, 0) overflows while both fields stay finite
        fields = [gc.VectorField(R2, lambda x: np.array([1e300 * x[0], 0.0])),
                  gc.VectorField(R2, lambda x: np.array([1e300, x[0]]))]
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowup,
                                                       match="bracket non-finite"):
            gc.lie_brackets(fields, np.array([1.0, 1.0]))


def counted(field):
    """The same field, counting its evaluations in ``.evals``."""
    def fn(x):
        wrapped.evals += 1
        return field(x)
    wrapped = gc.VectorField(field.domain, fn, name=field.name)
    wrapped.evals = 0
    return wrapped


class TestFlowControlled:
    def test_rotation_error_tracks_tol(self):
        rot = linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
        rk4_evals = 4 * math.ceil(math.pi / 2 * 200)
        for tol in (1e-6, 1e-8, 1e-10):
            field = counted(rot)
            x = gc.flow(field, np.array([1.0, 0.0]), math.pi / 2, tol=tol)
            err = float(np.linalg.norm(x - np.array([0.0, 1.0])))
            assert tol / 100 <= err <= 2 * tol
            assert field.evals < rk4_evals

    def test_constant_field_takes_at_most_two_steps(self):
        # the first step costs 7 evaluations and every later one 6
        field = counted(gc.constant_field(R2, [1.0, -2.0]))
        x = gc.flow_controlled(field, np.array([0.5, 0.5]), 3.0, 1e-10)
        assert np.allclose(x, [3.5, -5.5], rtol=0, atol=1e-12)
        assert field.evals <= 7 + 6

    def test_backward_time_and_periodic_wrap(self):
        circle = gc.ChartManifold(1, box=((0.0, 2 * math.pi),), periodic=(2 * math.pi,))
        x = gc.flow(gc.constant_field(circle, [1.0]), np.array([0.5]), -7.5, tol=1e-10)
        assert abs(x[0] - (0.5 - 7.5) % (2 * math.pi)) <= 1e-9

    def test_box_escape_carries_last_state(self):
        box = gc.ChartManifold(1, box=((-1.0, 1.0),))
        with pytest.raises(FlowEscapedBox) as err:
            gc.flow(gc.constant_field(box, [1.0]), np.array([0.0]), 5.0, tol=1e-8)
        assert -1.0 <= err.value.last_state[0] <= 1.0

    def test_blowup_detected(self):
        # finite field values whose step overflows the state
        huge = gc.constant_field(euclidean(1), [1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowup):
            gc.flow(huge, np.array([1e308]), 10.0, tol=1e-8)

    def test_step_collapse_raises(self):
        # x' = x^2 from 1 reaches infinity at t = 1: the steps shrink
        # towards it until they fall below the floor
        square = gc.VectorField(euclidean(1), lambda x: x ** 2)
        with pytest.raises(StepSizeCollapsed) as err:
            gc.flow(square, np.array([1.0]), 2.0, tol=1e-8)
        assert 0.99 < err.value.time < 1.0
        assert np.isfinite(err.value.last_state).all()

    def test_stopped_flows_share_one_base(self):
        # both carry last_state and time; a collapsed step is still a blowup
        assert issubclass(FlowEscapedBox, FlowStopped)
        assert issubclass(StepSizeCollapsed, FlowStopped)
        assert issubclass(StepSizeCollapsed, NumericalBlowup)

    def test_bad_arguments(self):
        field = gc.constant_field(R2, [1.0, 0.0])
        with pytest.raises(ValueError):
            gc.flow(field, np.zeros(2), 1.0, steps=10, tol=1e-8)
        with pytest.raises(ValueError, match="one point"):
            gc.flow(field, np.zeros((3, 2)), 1.0, tol=1e-8)
        with pytest.raises(ValueError):
            gc.flow_controlled(field, np.zeros(2), 1.0, 0.0)

    def test_semigroup_property(self):
        rot = linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
        x0 = np.array([1.0, 0.2])
        for s, t in [(0.2137, 0.4441), (1.0 / 3.0, 0.511), (0.777, 1.2923)]:
            whole = gc.flow(rot, x0, s + t, tol=1e-10)
            parts = gc.flow(rot, gc.flow(rot, x0, s, tol=1e-10), t, tol=1e-10)
            assert np.linalg.norm(whole - parts) <= 1e-8

    def test_transport_work_guard(self, monkeypatch):
        # one leafwise transport on the pair scenario: its lifted field is
        # constant, so error control needs one step where fixed-step RK4
        # at 200 steps per unit made 800 evaluations
        from folioid import leafspace as ls
        from folioid.scenarios import pair_scenario

        s = pair_scenario()
        calls = []
        lift = ls.lift_at_point
        monkeypatch.setattr(ls, "lift_at_point",
                            lambda *args: calls.append(1) or lift(*args))
        h = ls.transport_to_target(s.groupoid, s.dist, s.chart,
                                   np.array([0.0, 1.0, 0.0, 2.0]), np.array([3.0, 1.0]))
        assert np.abs(h - np.array([3.0, 1.0, 0.0, 2.0])).max() <= 1e-9
        assert 0 < len(calls) <= 100


class TestDifferencedJacobian:
    @pytest.mark.parametrize("cls", [gc.VectorField, gc.OneForm])
    def test_differenced_jacobian_equals_central_difference(self, cls):
        def fn(x):
            return np.array([x[0] * x[1], math.sin(x[0]) + x[1] ** 3])

        field = cls(R2, fn)
        for point in (np.array([0.3, -1.2]), np.array([0.7, 0.4])):
            expected = gc.central_difference(cls(R2, fn), point, DEFAULT_PARAMS.h_fd)
            assert field.jacobian(point).tobytes() == expected.tobytes()

    def test_step_taken_per_call(self):
        # the central difference of x^3 at step h is exactly 3x^2 + h^2
        field = gc.VectorField(euclidean(1), lambda x: x ** 3)
        x = np.array([0.5])
        assert abs(field.jacobian(x, 0.5)[0, 0] - 1.0) <= 1e-15
        assert abs(field.jacobian(x)[0, 0] - 0.75) <= 1e-9
        assert abs(field.jacobian(x, 0.5)[0, 0] - 1.0) <= 1e-15


class TestJacobianMemo:
    @pytest.mark.parametrize("cls", [gc.VectorField, gc.OneForm])
    @pytest.mark.parametrize("jac", [None, gc.zero_jacobian(2)], ids=["differenced", "exact"])
    def test_constant_jacobian_is_a_kept_exact_zero(self, cls, jac):
        vec = np.array([1.5, -0.0])
        field = cls(R2, lambda x: vec, jac=jac, value=vec)
        # the zero that the exact Jacobian or differences of a constant give
        expected = gc.SmoothMap.jacobian(field, np.zeros(2), DEFAULT_PARAMS.h_fd)

        def forbidden(x):
            raise AssertionError("a constant field's Jacobian was computed per point")

        field.fn = field.jac = forbidden
        got = field.jacobian(np.zeros(2))
        assert got.tobytes() == expected.tobytes() and not got.flags.writeable
        assert field.jacobian(np.array([0.3, -1.2]), 1e-3) is got


class TestValueMemo:
    @pytest.mark.parametrize("cls", [gc.VectorField, gc.OneForm])
    def test_value_equals_fresh_evaluation_read_only(self, cls):
        calls = []

        def fn(x):
            calls.append(1)
            return np.array([x[0] * x[1], math.sin(x[0]) + x[1] ** 3])

        field = cls(R2, fn)
        x, y = np.array([0.3, -1.2]), np.array([0.7, 0.4])
        for point in (x, y, x):
            got = field(point)
            assert got.tobytes() == np.asarray(fn(point), dtype=float).tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0
        before = len(calls)
        assert field(x.copy()) is got
        assert len(calls) == before

    def test_jacobian_keeps_value(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.array([x[0] ** 2, x[0] * x[1]])

        field = gc.VectorField(R2, fn)
        x = np.array([0.5, -0.25])
        value = field(x)
        field.jacobian(x)  # differences at x +- h e_i, through fn
        before = len(calls)
        assert field(x) is value
        assert len(calls) == before

    def test_value_does_not_freeze_callers_array(self):
        field = gc.VectorField(R2, lambda x: x)
        x = np.array([1.0, 2.0])
        field(x)
        x[0] = 3.0
        assert x.flags.writeable

    def test_blowup_still_raised(self):
        field = gc.VectorField(R2, lambda x: np.array([np.inf, 0.0]))
        for _ in range(2):
            with pytest.raises(NumericalBlowup):
                field(np.zeros(2))

    @pytest.mark.parametrize("build", [
        lambda: gc.constant_field(R2, [np.inf, 0.0]),
        lambda: gc.constant_form(R2, [0.0, np.nan]),
        lambda: gc.VectorField(R2, lambda x: np.array([-np.inf, 1.0]),
                               value=np.array([-np.inf, 1.0])),
    ], ids=["constant_field", "constant_form", "given_value"])
    def test_non_finite_constant_keeps_no_value_and_raises(self, build):
        field = build()
        assert field.value is None
        for _ in range(2):
            with pytest.raises(NumericalBlowup):
                field(np.zeros(2))

    @pytest.mark.parametrize("build", [gc.constant_field, gc.constant_form])
    @pytest.mark.parametrize("vec", [[1.0, -2.0, 0.0], [-0.0, 0.5, 1e-300]])
    def test_constant_value_kept_without_calling_fn(self, build, vec):
        field = build(R3, vec)
        expected = np.asarray(field.fn(np.zeros(3)), dtype=float)

        def forbidden(x):
            raise AssertionError("a constant field evaluated fn")

        field.fn = forbidden
        for x in (np.zeros(3), np.array([0.3, -1.2, 4.0]), np.zeros(3)):
            got = field(x)
            assert got.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(vec))
            assert got is field.value
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0


class TestExactJacobians:
    @pytest.mark.parametrize("field", [
        gc.constant_field(R3, [1.0, -2.0, 0.0]),
        gc.constant_form(R3, [0.0, 0.5, -3.0]),
    ], ids=["constant_field", "constant_form"])
    def test_zero_jacobian_equals_differences(self, field):
        x = np.array([0.3, -0.0, 1.7])
        exact = field.jacobian(x)
        diff = gc.central_difference(lambda z: np.asarray(field.fn(z), dtype=float),
                                     x, DEFAULT_PARAMS.h_fd)
        assert np.array_equal(exact, diff)
        assert np.array_equal(np.signbit(exact), np.signbit(diff))

    def test_constant_field_never_differenced(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "central_difference",
                            lambda *args: calls.append(1))
        gc.constant_field(R2, [1.0, 0.0]).jacobian(np.zeros(2))
        gc.constant_form(R2, [1.0, 0.0]).jacobian(np.zeros(2))
        assert calls == []


class TestStacks:
    """A (k, n) stack of points through one SmoothMap call."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(["one", "n", "other"]),
           st.integers(0, 2**32 - 1))
    def test_affine_stack_equals_rows_bitwise(self, m, n, which, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
        k = {"one": 1, "n": n, "other": 7}[which]
        x = rng.standard_normal((k, n))
        f = affine_map(gc.ChartManifold(n), gc.ChartManifold(m), a)
        got = f(x)
        assert got.shape == (k, m)
        assert got.tobytes() == np.array([a @ row for row in x]).reshape(k, m).tobytes()
        jac = f.jacobian(x)
        assert jac.shape == (k, m, n)
        assert all(np.array_equal(j, a) for j in jac)

    def test_per_point_map_is_called_row_by_row(self):
        seen = []

        def fn(x):
            seen.append(x.shape)
            return np.array([x[0] * x[1], math.sin(x[0])])

        f = gc.SmoothMap(R2, R2, fn)
        x = np.array([[0.3, -1.2], [0.7, 0.4], [1.5, 2.0]])
        got = f(x)
        assert seen == [(2,)] * 3
        assert got.tobytes() == np.array([fn(row) for row in x]).tobytes()
        jac = f.jacobian(x)
        assert jac.shape == (3, 2, 2)
        assert all(np.array_equal(j, f.jacobian(row)) for j, row in zip(jac, x))
        assert f(np.zeros((0, 2))).shape == (0, 2)

    def test_blowup_names_the_first_bad_row(self):
        f = gc.SmoothMap(R2, R2, lambda x: x if x[0] < 1.0 else np.array([np.nan, 0.0]))
        with pytest.raises(NumericalBlowup, match=r"\[2\. 5\.\]"):
            f(np.array([[0.0, 1.0], [2.0, 5.0], [3.0, 6.0]]))

    def test_blowup_inside_a_per_point_map_names_its_row(self):
        inner = gc.SmoothMap(R2, R2, lambda x: x / x[0])
        f = gc.SmoothMap(R2, R2, lambda x: inner(x))
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(NumericalBlowup) as err:
            f(np.array([[1.0, 1.0], [2.0, 5.0], [0.0, 6.0]]))
        assert err.value.row == 2

    def test_constant_field_broadcasts_over_a_stack(self):
        field = gc.constant_field(R2, [1.0, -2.0])
        x = np.zeros((3, 2))
        assert np.array_equal(field(x), np.tile([1.0, -2.0], (3, 1)))
        assert np.array_equal(field.jacobian(x), np.zeros((3, 2, 2)))


class TestListStacks:
    """A nested list of points is a stack, as the array of it is."""

    @pytest.mark.parametrize("as_stack", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("build", [
        lambda: gc.constant_field(R2, [1.0, -2.0]),
        lambda: gc.VectorField(R2, lambda x: np.array([x[0] * x[1], math.sin(x[0])]))],
        ids=["constant", "varying"])
    def test_field_and_jacobian_of_a_stack(self, build, as_stack):
        field = build()
        rows = [[0.0, 0.0], [1.0, 1.0]]
        got, jac = field(as_stack(rows)), field.jacobian(as_stack(rows))
        assert got.shape == (2, 2) and jac.shape == (2, 2, 2)
        for value, j, row in zip(got, jac, rows):
            assert value.tobytes() == field(np.array(row)).tobytes()
            assert j.tobytes() == field.jacobian(np.array(row)).tobytes()
        assert field([0.5, 0.25]).tobytes() == field(np.array([0.5, 0.25])).tobytes()


class TestNonFiniteStart:
    @pytest.mark.parametrize("kwargs", [dict(t_final=1.0), dict(t_final=1.0, tol=1e-8),
                                        dict(t_final=0.0)], ids=["rk4", "tol", "t0"])
    @pytest.mark.parametrize("start", [[np.nan, 0.0], [0.0, np.inf]], ids=["nan", "inf"])
    def test_flow_from_a_non_finite_point_escapes(self, kwargs, start):
        with pytest.raises(FlowEscapedBox):
            gc.flow(gc.constant_field(R2, [1.0, 0.0]), start, **kwargs)

    def test_periodic_coordinate_must_be_finite(self):
        circle = gc.ChartManifold(2, periodic=(2.0, None))
        assert circle.contains(np.array([5.0, 0.0]))
        assert not circle.contains(np.array([np.nan, 0.0]))
        with pytest.raises(FlowEscapedBox):
            gc.flow(gc.constant_field(circle, [1.0, 0.0]), [np.nan, 0.0], 0.5)


def test_constant_field_name_lists_plain_floats():
    assert gc.constant_field(R2, [1, 0]).name == "const(1.0, 0.0)"

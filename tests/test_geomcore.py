import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folioid import geomcore as gc
from folioid.errors import FlowEscapedBox, NumericalBlowup
from folioid.errors import StepSizeCollapsed

R2 = gc.euclidean(2)
R3 = gc.euclidean(3)


class TestFlow:
    def test_constant_field(self):
        x = gc.flow(gc.constant_field(R2, [1.0, 0.0]), np.zeros(2), 1.0)
        assert np.allclose(x, [1.0, 0.0])

    def test_rotation_quarter_turn(self):
        rot = gc.linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
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

    def test_periodic_coordinate_wraps(self):
        circle = gc.ChartManifold(1, box=((0.0, 2 * math.pi),), periodic=(2 * math.pi,))
        x = gc.flow(gc.constant_field(circle, [1.0]), np.array([0.5]), 2 * math.pi)
        assert abs(x[0] - 0.5) <= 1e-9

    def test_blowup_detected(self):
        f = gc.VectorField(R2, lambda x: x * (np.inf if np.sum(x ** 2) > 4.0 else 1e6))
        with pytest.raises(NumericalBlowup):
            gc.flow(f, np.array([1.0, 1.0]), 50.0, steps=20)

    def test_semigroup_property(self):
        # times off the common step grid, so both sides use different meshes
        rot = gc.linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
        x0 = np.array([1.0, 0.2])
        for s, t in [(0.2137, 0.4441), (1.0 / 3.0, 0.511), (0.777, 1.2923)]:
            whole = gc.flow(rot, x0, s + t)
            parts = gc.flow(rot, gc.flow(rot, x0, s), t)
            assert np.linalg.norm(whole - parts) <= 1e-7


class TestPushforward:
    def test_identity(self):
        v = np.array([2.0, -1.0])
        assert np.allclose(gc.pushforward(gc.identity_map(R2), np.zeros(2), v), v)

    def test_linear_sum(self):
        f = gc.SmoothMap(R2, gc.euclidean(1), lambda x: np.array([x[0] + x[1]]))
        assert np.allclose(gc.pushforward(f, np.array([3.0, 4.0]), [1.0, 0.0]), [1.0])

    def test_quadratic_hand_jacobian(self):
        f = gc.SmoothMap(R2, R2, lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
        out = gc.pushforward(f, np.array([1.0, 2.0]), [1.0, 1.0])
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


class TestBracketAndForms:
    def test_coordinate_fields_commute(self):
        ex = gc.constant_field(R2, [1, 0])
        ey = gc.constant_field(R2, [0, 1])
        assert np.allclose(gc.lie_bracket(ex, ey, np.array([0.3, 0.4])), 0, atol=1e-9)

    def test_x_dy_with_dx(self):
        x_dy = gc.VectorField(R2, lambda x: np.array([0.0, x[0]]))
        dx = gc.constant_field(R2, [1, 0])
        out = gc.lie_bracket(x_dy, dx, np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_self_bracket_vanishes(self):
        f = gc.VectorField(R2, lambda x: np.array([x[1] ** 2, x[0]]))
        assert np.linalg.norm(gc.lie_bracket(f, f, np.array([0.5, 0.2]))) <= 1e-8

    def test_lie_derivative_constant_pair(self):
        ex = gc.constant_field(R2, [1, 0])
        dy = gc.constant_form(R2, [0, 1])
        assert np.allclose(gc.lie_derivative_oneform(ex, dy, np.array([1.0, 2.0])), 0,
                           atol=1e-9)

    def test_d_of_x_dy(self):
        x_dy = gc.OneForm(R2, lambda x: np.array([0.0, x[0]]))
        val = gc.d_oneform(x_dy, np.array([0.7, -0.1]), [1.0, 0.0], [0.0, 1.0])
        assert abs(val - 1.0) <= 1e-8

    def test_d_of_dx_vanishes(self):
        dx = gc.constant_form(R2, [1, 0])
        val = gc.d_oneform(dx, np.array([0.2, 0.3]), [1.0, 2.0], [3.0, -1.0])
        assert abs(val) <= 1e-10

    def test_lie_derivative_matches_directional_evaluation(self):
        # (L_X beta)(e_i) = X(beta(e_i)) - beta([X, e_i]) with constant e_i
        x_field = gc.VectorField(R2, lambda x: np.array([x[1], x[0] * x[1]]))
        beta = gc.OneForm(R2, lambda x: np.array([x[0] ** 2, x[0] + x[1]]))
        x = np.array([0.4, -0.3])
        got = gc.lie_derivative_oneform(x_field, beta, x)
        h = 1e-6
        for i, e in enumerate(np.eye(2)):
            def pairing(y):
                return float(beta(y) @ e)
            directional = (pairing(x + h * x_field(x)) - pairing(x - h * x_field(x))) / (2 * h)
            bracket = gc.lie_bracket(x_field, gc.constant_field(R2, e), x)
            assert abs(got[i] - (directional - float(beta(x) @ bracket))) <= 1e-5


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
        lhs = gc.lie_bracket(x_field, y_field, p)
        rhs = gc.lie_bracket(y_field, x_field, p)
        assert np.abs(lhs + rhs).max() <= 1e-5

    @given(coeff_table, coeff_table, coeff_table)
    @settings(max_examples=25, deadline=None)
    def test_jacobi(self, cx, cy, cz):
        fields = [poly_field(c) for c in (cx, cy, cz)]
        p = np.array([0.2, 0.5])

        def bracket_field(a, b):
            return gc.VectorField(R2, lambda x: gc.lie_bracket(a, b, x))

        total = np.zeros(2)
        for i in range(3):
            a, b, c = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
            total = total + gc.lie_bracket(a, bracket_field(b, c), p)
        assert np.abs(total).max() <= 1e-5


def counted(field):
    """The same field, counting its evaluations in ``.evals``."""
    def fn(x):
        wrapped.evals += 1
        return field(x)
    wrapped = gc.VectorField(field.base, fn, name=field.name)
    wrapped.evals = 0
    return wrapped


class TestFlowControlled:
    def test_rotation_error_tracks_tol(self):
        rot = gc.linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
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
        huge = gc.constant_field(gc.euclidean(1), [1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericalBlowup):
            gc.flow(huge, np.array([1e308]), 10.0, tol=1e-8)

    def test_step_collapse_raises(self):
        # x' = x^2 from 1 reaches infinity at t = 1: the steps shrink
        # towards it until they fall below the floor
        square = gc.VectorField(gc.euclidean(1), lambda x: x ** 2)
        with pytest.raises(StepSizeCollapsed) as err:
            gc.flow(square, np.array([1.0]), 2.0, tol=1e-8)
        assert 0.99 < err.value.time < 1.0
        assert np.isfinite(err.value.last_state).all()

    def test_bad_arguments(self):
        field = gc.constant_field(R2, [1.0, 0.0])
        with pytest.raises(ValueError):
            gc.flow(field, np.zeros(2), 1.0, steps=10, tol=1e-8)
        with pytest.raises(ValueError):
            gc.flow_controlled(field, np.zeros(2), 1.0, 0.0)

    def test_semigroup_property(self):
        rot = gc.linear_field(R2, [[0.0, -1.0], [1.0, 0.0]])
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


class TestJacobianMemo:
    @pytest.mark.parametrize("cls", [gc.VectorField, gc.OneForm])
    def test_last_point_kept_read_only(self, cls):
        calls = []

        def fn(x):
            calls.append(1)
            return np.array([x[0] * x[1], math.sin(x[0]) + x[1] ** 3])

        field = cls(R2, fn)
        x, y = np.array([0.3, -1.2]), np.array([0.7, 0.4])
        for point in (x, y, x):
            got = field.jacobian(point)
            assert np.array_equal(got, gc.central_difference(cls(R2, fn), point, field.h_fd))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
        before = len(calls)
        again = field.jacobian(x.copy())
        assert len(calls) == before
        assert again is got

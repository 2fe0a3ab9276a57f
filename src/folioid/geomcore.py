"""Single-chart manifolds, smooth maps, vector fields and Cartan calculus.

Everything works in one global chart: a box in R^n whose coordinates may
individually be periodic.  Derivatives fall back to central finite
differences when no analytic Jacobian is supplied.  A vector field or
one-form keeps its Jacobian at the last point it was differentiated at,
so the brackets of many generator pairs at one point difference each
generator once; this assumes every field's ``fn`` is a pure function of
x.  Flows use classical fixed-step RK4 with a box guard on every step,
or, given a tolerance, the error-controlled Dormand-Prince 5(4) pair
(Dormand & Prince 1980), whose box guard sees only the accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FlowEscapedBox, NumericalBlowup, StepSizeCollapsed
from .params import DEFAULT_PARAMS

Point = np.ndarray


@dataclass(frozen=True)
class ChartManifold:
    """A box chart: dimension, per-coordinate bounds, optional periods.

    ``box[i] = (lo, hi)`` with ``lo < hi`` (infinities allowed); a non-None
    ``periodic[i]`` is the period length of coordinate i.
    """

    dim: int
    box: tuple = None
    periodic: tuple = None

    def __post_init__(self):
        box = self.box
        if box is None:
            box = tuple((-math.inf, math.inf) for _ in range(self.dim))
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        periodic = self.periodic
        if periodic is None:
            periodic = tuple(None for _ in range(self.dim))
        periodic = tuple(None if p is None else float(p) for p in periodic)
        if len(box) != self.dim or len(periodic) != self.dim:
            raise ValueError("box and periodic flags must match dim")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"empty interval ({lo}, {hi}) in box")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "periodic", periodic)

    def wrap(self, x: Point) -> Point:
        """Wrap periodic coordinates into [lo, lo + period)."""
        x = np.array(x, dtype=float)
        for i, period in enumerate(self.periodic):
            if period is not None:
                lo = self.box[i][0] if math.isfinite(self.box[i][0]) else 0.0
                x[i] = lo + (x[i] - lo) % period
        return x

    def contains(self, x: Point, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        for i, (lo, hi) in enumerate(self.box):
            if self.periodic[i] is not None:
                continue
            if x[i] < lo - tol or x[i] > hi + tol:
                return False
        return True


def euclidean(dim: int) -> ChartManifold:
    return ChartManifold(dim)


class SmoothMap:
    """A map between chart manifolds with optional analytic Jacobian.

    When ``jac`` is absent the Jacobian is the central finite difference
    with step ``h_fd``; when present it is trusted but can be audited
    against differences with :meth:`jacobian_fd`.
    """

    def __init__(
        self,
        domain: ChartManifold,
        codomain: ChartManifold,
        fn: Callable[[Point], Point],
        jac: Optional[Callable[[Point], np.ndarray]] = None,
        h_fd: float = DEFAULT_PARAMS.h_fd,
        name: str = "",
    ):
        self.domain = domain
        self.codomain = codomain
        self.fn = fn
        self.jac = jac
        self.h_fd = float(h_fd)
        self.name = name

    def __call__(self, x: Point) -> Point:
        y = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.isfinite(y).all():
            raise NumericalBlowup(f"map {self.name or '<anon>'} returned non-finite values at {x}")
        return y

    def jacobian(self, x: Point) -> np.ndarray:
        if self.jac is not None:
            j = np.asarray(self.jac(np.asarray(x, dtype=float)), dtype=float)
            if j.shape != (self.codomain.dim, self.domain.dim):
                raise ValueError(
                    f"jacobian of {self.name or '<anon>'} has shape {j.shape}, "
                    f"expected {(self.codomain.dim, self.domain.dim)}"
                )
            return j
        return self.jacobian_fd(x)

    def jacobian_fd(self, x: Point) -> np.ndarray:
        if self.domain.dim == 0:
            return np.zeros((self.codomain.dim, 0))
        return central_difference(self, x, self.h_fd)


def central_difference(fn: Callable[[Point], np.ndarray], x: Point,
                       h: float) -> np.ndarray:
    """Central differences of ``fn`` at x with step h, one per coordinate.

    The partial derivative along coordinate i lands on the last axis, so a
    vector-valued ``fn`` gives its Jacobian matrix and a matrix-valued one
    gives d_i fn(x) at ``[..., i]``.
    """
    x = np.asarray(x, dtype=float)
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * h) for e in h * np.eye(x.size)],
                    axis=-1)


def identity_map(m: ChartManifold) -> SmoothMap:
    return SmoothMap(m, m, lambda x: np.array(x, dtype=float),
                     jac=lambda x: np.eye(m.dim), name="id")


class VectorField:
    """A tangent-vector assignment on a chart manifold.

    ``fn`` must be a pure function of x: the Jacobian at the last point is
    kept, keyed by that point's float64 bytes, and returned read-only while
    ``jacobian`` is asked again at the same point.  Every builtin field is
    pure; the leafwise walk and transport fields close over a direction
    fixed when they are built, and are built anew for each flow.
    """

    def __init__(self, base: ChartManifold, fn: Callable[[Point], Point],
                 h_fd: float = DEFAULT_PARAMS.h_fd, name: str = ""):
        self.base = base
        self.fn = fn
        self.h_fd = float(h_fd)
        self.name = name
        self._jac_key = None
        self._jac = None

    def __call__(self, x: Point) -> Point:
        v = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.isfinite(v).all():
            raise NumericalBlowup(
                f"{type(self).__name__} {self.name or '<anon>'} non-finite at {x}")
        return v

    def jacobian(self, x: Point) -> np.ndarray:
        return self._memo_jacobian(x)

    def _memo_jacobian(self, x: Point) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != self._jac_key:
            jac = central_difference(self, x, self.h_fd)
            jac.flags.writeable = False
            self._jac_key, self._jac = key, jac
        return self._jac


class OneForm(VectorField):
    """A covector assignment on a chart manifold.

    Evaluated and differentiated exactly like a vector field, with the same
    one-point Jacobian memo; the subclass only keeps the two roles apart in
    signatures and in per-method profiles, which is why ``jacobian`` is
    restated here.
    """

    def jacobian(self, x: Point) -> np.ndarray:
        return self._memo_jacobian(x)


def constant_field(base: ChartManifold, vec: Sequence[float], name: str = "") -> VectorField:
    v = np.asarray(vec, dtype=float).copy()
    return VectorField(base, lambda x: v, name=name or f"const{tuple(v)}")


def constant_form(base: ChartManifold, cov: Sequence[float], name: str = "") -> OneForm:
    a = np.asarray(cov, dtype=float).copy()
    return OneForm(base, lambda x: a, name=name)


def linear_field(base: ChartManifold, mat, name: str = "") -> VectorField:
    a = np.asarray(mat, dtype=float).copy()
    return VectorField(base, lambda x: a @ x, name=name)


def flow(x_field: VectorField, x0: Point, t_final: float,
         steps: Optional[int] = None,
         steps_per_unit: int = DEFAULT_PARAMS.rk4_steps_per_unit,
         tol: Optional[float] = None) -> Point:
    """Endpoint of the integral curve of ``x_field`` from ``x0``.

    By default classical RK4 with ``steps`` fixed steps, or
    ``steps_per_unit`` per unit time.  With ``tol`` the curve is integrated
    by :func:`flow_controlled` instead.  Periodic coordinates are wrapped
    after every step; leaving the box on a non-periodic coordinate raises
    :class:`FlowEscapedBox` carrying the last valid state.
    """
    if tol is not None:
        if steps is not None:
            raise ValueError("give steps or tol, not both")
        return flow_controlled(x_field, x0, t_final, tol)
    x = _start(x_field, x0)
    if t_final == 0.0:
        return x
    if steps is None:
        steps = max(1, int(math.ceil(abs(t_final) * steps_per_unit)))
    if steps <= 0:
        raise ValueError("steps must be positive")
    h = t_final / steps
    t = 0.0
    for _ in range(steps):
        k1 = x_field(x)
        k2 = x_field(x + 0.5 * h * k1)
        k3 = x_field(x + 0.5 * h * k2)
        k4 = x_field(x + h * k3)
        x = _accept(x_field, x, x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t, h)
        t += h
    return x


# Dormand & Prince (1980) 5(4): stage rows, fifth-order weights (which are
# also the seventh stage's row, so that stage is the next step's first),
# and fifth- minus fourth-order weights over all seven stages.
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
))
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# a step shorter than |t_final| / _DP_MAX_STEPS counts as a collapse
_DP_MAX_STEPS = 100_000


def flow_controlled(x_field: VectorField, x0: Point, t_final: float,
                    tol: float) -> Point:
    """Endpoint of the integral curve of ``x_field`` by Dormand-Prince 5(4).

    Each step's local error, estimated by the embedded fourth-order
    solution, must stay within ``tol * (1 + |x|)`` in every coordinate;
    steps that miss are retried shorter, and the next step is sized from
    the estimate.  The first step tries the whole interval, so a constant
    field takes one step.  Periodic coordinates are wrapped and the box is
    checked on every accepted step only, so an excursion between accepted
    states goes unseen.  Raises :class:`NumericalBlowup` on non-finite
    values, :class:`FlowEscapedBox` with the last accepted state, and
    :class:`StepSizeCollapsed` when the controller asks for a step shorter
    than ``|t_final| / 100000``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = _start(x_field, x0)
    if t_final == 0.0:
        return x
    span = abs(t_final)
    sign = math.copysign(1.0, t_final)
    floor = span / _DP_MAX_STEPS
    stages = np.empty((7, x.size))
    stages[0] = x_field(x)
    t = 0.0
    h = span
    grow = 5.0
    while True:
        final = h >= span - t
        if final:
            h = span - t
        dt = sign * h
        for i, row in enumerate(_DP_A, start=1):
            stages[i] = x_field(x + dt * (row @ stages[:i]))
        x_next = x + dt * (_DP_B @ stages[:6])
        if not np.isfinite(x_next).all():
            raise NumericalBlowup(
                f"flow of {x_field.name or '<anon>'} blew up at t={sign * t}")
        stages[6] = x_field(x_next)
        scale = tol * (1.0 + np.maximum(np.abs(x), np.abs(x_next)))
        err = float(np.max(np.abs(dt * (_DP_E @ stages)) / scale))
        if err <= 1.0:
            x = _accept(x_field, x, x_next, sign * t, dt)
            if final:
                return x
            t += h
            stages[0] = stages[6]
            h *= min(grow, 0.9 * err ** -0.2) if err > 0.0 else grow
            grow = 5.0
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
            grow = 1.0
        if h < floor:
            raise StepSizeCollapsed(
                f"flow of {x_field.name or '<anon>'} needs steps below {floor:.3e} "
                f"at t={sign * t}", last_state=x, time=sign * t)


def _start(x_field: VectorField, x0: Point) -> Point:
    x = x_field.base.wrap(np.asarray(x0, dtype=float))
    if not x_field.base.contains(x):
        raise FlowEscapedBox("initial point outside box", last_state=x, time=0.0)
    return x


def _accept(x_field: VectorField, x: Point, x_next: Point, t: float, h: float) -> Point:
    """``x_next`` wrapped, after the blow-up and box guards; x is the last valid state."""
    if not np.isfinite(x_next).all():
        raise NumericalBlowup(f"flow of {x_field.name or '<anon>'} blew up at t={t}")
    x_next = x_field.base.wrap(x_next)
    if not x_field.base.contains(x_next):
        raise FlowEscapedBox(
            f"flow of {x_field.name or '<anon>'} left the box at t={t + h}",
            last_state=x, time=t,
        )
    return x_next


def pushforward(f: SmoothMap, x: Point, v: Point) -> Point:
    """Jacobian-vector product: the differential of ``f`` at x applied to v."""
    return f.jacobian(x) @ np.asarray(v, dtype=float)


def lie_bracket(x_field: VectorField, y_field: VectorField, x: Point) -> Point:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x) with finite-difference Jacobians."""
    x = np.asarray(x, dtype=float)
    out = y_field.jacobian(x) @ x_field(x) - x_field.jacobian(x) @ y_field(x)
    if not np.isfinite(out).all():
        raise NumericalBlowup(f"bracket non-finite at {x}")
    return out


def lie_derivative_oneform(x_field: VectorField, beta: OneForm, x: Point) -> Point:
    """Lie derivative of a one-form along a field, componentwise.

    Against constant basis extensions e_i the Cartan formula
    (L_X beta)(e_i) = X(beta(e_i)) - beta([X, e_i]) collapses to
    J_beta X + (J_X)^T beta, which is what gets evaluated.
    """
    x = np.asarray(x, dtype=float)
    out = beta.jacobian(x) @ x_field(x) + x_field.jacobian(x).T @ beta(x)
    if not np.isfinite(out).all():
        raise NumericalBlowup(f"Lie derivative non-finite at {x}")
    return out


def d_oneform(alpha: OneForm, x: Point, v: Point, w: Point) -> float:
    """Exterior derivative of a one-form on a pair of vectors.

    Uses constant extensions of v and w, whose bracket vanishes, so
    d(alpha)(v, w) = v(alpha(w)) - w(alpha(v)).
    """
    x = np.asarray(x, dtype=float)
    j = alpha.jacobian(x)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    out = float((j @ v) @ w - (j @ w) @ v)
    if not math.isfinite(out):
        raise NumericalBlowup(f"d(one-form) non-finite at {x}")
    return out


def interior_product_d(alpha: OneForm, y_field: VectorField, x: Point) -> Point:
    """The covector i_Y d(alpha) at x."""
    x = np.asarray(x, dtype=float)
    j = alpha.jacobian(x)
    y = y_field(x)
    return j @ y - j.T @ y

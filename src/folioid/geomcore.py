"""Single-chart manifolds, smooth maps, vector fields and Cartan calculus.

Everything works in one global chart: a box in R^n whose coordinates may
individually be periodic.  Derivatives fall back to central finite
differences when no analytic Jacobian is supplied, at a step given per
call: the Cartan calculus takes it as ``h``, and the checks pass
``NumericParams.h_fd``.  A vector field or one-form is a smooth map from
its chart to itself that keeps its value at the last point, keyed by its
float64 bytes, so its ``fn`` must be a pure function of x; a constant one
carries its value and its exact zero Jacobian.  :func:`lie_brackets` is the
one Lie bracket: every pair of a list of fields at a point, from each
field's value and Jacobian read once.  Flows take one point or a stack of
them by classical fixed-step RK4, guarding the box on every row and step, or
one point, given a tolerance, by the error-controlled Dormand-Prince 5(4)
pair (Dormand & Prince 1980), whose box guard sees only the accepted steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
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
        """Wrap periodic coordinates into [lo, lo + period), at a point or a stack."""
        x = np.array(x, dtype=float)
        for i, period in enumerate(self.periodic):
            if period is not None:
                lo = self.box[i][0] if math.isfinite(self.box[i][0]) else 0.0
                x.T[i] = lo + (x.T[i] - lo) % period
        return x

    def contains(self, x: Point) -> bool:
        """Whether x is a finite point inside the box; periodic coordinates need
        only be finite."""
        x = np.asarray(x, dtype=float)
        return x.shape == (self.dim,) and all(
            math.isfinite(c) and (p is not None or lo <= c <= hi)
            for c, (lo, hi), p in zip(x.tolist(), self.box, self.periodic))


class SmoothMap:
    """A map between chart manifolds with optional analytic Jacobian.

    When ``jac`` is absent the Jacobian is the central finite difference
    with the step ``h`` given per call; when present it is trusted but can
    be audited against differences with :meth:`jacobian_fd`.

    A map takes one point, or a (k, n) stack of points and gives a (k, m)
    stack of values and a (k, m, n) stack of Jacobians.  ``fn`` and ``jac``
    are handed one point at a time, row by row, unless ``stacked`` says they
    take a whole stack, as an affine map's do.  A non-finite value raises
    :class:`NumericalBlowup` naming the first row that has one.
    """

    def __init__(
        self,
        domain: ChartManifold,
        codomain: ChartManifold,
        fn: Callable[[Point], Point],
        jac: Optional[Callable[[Point], np.ndarray]] = None,
        name: str = "",
        stacked: bool = False,
    ):
        self.domain = domain
        self.codomain = codomain
        self.fn = fn
        self.jac = jac
        self.name = name
        self.stacked = stacked

    def __call__(self, x: Point) -> Point:
        return self._evaluate(np.asarray(x, dtype=float))

    @staticmethod
    def _rows(fn: Callable, x: Point, shape: tuple) -> np.ndarray:
        """``fn`` at each row of the stack x, a blow-up inside it naming that row;
        ``shape`` is one value's, for an empty stack."""
        values = []
        for row, point in enumerate(x):
            try:
                values.append(fn(point))
            except NumericalBlowup as exc:
                exc.row = row
                raise
        return np.array(values or np.empty((0,) + shape), dtype=float)

    def _evaluate(self, x: Point) -> Point:
        y = (np.asarray(self.fn(x), dtype=float) if x.ndim == 1 or self.stacked
             else self._rows(self.fn, x, (self.codomain.dim,)))
        if not np.isfinite(y).all():
            row = None if x.ndim == 1 else int(np.argmin(np.isfinite(y).all(axis=-1)))
            raise NumericalBlowup(f"{type(self).__name__} {self.name or '<anon>'} non-finite "
                                  f"at {x if row is None else x[row]}", row=row)
        return y

    def jacobian(self, x: Point, h: float = DEFAULT_PARAMS.h_fd) -> np.ndarray:
        if self.jac is None:
            return self.jacobian_fd(x, h)
        x = np.asarray(x, dtype=float)
        shape = (self.codomain.dim, self.domain.dim)
        j = (np.asarray(self.jac(x), dtype=float) if x.ndim == 1 or self.stacked
             else self._rows(self.jac, x, shape))
        if j.shape != x.shape[:-1] + shape:
            raise ValueError(f"jacobian of {self.name or '<anon>'} has shape {j.shape}, "
                             f"expected {x.shape[:-1] + shape}")
        return j

    def jacobian_fd(self, x: Point, h: float = DEFAULT_PARAMS.h_fd) -> np.ndarray:
        # differences the unmemoised evaluation, so a field's kept value stays
        return central_difference(self._evaluate, x, h)


def central_difference(fn: Callable[[Point], np.ndarray], x: Point,
                       h: float) -> np.ndarray:
    """Central differences of ``fn`` at x with step h, one per coordinate.

    The partial derivative along coordinate i lands on the last axis, so a
    vector-valued ``fn`` gives its Jacobian matrix and a matrix-valued one
    gives d_i fn(x) at ``[..., i]``; at a 0-dim point that axis is empty.
    A (k, n) stack x is shifted row by row, so ``fn`` must take stacks.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        return np.zeros(np.shape(fn(x)) + (0,))
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * h) for e in h * np.eye(x.shape[-1])],
                    axis=-1)


def _point_memo(compute: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``compute`` behind a one-slot memo keyed by its arguments.

    The key is the shape and float64 bytes of every argument.  The value is
    copied once and returned read-only while the arguments repeat bytewise;
    new arguments replace it.  ``compute`` must be a pure function of its
    arguments.  The memo lives as long as the object that holds it.
    """
    key = value = None

    def at(*args: np.ndarray) -> np.ndarray:
        nonlocal key, value
        arrays, at_key = [], []
        for a in args:  # a plain loop: a comprehension costs a frame per call
            a = np.asarray(a, dtype=float)
            arrays.append(a)
            at_key += (a.shape, a.tobytes())
        if at_key != key:
            key, value = at_key, read_only(compute(*arrays))
        return value

    return at


def read_only(a) -> np.ndarray:
    """A read-only float64 copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def at_each(v: np.ndarray, x) -> np.ndarray:
    """``v`` at an array point x, else a read-only view of it over x's leading axes."""
    return v if getattr(x, "ndim", 0) == 1 else np.broadcast_to(v, np.shape(x)[:-1] + v.shape)


class VectorField(SmoothMap):
    """A tangent-vector assignment: a smooth map from ``base`` to itself.

    The value at the last point is kept, keyed by its float64 bytes, and
    returned read-only, so ``fn`` must be pure; the Jacobian is computed on
    every call.  ``value``, when given, is what ``fn`` returns at every
    point: a finite one is kept read-only and returned without calling
    ``fn``, and the Jacobian is then a kept exact zero; a non-finite one is
    dropped, so ``fn`` raises.
    """

    def __init__(self, base: ChartManifold, fn: Callable[[Point], Point],
                 name: str = "", jac: Optional[Callable[[Point], np.ndarray]] = None,
                 value: Optional[np.ndarray] = None, stacked: bool = False):
        super().__init__(base, base, fn, jac, name, stacked)
        self.value = (read_only(value) if value is not None and np.isfinite(value).all()
                      else None)
        self._value_at = _point_memo(self._evaluate)
        self._zero = None if self.value is None else read_only(np.zeros((base.dim, base.dim)))

    def __call__(self, x: Point) -> Point:
        return self._value_at(x) if self.value is None else at_each(self.value, x)

    def jacobian(self, x: Point, h: float = DEFAULT_PARAMS.h_fd) -> np.ndarray:
        return SmoothMap.jacobian(self, x, h) if self._zero is None else at_each(self._zero, x)


class OneForm(VectorField):
    """A covector assignment on a chart manifold.

    Evaluated and differentiated exactly like a vector field, with the same
    one-point value memo; the subclass only keeps the two roles apart in
    signatures and in per-method profiles, which is why ``jacobian`` is
    restated here.
    """

    def jacobian(self, x: Point, h: float = DEFAULT_PARAMS.h_fd) -> np.ndarray:
        return SmoothMap.jacobian(self, x, h) if self._zero is None else at_each(self._zero, x)


def zero_jacobian(dim: int) -> Callable[[Point], np.ndarray]:
    """The exact Jacobian of a constant field on a dim-dimensional chart."""
    zero = np.zeros((dim, dim))
    return lambda x: zero


def constant_field(base: ChartManifold, vec: Sequence[float], name: str = "") -> VectorField:
    v = np.asarray(vec, dtype=float).copy()
    return VectorField(base, lambda x: v, name=name or f"const{tuple(v.tolist())}",
                       jac=zero_jacobian(base.dim), value=v)


def constant_form(base: ChartManifold, cov: Sequence[float]) -> OneForm:
    a = np.asarray(cov, dtype=float).copy()
    return OneForm(base, lambda x: a, jac=zero_jacobian(base.dim), value=a)


def flow(x_field: VectorField, x0: Point, t_final, steps: Optional[int] = None,
         steps_per_unit: int = DEFAULT_PARAMS.rk4_steps_per_unit,
         tol: Optional[float] = None) -> Point:
    """Endpoint of the integral curve of ``x_field`` from ``x0``, or from each row
    of a (k, n) stack x0, for ``t_final`` or one signed time per row, all as long.

    By default classical RK4 with ``steps`` fixed steps, or ``steps_per_unit``
    per unit time, all rows at once, each bit for bit as its own flow.  With
    ``tol`` one point is integrated by :func:`flow_controlled` instead.
    Periodic coordinates are wrapped after every step; leaving the box on a
    non-periodic coordinate raises :class:`FlowEscapedBox` carrying the row and
    its last valid state.
    """
    if tol is not None:
        if steps is not None or np.ndim(x0) != 1:
            raise ValueError("give one point and tol, without steps")
        return flow_controlled(x_field, x0, t_final, tol)
    x = _accept(x_field, x0, x0, 0.0, 0.0, "initial point outside box")
    t_final = np.reshape(t_final, (len(x), 1)) if np.ndim(t_final) else t_final
    span = set(np.abs(np.ravel(t_final)).tolist())
    if len(span) > 1:
        raise ValueError("every row must flow for the same length of time")
    if not any(span):
        return x
    if steps is None:
        steps = max(1, int(math.ceil(max(span) * steps_per_unit)))
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
    x = _accept(x_field, x0, x0, 0.0, 0.0, "initial point outside box")
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
        err = linalg.sup_norm(dt * (_DP_E @ stages) / scale)
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


def _accept(x_field: VectorField, x: Point, x_next: Point, t, h, left: str = "") -> Point:
    """``x_next`` wrapped, after the blow-up and box guards on every row; x holds the
    last valid states.  The lowest row that fails raises with its row, its state
    in x and its time t, a scalar or one per row as h is; ``left``, at a start
    (x is x_next), is the escape message, non-finite rows included."""
    domain, name = x_field.domain, x_field.name or "<anon>"
    for row, point in enumerate(np.atleast_2d(x_next)):
        if not domain.contains(point):  # as wrapped: periodic coordinates need only be finite
            t, h = (float(np.ravel(v)[row] if np.ndim(v) else v) for v in (t, h))
            if not np.isfinite(point).all() and not left:
                raise NumericalBlowup(f"flow of {name} blew up at t={t}", row=row)
            raise FlowEscapedBox(left or f"flow of {name} left the box at t={t + h}",
                                 last_state=np.atleast_2d(x)[row], time=t, row=row)
    return domain.wrap(x_next)


@functools.cache
def pairs(k: int) -> np.ndarray:
    """The indices (i, j) of every pair i < j of k items, in lexicographic order,
    as the two rows of a (2, k(k-1)/2) array, built once per k and read-only."""
    index = np.array(list(combinations(range(k), 2)), int).reshape(-1, 2).T
    index.flags.writeable = False
    return index


def jets(fields: Sequence[VectorField], x: Point, h: float = DEFAULT_PARAMS.h_fd
         ) -> tuple[np.ndarray, np.ndarray]:
    """Each field's value and Jacobian at the point x, read once, as (k, n, 1)
    columns and (k, n, n) matrices, differenced at step h where a field has no
    exact Jacobian."""
    k, n = len(fields), np.size(x)
    return (np.array([f(x) for f in fields]).reshape(k, n, 1),
            np.array([f.jacobian(x, h) for f in fields]).reshape(k, n, n))


def lie_brackets(fields: Sequence[VectorField], x: Point, h: float = DEFAULT_PARAMS.h_fd
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[X_i, X_j](x) = DX_j X_i - DX_i X_j for every pair i < j of ``fields``, as
    rows in that order, and the ``jets`` they were formed from.  A single pair is
    a list of two fields.  Every product is a stacked matrix-vector product, so
    each row rounds as that pair's own bracket would."""
    x = np.asarray(x, dtype=float)
    values, jacobians = jets(fields, x, h)
    first, second = pairs(len(fields))
    rows = (jacobians[second] @ values[first] - jacobians[first] @ values[second])[..., 0]
    if not np.isfinite(rows).all():
        raise NumericalBlowup(f"bracket non-finite at {x}")
    return rows, values, jacobians

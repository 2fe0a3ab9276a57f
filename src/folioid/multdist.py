"""Distributions as spanning families, and the structural checks that make
a subbundle of the tangent prolongation usable: multiplicativity, constant
ranks of the intersections with TP and the t/s-fibers, translation
invariance, surjectivity of the projected differentials, descending-section
lifts and involutivity.  A lift takes one arrow or a (k, n) stack of them.

The residuals are not all on one scale.  ``check_multiplicative`` and
``check_involutive`` measure membership as the sine of the angle to a span,
and ``check_rank_structure`` measures subspace equality as the largest
principal angle, all three judged at ``tol_member``.  A lift is judged at
``tol_desc``: ``lift_at_point`` bounds each row's solve residual by
``tol_desc * max(1, |target|)``, ``descent_residual`` is the absolute
sup-norm of the projection gap, and the CLI's ``lift_section`` check
measures a lifted vector v against the fiber basis B by the absolute
|v - B B^T v|.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import geomcore, linalg
from .errors import FlowStopped, LiftFailed, NumericalBlowup, RankDrift
from .geomcore import ChartManifold, Point, VectorField
from .liegroupoid import SmoothGroupoid, translate
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport, Worst


class Distribution:
    """Span of a family of vector fields with a constant-rank policy.

    The rank may be declared up front; otherwise the first fiber evaluation
    fixes it.  Any later evaluation with a different numerical rank raises
    RankDrift: non-constant rank is a scenario error here, not a mode.

    x may be one point or a (k, n) stack, giving (k, n, r) generator and basis
    stacks, each matrix ranked on its own; RankDrift names the first drifting
    row.  Constant generators (``value`` not None) form a frame that carries
    its orthonormal basis per tolerance, broadcast over a stack.  Others are
    evaluated once per call; one-slot memos keyed by float64 bytes keep the
    last basis, :func:`base_intersection_basis` and :func:`lift_at_point`
    solve, the latter once per run of equal rows, so generators must be pure.
    The rank is checked every call.
    """

    def __init__(self, base: ChartManifold, gens: Sequence[VectorField],
                 rank: Optional[int] = None, name: str = ""):
        self.base = base
        self.gens = list(gens)
        self.rank = rank
        self.name = name
        self._frame = None
        if all(g.value is not None for g in self.gens):
            self._frame = geomcore.read_only(
                np.column_stack([g.value for g in self.gens]) if self.gens
                else np.zeros((base.dim, 0)))
        self._frame_bases = {}  # tolerance -> the frame's basis
        self._basis_of = geomcore._point_memo(
            lambda gens_at_x, tol: linalg.orth_basis(gens_at_x, float(tol)))
        self._intersection_of = geomcore._point_memo(
            lambda unit_jac, basis, tol: linalg.intersect_subspaces(unit_jac, basis, float(tol)))
        self._lift_solve = geomcore._point_memo(_min_norm_solution)

    def generator_matrix(self, x: Point) -> np.ndarray:
        if self._frame is not None:
            return geomcore.at_each(self._frame, x)
        return np.stack([g(x) for g in self.gens], axis=-1)

    def fiber_basis(self, x: Point, tol: float) -> np.ndarray:
        """Orthonormal basis of the fiber at x or at each row of x, ranked at ``tol``."""
        basis = (self._basis_of(self.generator_matrix(x), tol) if self._frame is None
                 else self._frame_bases.get(tol))
        if basis is None:
            basis = self._frame_bases[tol] = geomcore.read_only(linalg.orth_basis(self._frame, tol))
        ranks = (np.count_nonzero(basis.any(axis=-2), axis=-1).tolist() if basis.ndim == 3
                 else [basis.shape[1]] * (len(x) if np.ndim(x) > 1 else 1))  # padding is zero
        self.rank = ranks[0] if self.rank is None and ranks else self.rank
        drift = [i for i, r in enumerate(ranks) if r != self.rank]
        if drift:
            at = np.atleast_2d(x)[drift[0]]
            raise RankDrift(f"distribution {self.name or '<anon>'} has rank {ranks[drift[0]]} "
                            f"at {at}, declared {self.rank}", location=at)
        return basis if basis.ndim == 3 else geomcore.at_each(basis, x)


def _proj_map(gd: SmoothGroupoid, mode: str):
    if mode == "s":
        return gd.src
    if mode == "t":
        return gd.tgt
    raise ValueError(f"mode must be 's' or 't', got {mode!r}")


def _min_norm_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The min-norm solution of ``a x = b`` with its residual appended."""
    x, resid = linalg.solve_min_norm(a, b)
    return np.append(x, resid)


def lift_at_point(gd: SmoothGroupoid, dist: Distribution, g: Point,
                  target_vector: np.ndarray, mode: str,
                  params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Min-norm vector in the fiber projecting onto ``target_vector``, or one per
    row of a (k, n) stack g with a (k, m) stack of targets; one point is a stack
    of one.

    Fiber bases, Jacobians and systems ``T proj(g) B`` are taken once per call.
    A run of rows whose systems and targets are equal bytewise is solved once,
    at its first row, through the distribution's one-slot memo, and that row
    meets the residual test, which runs every call; the lifts are one stacked
    product.  LiftFailed names the lowest failing row, a run's first.
    """
    stacked = np.ndim(g) > 1
    basis = dist.fiber_basis(g, params.tol_rank)
    systems = _proj_map(gd, mode).jacobian(g) @ basis
    k, (m, r) = len(g) if stacked else 1, systems.shape[-2:]
    basis, systems = basis.reshape((k,) + basis.shape[-2:]), systems.reshape(k, m, r)
    targets = np.asarray(target_vector, dtype=float).reshape(k, m)
    rows = np.concatenate([systems.reshape(k, m * r), targets], axis=1).view(np.uint64)
    first = np.ones(k, dtype=bool)  # a row that differs from the one before starts a run
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    coeffs = np.empty((k, r))
    for row in np.flatnonzero(first).tolist():
        solution = dist._lift_solve(systems[row], targets[row])
        if solution[-1] > params.tol_desc * max(1.0, float(np.linalg.norm(targets[row]))):
            raise LiftFailed(f"no {mode}-lift at {np.atleast_2d(g)[row]}: residual "
                             f"{solution[-1]:.3e}", row=row if stacked else None)
        coeffs[row:] = solution[:-1]  # the next run overwrites its own rows
    lifts = (basis @ coeffs[..., None])[..., 0]
    return lifts if stacked else lifts[0]


def lift_section(gd: SmoothGroupoid, dist: Distribution, base_field: VectorField,
                 mode: str, params: NumericParams = DEFAULT_PARAMS) -> VectorField:
    """Pointwise min-norm lift of a base field with values in S on TP: the
    section upstairs whose s- or t-projection (``mode``) is ``base_field``.

    The lift X satisfies T(proj) X(g) = base_field(proj(g)) up to tol_desc
    at every evaluation; failures raise LiftFailed at the witness point.  On a
    stack, ``base_field(proj(g))`` and :func:`lift_at_point` run once.
    """
    proj = _proj_map(gd, mode)

    def fn(g):
        return lift_at_point(gd, dist, g, base_field(proj(g)), mode, params)

    return VectorField(gd.space, fn, name=f"{mode}-lift({base_field.name})", stacked=True)


def descent_residual(gd: SmoothGroupoid, x_field: VectorField, base_field: VectorField,
                     mode: str, points: Iterable[Point]) -> float:
    """Largest |T(proj) X(g) - base_field(proj(g))| entry over the points, each map
    and field evaluated once on their stack."""
    proj = _proj_map(gd, mode)
    g = np.array(list(points), dtype=float).reshape(-1, gd.space.dim)
    return linalg.sup_norm([jac @ value - want for jac, value, want
                            in zip(proj.jacobian(g), x_field(g), base_field(proj(g)))])


# ---------------------------------------------------------------------------
# derived fibers

def base_intersection_basis(gd: SmoothGroupoid, dist: Distribution, p: Point,
                            params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Orthonormal basis of S(p) ∩ T_pP in base coordinates: {c : Tu(p) c ∈ S}, one SVD,
    kept in the distribution's one-slot memo while Tu(p) and the fiber repeat."""
    return dist._intersection_of(gd.unit.jacobian(p),
                                 dist.fiber_basis(gd.unit(p), params.tol_rank), params.tol_rank)


def fiber_kernel_intersection(gd: SmoothGroupoid, dist: Distribution, g: Point,
                              mode: str, params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of S(g) ∩ ker T(proj) at g (the t- or s-fiber part of S).

    It is B · null(T proj · B) for the fiber basis B, one SVD ranked
    against the largest column norm of T proj.
    """
    jac = _proj_map(gd, mode).jacobian(g)
    basis = dist.fiber_basis(g, params.tol_rank)
    return basis @ linalg.null_basis(jac @ basis, params.tol_rank, scale_of=jac)


# ---------------------------------------------------------------------------
# checks

def check_multiplicative(gd: SmoothGroupoid, dist: Distribution, samples: int,
                         rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Subgroupoid test for S inside the tangent prolongation.

    At sampled composable pairs (g, h): Ts and Tt send fibers into S ∩ TP,
    products of composable fiber vectors land in the fiber over gh, and T inv
    maps fibers to fibers.  All pairs are drawn first; fibers, maps and
    Jacobians are evaluated once on the (k, n) stacks of g, h, gh and g^-1,
    one stacked call per residual kind, seen in pair-by-pair order.  S ∩ TP
    is per point, once per distinct end point: three per pair, as s(g) = t(h).
    Of several failures, the one raised comes first in: sampling, the fibers
    at g, then h (first failing row), the intersections pair by pair, gh, g^-1.
    """
    tol = params.tol_rank
    pairs = [gd.composable_pair(rng) for _ in range(samples)]
    g, h = (np.reshape([pair[i] for pair in pairs], (samples, gd.space.dim)) for i in (0, 1))
    basis_g, basis_h = dist.fiber_basis(g, tol), dist.fiber_basis(h, tol)
    bases = []
    for ends in np.stack([gd.src(g), gd.tgt(g), gd.src(h), gd.tgt(h)], axis=1):  # S ∩ TP
        at = {}
        for end in ends:
            if end.tobytes() not in at:
                at[end.tobytes()] = base_intersection_basis(gd, dist, end, params)
            bases.append(at[end.tobytes()])
    down = np.zeros((len(bases), gd.base.dim, max([d.shape[1] for d in bases], default=0)))
    for d, padded in zip(bases, down):
        padded[:, :d.shape[1]] = d
    images = np.stack([proj.jacobian(point) @ basis for point, basis in ((g, basis_g), (h, basis_h))
                       for proj in (gd.src, gd.tgt)], axis=1)
    projection = linalg.max_span_residual(images, down.reshape(images.shape[:2] + down.shape[1:]))
    coeffs = linalg.null_basis(np.concatenate([images[:, 0], -images[:, 3]], axis=-1), tol)
    r = basis_g.shape[-1]
    joint = np.concatenate([basis_g @ coeffs[..., :r, :], basis_h @ coeffs[..., r:, :]], axis=-2)
    product = linalg.max_span_residual(gd.mul_jacobian(g, h) @ joint,
                                       dist.fiber_basis(gd.compose(g, h), tol))
    inversion = linalg.max_span_residual(gd.inv.jacobian(g) @ basis_g,
                                         dist.fiber_basis(gd.inv(g), tol))
    worst = Worst()
    worst.see_each(*(("projection", projection[:, j], point.__getitem__)
                     for j, point in enumerate((g, g, h, h))),
                   ("product", product, lambda i: [g[i].tolist(), h[i].tolist()]),
                   ("inversion", inversion, g.__getitem__))
    return worst.report("check_multiplicative", params.tol_member, {"samples": samples})


def check_rank_structure(gd: SmoothGroupoid, dist: Distribution, samples: int,
                         rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Constant ranks, the splitting at units, and left-translation invariance.

    Records rank(S), rank(S ∩ TP), rank(S ∩ ker Tt), rank(S ∩ ker Ts),
    asserts rank(S ∩ TP) + rank(S ∩ AG) = rank(S) at units, and checks
    S^t(g) = TL_g S^t(s(g)) as subspace equality via principal angles.
    A failed splitting is residual 1.0 with the ranks as its witness.
    """
    ranks: dict = {}
    worst = Worst()

    def record(key, value, where):
        if key not in ranks:
            ranks[key] = value
        elif ranks[key] != value:
            raise RankDrift(f"{key} rank drifts: {ranks[key]} vs {value}", location=where)

    for _ in range(samples):
        g = gd.sample_arrow(rng)
        p = gd.sample_object(rng)
        record("S", dist.fiber_basis(g, params.tol_rank).shape[1], g)
        record("S_cap_TP", base_intersection_basis(gd, dist, p, params).shape[1], p)
        upstairs = fiber_kernel_intersection(gd, dist, g, "t", params)
        record("S_t", upstairs.shape[1], g)
        record("S_s", fiber_kernel_intersection(gd, dist, g, "s", params).shape[1], g)
        record("S_cap_AG", fiber_kernel_intersection(gd, dist, gd.unit(p), "t", params).shape[1], p)

        # translation invariance of the t-fiber part
        sp = gd.src(g)
        unit_sp = gd.unit(sp)
        at_unit = fiber_kernel_intersection(gd, dist, unit_sp, "t", params)
        translated = translate(gd, g, unit_sp, at_unit, "left", params)
        worst.see(linalg.subspace_max_angle(linalg.orth_basis(translated, params.tol_rank),
                                            upstairs),
                  kind="translation", at=g)

    splitting_ok = ranks["S_cap_TP"] + ranks["S_cap_AG"] == ranks["S"]
    if not splitting_ok:
        worst.see(1.0, kind="splitting", ranks=ranks)
    return worst.report("check_rank_structure", params.tol_member,
                        {"ranks": ranks, "splitting_holds": splitting_ok, "samples": samples},
                        ok=splitting_ok)


def check_ts_surjectivity(gd: SmoothGroupoid, dist: Distribution, samples: int,
                          rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """The projected differentials hit all of S ∩ TP at every sampled arrow."""
    failures = Worst()
    base_rank = None
    for _ in range(samples):
        g = gd.sample_arrow(rng)
        basis = dist.fiber_basis(g, params.tol_rank)
        for proj, end in ((gd.src, gd.src(g)), (gd.tgt, gd.tgt(g))):
            downstairs = base_intersection_basis(gd, dist, end, params)
            base_rank = downstairs.shape[1]
            got = linalg.numerical_rank(proj.jacobian(g) @ basis, params.tol_rank)
            if got != downstairs.shape[1]:
                failures.see(1.0, at=g, rank=got, expected=downstairs.shape[1])
    return failures.report("check_ts_surjectivity", 0.0,
                           {"target_rank": base_rank, "samples": samples})


def check_involutive(dist: Distribution, points: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Brackets of all generator pairs stay inside the span: at each point, after
    the basis's rank check, one ``lie_brackets`` and one ``span_residuals`` call."""
    worst = Worst()
    points = list(points)
    pairs = geomcore.pairs(len(dist.gens)).T.tolist()
    for x in points:
        basis = dist.fiber_basis(x, params.tol_rank)
        brackets = geomcore.lie_brackets(dist.gens, x, params.h_fd)[0]
        for pair, resid in zip(pairs, linalg.span_residuals(brackets.T, basis)):
            worst.see(resid, pair=pair, at=np.asarray(x))
    return worst.report("check_involutive", params.tol_member, {"points": len(points)})


def spot_check_completeness(fields: List[VectorField], start_points: Iterable[Point],
                            t_max: float, params: NumericParams = DEFAULT_PARAMS
                            ) -> CheckReport:
    """Integrate each flagged field for |T| <= t_max and require no escape.

    Completeness cannot be proven numerically; this is the declared-flag
    spot check.  Each field flows one stack, each start point forward, then
    backward.  A failure records the start point and sign of the lowest row
    to stop first and, when the error carries them, the time reached and the
    last state inside the box.  A LiftFailed is raised with that witness.
    """
    failures = Worst()
    starts = np.array([x0 for x0 in start_points for _ in (1.0, -1.0)], dtype=float)
    signs = np.resize([1.0, -1.0], len(starts))
    for f in fields if len(starts) else ():
        try:
            geomcore.flow(f, starts, signs * t_max, steps_per_unit=params.rk4_steps_per_unit)
        except LiftFailed as exc:  # stops the pipeline, naming the row's start
            if exc.row is not None:
                exc.witness = {"from": starts[exc.row].tolist(), "sign": float(signs[exc.row])}
            raise
        except (FlowStopped, NumericalBlowup) as exc:
            failure = {"field": f.name, "from": starts[exc.row].tolist(),
                       "error": type(exc).__name__, "sign": float(signs[exc.row])}
            if isinstance(exc, FlowStopped):
                failure["time"] = exc.time
                failure["last_state"] = np.asarray(exc.last_state).tolist()
            failures.see(1.0, **failure)
    return failures.report("spot_check_completeness", 0.0, {"t_max": t_max})

"""Distributions as spanning families, and the structural checks that make
a subbundle of the tangent prolongation usable: multiplicativity, constant
ranks of the intersections with TP and the t/s-fibers, translation
invariance, surjectivity of the projected differentials, descending-section
lifts and involutivity.

Subspace membership is always measured as the sine of the angle to a span,
with one shared tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import geomcore, linalg
from .errors import FlowStopped, LiftFailed, NumericalBlowup, RankDrift
from .geomcore import ChartManifold, Point, VectorField
from .liegroupoid import SmoothGroupoid, left_translation_tangent
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport


class Distribution:
    """Span of a family of vector fields with a constant-rank policy.

    The rank may be declared up front; otherwise the first fiber evaluation
    fixes it.  Any later evaluation with a different numerical rank raises
    RankDrift: non-constant rank is a scenario error here, not a mode.

    Constant generators, whose ``value`` is not None, are stacked once.  The
    last generator matrix and rank tolerance with their basis, and the last
    :func:`lift_at_point` solve, are cached keyed by the float64 bytes of
    their inputs, so generators must be pure; the rank is checked every call.
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
        self._basis_of = geomcore._point_memo(
            lambda gens_at_x, tol: linalg.orth_basis(gens_at_x, float(tol)))
        self._lift_solve = geomcore._point_memo(_min_norm_solution)

    def generator_matrix(self, x: Point) -> np.ndarray:
        if self._frame is not None:
            return self._frame
        return np.column_stack([g(x) for g in self.gens])

    def fiber_basis(self, x: Point, tol: float) -> np.ndarray:
        """Orthonormal basis of the fiber at x, ranked at ``tol``; enforces the rank."""
        basis = self._basis_of(self.generator_matrix(x), tol)
        r = basis.shape[1]
        if self.rank is None:
            self.rank = r
        elif r != self.rank:
            raise RankDrift(
                f"distribution {self.name or '<anon>'} has rank {r} at {x}, declared {self.rank}",
                location=x)
        return basis


@dataclass
class DescendingSection:
    """A section upstairs whose s- or t-projection is a fixed base field."""

    x_field: VectorField
    base_field: VectorField
    mode: str  # "s" or "t"
    complete: bool = False


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
    """Min-norm vector in the fiber projecting onto ``target_vector``.

    The solve of ``(T proj(g) B) c = target_vector`` is kept in the
    distribution's one-slot memo; the residual test runs on every call.
    """
    proj = _proj_map(gd, mode)
    basis = dist.fiber_basis(g, params.tol_rank)
    solution = dist._lift_solve(proj.jacobian(g) @ basis, target_vector)
    coeff, resid = solution[:-1], float(solution[-1])
    scale = max(1.0, float(np.linalg.norm(target_vector)))
    if resid > params.tol_desc * scale:
        raise LiftFailed(
            f"no {mode}-lift at {np.asarray(g)}: residual {resid:.3e}")
    return basis @ coeff


def lift_section(gd: SmoothGroupoid, dist: Distribution, base_field: VectorField,
                 mode: str, params: NumericParams = DEFAULT_PARAMS,
                 complete: bool = False) -> DescendingSection:
    """Pointwise min-norm lift of a base field with values in S on TP.

    The lift X satisfies T(proj) X(g) = base_field(proj(g)) up to tol_desc
    at every evaluation; failures raise LiftFailed at the witness point.
    """
    proj = _proj_map(gd, mode)

    def fn(g):
        return lift_at_point(gd, dist, g, base_field(proj(g)), mode, params)

    x_field = VectorField(gd.space, fn, name=f"{mode}-lift({base_field.name})")
    return DescendingSection(x_field, base_field, mode, complete=complete)


def descent_residual(gd: SmoothGroupoid, section: DescendingSection,
                     points: Iterable[Point]) -> float:
    proj = _proj_map(gd, section.mode)
    worst = 0.0
    for g in points:
        got = proj.jacobian(g) @ section.x_field(g)
        want = section.base_field(proj(g))
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


# ---------------------------------------------------------------------------
# derived fibers

def base_intersection_basis(gd: SmoothGroupoid, dist: Distribution, p: Point,
                            params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Orthonormal basis of S(p) ∩ T_pP in base coordinates: {c : Tu(p) c ∈ S}, one SVD."""
    return linalg.intersect_subspaces(gd.unit.jacobian(p),
                                      dist.fiber_basis(gd.unit(p), params.tol_rank),
                                      params.tol_rank)


def fiber_kernel_intersection(gd: SmoothGroupoid, dist: Distribution, g: Point,
                              mode: str, params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of S(g) ∩ ker T(proj) at g (the t- or s-fiber part of S).

    It is B · null(T proj · B) for the fiber basis B, one SVD ranked
    against the largest column norm of T proj.
    """
    jac = _proj_map(gd, mode).jacobian(g)
    basis = dist.fiber_basis(g, params.tol_rank)
    return basis @ linalg.null_basis(jac @ basis, params.tol_rank, scale_of=jac)


def algebroid_intersection_basis(gd: SmoothGroupoid, dist: Distribution, p: Point,
                                 params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of S ∩ AG at the unit over p (inside the arrow tangent space)."""
    return fiber_kernel_intersection(gd, dist, gd.unit(p), "t", params)


# ---------------------------------------------------------------------------
# checks

def check_multiplicative(gd: SmoothGroupoid, dist: Distribution, samples: int,
                         rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Subgroupoid test for S inside the tangent prolongation.

    At sampled arrows and composable pairs: the s/t-differentials send
    fibers into S ∩ TP, products of composable fiber vectors land in the
    fiber over the product, and the inversion differential maps fibers to
    fibers.  S ∩ TP is computed once per distinct end point: s(g) = t(h)
    leaves three per pair.
    """
    worst = 0.0
    witness = None
    for _ in range(samples):
        g, h = gd.composable_pair(rng)
        basis_g = dist.fiber_basis(g, params.tol_rank)
        basis_h = dist.fiber_basis(h, params.tol_rank)

        downstairs_at = {}
        for point, basis in ((g, basis_g), (h, basis_h)):
            for proj, end in ((gd.src, gd.src(point)), (gd.tgt, gd.tgt(point))):
                key = end.tobytes()
                if key not in downstairs_at:
                    downstairs_at[key] = base_intersection_basis(gd, dist, end, params)
                downstairs = downstairs_at[key]
                resid = linalg.max_span_residual(proj.jacobian(point) @ basis, downstairs)
                if resid > worst:
                    worst, witness = resid, {"kind": "projection", "at": point.tolist()}

        # composable fiber pairs: coefficients in the joint null space
        constraint = np.hstack([gd.src.jacobian(g) @ basis_g,
                                -(gd.tgt.jacobian(h) @ basis_h)])
        coeffs = linalg.null_basis(constraint, params.tol_rank)
        prod_point = gd.compose(g, h)
        basis_prod = dist.fiber_basis(prod_point, params.tol_rank)
        j_mul = gd.mul_jacobian(g, h)
        for j in range(coeffs.shape[1]):
            a = coeffs[: basis_g.shape[1], j]
            b = coeffs[basis_g.shape[1]:, j]
            joint = np.concatenate([basis_g @ a, basis_h @ b])
            resid = linalg.span_residual(j_mul @ joint, basis_prod)
            if resid > worst:
                worst, witness = resid, {"kind": "product", "at": [g.tolist(), h.tolist()]}

        inv_point = gd.inv(g)
        resid = linalg.max_span_residual(gd.inv.jacobian(g) @ basis_g,
                                         dist.fiber_basis(inv_point, params.tol_rank))
        if resid > worst:
            worst, witness = resid, {"kind": "inversion", "at": g.tolist()}

    passed = worst <= params.tol_member
    return CheckReport("check_multiplicative", passed, worst,
                       witness=None if passed else witness,
                       details={"samples": samples})


def check_rank_structure(gd: SmoothGroupoid, dist: Distribution, samples: int,
                         rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Constant ranks, the splitting at units, and left-translation invariance.

    Records rank(S), rank(S ∩ TP), rank(S ∩ ker Tt), rank(S ∩ ker Ts),
    asserts rank(S ∩ TP) + rank(S ∩ AG) = rank(S) at units, and checks
    S^t(g) = TL_g S^t(s(g)) as subspace equality via principal angles.
    """
    ranks: dict = {}
    worst_angle = 0.0
    witness = None

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
        record("S_cap_AG", algebroid_intersection_basis(gd, dist, p, params).shape[1], p)

        # translation invariance of the t-fiber part
        sp = gd.src(g)
        unit_sp = gd.unit(sp)
        at_unit = fiber_kernel_intersection(gd, dist, unit_sp, "t", params)
        translated = np.column_stack([
            left_translation_tangent(gd, g, unit_sp, at_unit[:, j], params).v
            for j in range(at_unit.shape[1])
        ]) if at_unit.shape[1] else np.zeros((gd.dim_space, 0))
        angle = linalg.subspace_max_angle(linalg.orth_basis(translated, params.tol_rank),
                                          upstairs)
        if angle > worst_angle:
            worst_angle, witness = angle, {"kind": "translation", "at": g.tolist()}

    splitting_ok = ranks["S_cap_TP"] + ranks["S_cap_AG"] == ranks["S"]
    passed = splitting_ok and worst_angle <= params.tol_member
    return CheckReport("check_rank_structure", passed, worst_angle,
                       witness=None if passed else witness,
                       details={"ranks": ranks, "splitting_holds": splitting_ok,
                                "samples": samples})


def check_ts_surjectivity(gd: SmoothGroupoid, dist: Distribution, samples: int,
                          rng, params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """The projected differentials hit all of S ∩ TP at every sampled arrow."""
    failures = []
    base_rank = None
    for _ in range(samples):
        g = gd.sample_arrow(rng)
        basis = dist.fiber_basis(g, params.tol_rank)
        for proj, end in ((gd.src, gd.src(g)), (gd.tgt, gd.tgt(g))):
            downstairs = base_intersection_basis(gd, dist, end, params)
            base_rank = downstairs.shape[1]
            got = linalg.numerical_rank(proj.jacobian(g) @ basis, params.tol_rank)
            if got != downstairs.shape[1]:
                failures.append({"at": g.tolist(), "rank": got,
                                 "expected": downstairs.shape[1]})
    passed = not failures
    return CheckReport("check_ts_surjectivity", passed,
                       0.0 if passed else 1.0,
                       witness=failures[0] if failures else None,
                       details={"target_rank": base_rank, "samples": samples})


def check_involutive(dist: Distribution, points: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS,
                     name: str = "check_involutive") -> CheckReport:
    """Brackets of all generator pairs stay inside the span at each point."""
    worst = 0.0
    witness = None
    points = list(points)
    for x in points:
        basis = dist.fiber_basis(x, params.tol_rank)
        for i in range(len(dist.gens)):
            for j in range(i + 1, len(dist.gens)):
                bracket = geomcore.lie_bracket(dist.gens[i], dist.gens[j], x)
                resid = linalg.span_residual(bracket, basis)
                if resid > worst:
                    worst = resid
                    witness = {"pair": [i, j], "at": np.asarray(x).tolist()}
    passed = worst <= params.tol_member
    return CheckReport(name, passed, worst,
                       witness=None if passed else witness,
                       details={"points": len(points)})


def spot_check_completeness(fields: List[VectorField], start_points: Iterable[Point],
                            t_max: float, params: NumericParams = DEFAULT_PARAMS
                            ) -> CheckReport:
    """Integrate each flagged field for |T| <= t_max and require no escape.

    Completeness cannot be proven numerically; this is the declared-flag
    spot check.  A failure records the flow's sign and, when the error
    carries them, the time reached and the last state inside the box.
    """
    failures = []
    for x0 in start_points:
        for f in fields:
            for sign in (1.0, -1.0):
                try:
                    geomcore.flow(f, x0, sign * t_max,
                                  steps_per_unit=params.rk4_steps_per_unit)
                except (FlowStopped, NumericalBlowup) as exc:
                    failure = {"field": f.name, "from": np.asarray(x0).tolist(),
                               "error": type(exc).__name__, "sign": sign}
                    if isinstance(exc, FlowStopped):
                        failure["time"] = exc.time
                        failure["last_state"] = np.asarray(exc.last_state).tolist()
                    failures.append(failure)
    return CheckReport("spot_check_completeness", not failures,
                       0.0 if not failures else 1.0,
                       witness=failures[0] if failures else None,
                       details={"t_max": t_max})

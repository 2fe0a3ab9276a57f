"""Smooth groupoids as bundles of callable structure maps.

The multiplication is a smooth map on a neighborhood of the fiber product
inside G x G, evaluated on concatenated coordinates, so its plain Jacobian
realizes the tangent multiplication.  Covectors compose through the
defining pairing identity, solved as a least-squares system over a
spanning set of composable tangent directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import NotComposable, SamplerError, SpanDeficiency, TangentNotComposable
from .geomcore import ChartManifold, Point, SmoothMap
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport


@dataclass
class SmoothGroupoid:
    """Arrows ``space`` over objects ``base`` with callable structure maps.

    ``mul`` takes the concatenation (g, h) of two arrow coordinates.  The
    optional samplers draw random arrows/objects from the scenario's
    sampling region; ``sample_arrow_to`` must return an arrow with the
    given exact target so composable tuples can be assembled exactly.
    """

    space: ChartManifold
    base: ChartManifold
    src: SmoothMap
    tgt: SmoothMap
    unit: SmoothMap
    inv: SmoothMap
    mul: SmoothMap
    tol_comp: float = 1e-6  # source/target gap allowed for a composable pair
    sample_arrow: Optional[Callable] = None
    sample_object: Optional[Callable] = None
    sample_arrow_to: Optional[Callable] = None
    name: str = ""

    @property
    def dim_space(self) -> int:
        return self.space.dim

    @property
    def dim_base(self) -> int:
        return self.base.dim

    def compose(self, g: Point, h: Point) -> Point:
        gap = float(np.max(np.abs(self.src(g) - self.tgt(h))))
        if gap > self.tol_comp:
            raise NotComposable(f"source/target gap {gap:.3e} exceeds {self.tol_comp:.3e}")
        return self.mul(np.concatenate([g, h]))

    def mul_jacobian(self, g: Point, h: Point) -> np.ndarray:
        return self.mul.jacobian(np.concatenate([g, h]))

    def composable_pair(self, rng) -> tuple:
        if self.sample_arrow is None or self.sample_arrow_to is None:
            raise SamplerError("groupoid has no samplers attached")
        g = self.sample_arrow(rng)
        h = self.sample_arrow_to(rng, self.src(g))
        gap = float(np.max(np.abs(self.src(g) - self.tgt(h))))
        if gap > self.tol_comp:
            raise SamplerError(f"sampler produced non-composable pair (gap {gap:.3e})")
        return g, h

    def composable_triple(self, rng) -> tuple:
        g, h = self.composable_pair(rng)
        l = self.sample_arrow_to(rng, self.src(h))
        return g, h, l


@dataclass(frozen=True)
class TangentArrow:
    base: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class CotangentArrow:
    base: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class AlgebroidFiber:
    """Basis of ker(Tt) at the unit over p, the algebroid fiber at p."""

    p: np.ndarray
    basis: np.ndarray  # (dim_space, rank) columns


def algebroid_fiber(gd: SmoothGroupoid, p: Point,
                    params: NumericParams = DEFAULT_PARAMS) -> AlgebroidFiber:
    e = gd.unit(p)
    basis = linalg.null_basis(gd.tgt.jacobian(e), params.tol_rank)
    if basis.shape[1] == 0:
        raise SpanDeficiency(f"target map has no kernel at unit over {p}")
    return AlgebroidFiber(np.asarray(p, dtype=float), basis)


def tangent_mul(gd: SmoothGroupoid, tg: TangentArrow, th: TangentArrow,
                params: NumericParams = DEFAULT_PARAMS) -> TangentArrow:
    """Product in the tangent prolongation: Jacobian of mul on (v_g, v_h)."""
    g, h = tg.base, th.base
    gap = float(np.max(np.abs(gd.src(g) - gd.tgt(h))))
    if gap > gd.tol_comp:
        raise NotComposable(f"base points not composable (gap {gap:.3e})")
    tangent_gap = float(np.max(np.abs(
        gd.src.jacobian(g) @ tg.v - gd.tgt.jacobian(h) @ th.v)))
    if tangent_gap > params.tol_tangent_comp:
        raise TangentNotComposable(f"tangent gap {tangent_gap:.3e}")
    prod = gd.mul(np.concatenate([g, h]))
    v = gd.mul_jacobian(g, h) @ np.concatenate([tg.v, th.v])
    return TangentArrow(prod, v)


def left_translation_tangent(gd: SmoothGroupoid, g: Point, h: Point, u: Point,
                             params: NumericParams = DEFAULT_PARAMS) -> TangentArrow:
    """TL_g applied to a t-fiber tangent vector u at h, via 0_g * u."""
    u = np.asarray(u, dtype=float)
    resid = float(np.max(np.abs(gd.tgt.jacobian(h) @ u))) if u.size else 0.0
    if resid > max(params.tol_tangent_comp, params.tol_rank * max(1.0, float(np.linalg.norm(u)))):
        raise TangentNotComposable(f"u is not tangent to the t-fiber (|Tt u| = {resid:.3e})")
    zero = TangentArrow(np.asarray(g, dtype=float), np.zeros(gd.dim_space))
    return tangent_mul(gd, zero, TangentArrow(np.asarray(h, dtype=float), u), params)


def right_translation_tangent(gd: SmoothGroupoid, g: Point, h: Point, u: Point,
                              params: NumericParams = DEFAULT_PARAMS) -> TangentArrow:
    """TR_g applied to an s-fiber tangent vector u at h, via u * 0_g."""
    u = np.asarray(u, dtype=float)
    resid = float(np.max(np.abs(gd.src.jacobian(h) @ u))) if u.size else 0.0
    if resid > max(params.tol_tangent_comp, params.tol_rank * max(1.0, float(np.linalg.norm(u)))):
        raise TangentNotComposable(f"u is not tangent to the s-fiber (|Ts u| = {resid:.3e})")
    zero = TangentArrow(np.asarray(g, dtype=float), np.zeros(gd.dim_space))
    return tangent_mul(gd, TangentArrow(np.asarray(h, dtype=float), u), zero, params)


def source_translates(gd: SmoothGroupoid, g: Point, fiber: AlgebroidFiber,
                      params: NumericParams = DEFAULT_PARAMS) -> list:
    """The algebroid basis left-translated to g, one vector per basis column."""
    e = gd.unit(gd.src(g))
    return [left_translation_tangent(gd, g, e, fiber.basis[:, j], params).v
            for j in range(fiber.basis.shape[1])]


def target_translates(gd: SmoothGroupoid, g: Point, fiber: AlgebroidFiber,
                      params: NumericParams = DEFAULT_PARAMS) -> list:
    """The algebroid basis, s-projected and right-translated to g."""
    q = gd.tgt(g)
    e = gd.unit(q)
    j_unit = gd.unit.jacobian(q)
    j_src = gd.src.jacobian(e)
    out = []
    for j in range(fiber.basis.shape[1]):
        u = fiber.basis[:, j]
        w = u - j_unit @ (j_src @ u)  # kill the base component: w lies in ker Ts
        out.append(right_translation_tangent(gd, g, e, w, params).v)
    return out


def pairings(alpha: np.ndarray, vectors: list) -> np.ndarray:
    """alpha(v) for each tangent vector v, as an array."""
    return np.array([float(alpha @ v) for v in vectors], dtype=float)


def composable_tangent_basis(gd: SmoothGroupoid, g: Point, h: Point,
                             params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of the tangent space to the fiber product at (g, h).

    Columns are stacked (v_g, v_h) with Ts v_g = Tt v_h.
    """
    constraint = np.hstack([gd.src.jacobian(g), -gd.tgt.jacobian(h)])
    return linalg.null_basis(constraint, params.tol_rank)


def cotangent_mul(gd: SmoothGroupoid, ca_g: CotangentArrow, ca_h: CotangentArrow,
                  params: NumericParams = DEFAULT_PARAMS,
                  translates: Optional[tuple] = None) -> CotangentArrow:
    """Product covector at g*h determined by the additivity pairing.

    Solves alpha(v_g * v_h) = alpha_g(v_g) + alpha_h(v_h) over a spanning
    set of composable tangent pairs; raises SpanDeficiency when the tangent
    products fail to span the tangent space at g*h.  ``translates`` is the
    algebroid fiber at s(g) translated to g and to h, if the caller has it.
    """
    g, h = ca_g.base, ca_h.base
    gap = float(np.max(np.abs(gd.src(g) - gd.tgt(h))))
    if gap > gd.tol_comp:
        raise NotComposable(f"base points not composable (gap {gap:.3e})")
    if translates is None:
        fiber = algebroid_fiber(gd, gd.src(g), params)
        translates = (source_translates(gd, g, fiber, params),
                      target_translates(gd, h, fiber, params))
    s_of_g = pairings(ca_g.alpha, translates[0])
    t_of_h = pairings(ca_h.alpha, translates[1])
    cot_gap = float(np.max(np.abs(s_of_g - t_of_h))) if s_of_g.size else 0.0
    scale = max(1.0, float(np.linalg.norm(ca_g.alpha)), float(np.linalg.norm(ca_h.alpha)))
    if cot_gap > params.tol_cot * scale:
        raise NotComposable(f"covectors not composable (gap {cot_gap:.3e})")

    n = gd.dim_space
    pairs = composable_tangent_basis(gd, g, h, params)
    j_mul = gd.mul_jacobian(g, h)
    products = (j_mul @ pairs).T            # rows: (v_g * v_h)^T
    rhs = pairs[:n].T @ ca_g.alpha + pairs[n:].T @ ca_h.alpha
    if linalg.numerical_rank(products, params.tol_rank) < n:
        raise SpanDeficiency("composable tangent products do not span the tangent space")
    alpha, _ = linalg.solve_min_norm(products, rhs)
    return CotangentArrow(gd.mul(np.concatenate([g, h])), alpha)


def validate_smooth_groupoid(gd: SmoothGroupoid, samples: int, rng,
                             params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Residuals of the five groupoid axioms at sampled tuples.

    Also verifies that the source and target are submersions at the
    sampled arrows (full-row-rank Jacobians).
    """
    residuals = {key: 0.0 for key in
                 ("i_source_target", "ii_associativity", "iii_unit_base",
                  "iv_unit_neutral", "v_inverse", "submersion")}
    witness = None

    def raw_mul(a, b):
        # unguarded: the validator must keep measuring on broken structures
        return gd.mul(np.concatenate([a, b]))

    for _ in range(samples):
        g, h, l = gd.composable_triple(rng)
        gh = raw_mul(g, h)
        residuals["i_source_target"] = max(
            residuals["i_source_target"],
            float(np.max(np.abs(gd.src(gh) - gd.src(h)))),
            float(np.max(np.abs(gd.tgt(gh) - gd.tgt(g)))))
        hl = raw_mul(h, l)
        assoc = float(np.max(np.abs(raw_mul(gh, l) - raw_mul(g, hl))))
        residuals["ii_associativity"] = max(residuals["ii_associativity"], assoc)

        p = gd.sample_object(rng)
        e = gd.unit(p)
        residuals["iii_unit_base"] = max(
            residuals["iii_unit_base"],
            float(np.max(np.abs(gd.src(e) - p))),
            float(np.max(np.abs(gd.tgt(e) - p))))

        residuals["iv_unit_neutral"] = max(
            residuals["iv_unit_neutral"],
            float(np.max(np.abs(raw_mul(g, gd.unit(gd.src(g))) - g))),
            float(np.max(np.abs(raw_mul(gd.unit(gd.tgt(g)), g) - g))))

        gi = gd.inv(g)
        residuals["v_inverse"] = max(
            residuals["v_inverse"],
            float(np.max(np.abs(gd.src(gi) - gd.tgt(g)))),
            float(np.max(np.abs(gd.tgt(gi) - gd.src(g)))),
            float(np.max(np.abs(raw_mul(g, gi) - gd.unit(gd.tgt(g))))),
            float(np.max(np.abs(raw_mul(gi, g) - gd.unit(gd.src(g))))))

        for jac in (gd.src.jacobian(g), gd.tgt.jacobian(g)):
            if linalg.numerical_rank(jac, params.tol_rank) < gd.dim_base:
                residuals["submersion"] = 1.0
                witness = g.tolist()

    worst = max(residuals.values())
    passed = worst <= params.tol_axiom and residuals["submersion"] == 0.0
    if not passed and witness is None:
        worst_key = max(residuals, key=residuals.get)
        witness = {"axiom": worst_key}
    return CheckReport("validate_smooth_groupoid", passed, worst,
                       witness=witness, details={"residuals": residuals})

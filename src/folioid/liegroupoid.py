"""Smooth groupoids as bundles of callable structure maps.

The multiplication is a smooth map on a neighborhood of the fiber product
inside G x G, evaluated on concatenated coordinates, so its plain Jacobian
realizes the tangent multiplication.  Covectors compose through the
defining pairing identity, solved as a least-squares system over a
spanning set of composable tangent directions.  Translations and both
products are linear on fibers, so each acts on a family of vectors given
as the columns of one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import NotComposable, SamplerError, SpanDeficiency, TangentNotComposable
from .geomcore import ChartManifold, Point, SmoothMap
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport, Worst

TOL_COMP = 1e-6  # source/target gap allowed for a composable pair


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
    sample_arrow: Optional[Callable] = None
    sample_object: Optional[Callable] = None
    sample_arrow_to: Optional[Callable] = None
    name: str = ""

    def compose(self, g: Point, h: Point) -> Point:
        _require_composable(self, g, h)
        return self.mul(np.concatenate([g, h], axis=-1))

    def mul_jacobian(self, g: Point, h: Point) -> np.ndarray:
        return self.mul.jacobian(np.concatenate([g, h], axis=-1))

    def composable_pair(self, rng) -> tuple:
        if self.sample_arrow is None or self.sample_arrow_to is None:
            raise SamplerError("groupoid has no samplers attached")
        g = self.sample_arrow(rng)
        h = self.sample_arrow_to(rng, self.src(g))
        gap = linalg.sup_norm(self.src(g) - self.tgt(h))
        if gap > TOL_COMP:
            raise SamplerError(f"sampler produced non-composable pair (gap {gap:.3e})")
        return g, h

    def composable_triple(self, rng) -> tuple:
        g, h = self.composable_pair(rng)
        l = self.sample_arrow_to(rng, self.src(h))
        return g, h, l


def _require_composable(gd: SmoothGroupoid, g: Point, h: Point) -> None:
    gap = linalg.sup_norm(gd.src(g) - gd.tgt(h))
    if gap > TOL_COMP:
        raise NotComposable(f"source/target gap {gap:.3e} exceeds {TOL_COMP:.3e}")


def algebroid_fiber(gd: SmoothGroupoid, p: Point,
                    params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of ker(Tt) at the unit over p, the algebroid fiber at p, as
    (space.dim, rank) columns; it has no columns when the groupoid is étale,
    as a quotient by S = TG is."""
    return linalg.null_basis(gd.tgt.jacobian(gd.unit(p)), params.tol_rank)


def tangent_mul(gd: SmoothGroupoid, g: Point, v_g: np.ndarray, h: Point, v_h: np.ndarray,
                params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Product v_g * v_h at g*h in the tangent prolongation: Jacobian of mul on (v_g, v_h).

    ``v_g`` and ``v_h`` are each one vector or an (n, k) matrix of k columns.
    """
    _require_composable(gd, g, h)
    tangent_gap = linalg.sup_norm(gd.src.jacobian(g) @ v_g - gd.tgt.jacobian(h) @ v_h)
    if tangent_gap > params.tol_tangent_comp:
        raise TangentNotComposable(f"tangent gap {tangent_gap:.3e}")
    return gd.mul_jacobian(g, h) @ np.concatenate([v_g, v_h])


def translate(gd: SmoothGroupoid, g: Point, h: Point, u: np.ndarray, side: str,
              params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """The columns of ``u`` at h, translated by g.

    ``side="left"`` gives TL_g u = 0_g * u at g*h, for u tangent to the
    t-fiber; ``side="right"`` gives TR_g u = u * 0_g at h*g, for u tangent
    to the s-fiber.  Translations are linear on fibers, so one block of the
    multiplication's Jacobian acts on every column at once.
    """
    n = gd.space.dim
    if side == "left":
        pair, proj, fiber, block = (g, h), gd.tgt, "t", slice(n, None)
    elif side == "right":
        pair, proj, fiber, block = (h, g), gd.src, "s", slice(None, n)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _require_composable(gd, *pair)
    resid = linalg.sup_norm(proj.jacobian(h) @ u)
    if resid > params.tol_tangent_comp:
        raise TangentNotComposable(
            f"u is not tangent to the {fiber}-fiber (|T{fiber} u| = {resid:.3e})")
    return gd.mul_jacobian(*pair)[:, block] @ u


def source_translates(gd: SmoothGroupoid, g: Point, fiber: np.ndarray,
                      params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """The algebroid basis at s(g) left-translated to g, one column per basis column."""
    return translate(gd, g, gd.unit(gd.src(g)), fiber, "left", params)


def target_translates(gd: SmoothGroupoid, g: Point, fiber: np.ndarray,
                      params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """The algebroid basis at t(g), s-projected and right-translated to g."""
    q = gd.tgt(g)
    e = gd.unit(q)
    # kill the base part: w in ker Ts
    w = fiber - gd.unit.jacobian(q) @ (gd.src.jacobian(e) @ fiber)
    return translate(gd, g, e, w, "right", params)


def composable_tangent_basis(gd: SmoothGroupoid, g: Point, h: Point,
                             params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Basis of the tangent space to the fiber product at (g, h).

    Columns are stacked (v_g, v_h) with Ts v_g = Tt v_h.
    """
    constraint = np.hstack([gd.src.jacobian(g), -gd.tgt.jacobian(h)])
    return linalg.null_basis(constraint, params.tol_rank)


def cotangent_mul(gd: SmoothGroupoid, g: Point, alpha_g: np.ndarray, h: Point,
                  alpha_h: np.ndarray, params: NumericParams = DEFAULT_PARAMS,
                  translates: Optional[tuple] = None) -> np.ndarray:
    """Product covectors at g*h determined by the additivity pairing.

    ``alpha_g`` and ``alpha_h`` are each one covector or an (n, k) matrix
    of k columns, each column composable with the same column at the other
    arrow.  One least-squares system, over a spanning set of composable
    tangent pairs, solves alpha(v_g * v_h) = alpha_g(v_g) + alpha_h(v_h)
    for every column; SpanDeficiency is raised when the tangent products
    fail to span the tangent space at g*h.  ``translates`` is the
    algebroid fiber at s(g) translated to g and to h, if the caller has it.
    """
    _require_composable(gd, g, h)
    if translates is None:
        fiber = algebroid_fiber(gd, gd.src(g), params)
        translates = (source_translates(gd, g, fiber, params),
                      target_translates(gd, h, fiber, params))
    gaps = np.abs(translates[0].T @ alpha_g - translates[1].T @ alpha_h).max(
        axis=0, initial=0.0)
    scales = np.maximum(1.0, np.maximum(np.linalg.norm(alpha_g, axis=0),
                                        np.linalg.norm(alpha_h, axis=0)))
    if np.any(gaps > params.tol_cot * scales):
        raise NotComposable(f"covectors not composable (gap {gaps.max(initial=0.0):.3e})")

    n = gd.space.dim
    pairs = composable_tangent_basis(gd, g, h, params)
    products = (gd.mul_jacobian(g, h) @ pairs).T  # rows: (v_g * v_h)^T
    rhs = pairs[:n].T @ alpha_g + pairs[n:].T @ alpha_h
    if linalg.numerical_rank(products, params.tol_rank) < n:
        raise SpanDeficiency("composable tangent products do not span the tangent space")
    return linalg.solve_min_norm(products, rhs)[0]


def validate_smooth_groupoid(gd: SmoothGroupoid, samples: int, rng,
                             params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Residuals of the five groupoid axioms at sampled tuples.

    Also verifies that the source and target are submersions at the
    sampled arrows (full-row-rank Jacobians).  A failure names the worst
    axiom as ``kind`` and its sample as ``at``.  Every tuple is drawn first;
    each structure map is then evaluated once on the stack of samples, and
    the residuals are seen in the order of a sample-by-sample pass.
    """
    worst = Worst("i_source_target", "ii_associativity", "iii_unit_base",
                  "iv_unit_neutral", "v_inverse", "submersion")
    draws = [(*gd.composable_triple(rng), gd.sample_object(rng)) for _ in range(samples)]
    g, h, l, p = (np.reshape([d[i] for d in draws], (samples, dim))
                  for i, dim in enumerate((gd.space.dim,) * 3 + (gd.base.dim,)))

    def raw_mul(a, b):
        # unguarded: the validator must keep measuring on broken structures
        return gd.mul(np.concatenate([a, b], axis=-1))

    def gap(got, want):
        return np.abs(got - want).max(axis=-1, initial=0.0)

    def pair(i):
        return [g[i].tolist(), h[i].tolist()]

    gh, gi, e, sg, tg = raw_mul(g, h), gd.inv(g), gd.unit(p), gd.src(g), gd.tgt(g)
    unit_s, unit_t = gd.unit(sg), gd.unit(tg)
    worst.see_each(
        ("i_source_target", gap(gd.src(gh), gd.src(h)), pair),
        ("i_source_target", gap(gd.tgt(gh), tg), pair),
        ("ii_associativity", gap(raw_mul(gh, l), raw_mul(g, raw_mul(h, l))),
         lambda i: pair(i) + [l[i].tolist()]),
        ("iii_unit_base", gap(gd.src(e), p), p.__getitem__),
        ("iii_unit_base", gap(gd.tgt(e), p), p.__getitem__),
        ("iv_unit_neutral", gap(raw_mul(g, unit_s), g), g.__getitem__),
        ("iv_unit_neutral", gap(raw_mul(unit_t, g), g), g.__getitem__),
        ("v_inverse", gap(gd.src(gi), tg), g.__getitem__),
        ("v_inverse", gap(gd.tgt(gi), sg), g.__getitem__),
        ("v_inverse", gap(raw_mul(g, gi), unit_t), g.__getitem__),
        ("v_inverse", gap(raw_mul(gi, g), unit_s), g.__getitem__),
        *(("submersion", linalg.numerical_rank(proj.jacobian(g), params.tol_rank)
           < gd.base.dim, g.__getitem__) for proj in (gd.src, gd.tgt)))
    return worst.report("validate_smooth_groupoid", params.tol_axiom,
                        {"residuals": worst.of}, ok=worst.of["submersion"] == 0.0)

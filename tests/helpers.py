"""Constructions and probes that only the tests use.

Each test module imports what it needs with ``from helpers import ...``;
pytest puts this directory on the import path.
"""

from __future__ import annotations

import dataclasses
import math
from typing import FrozenSet, Tuple

import numpy as np

from folioid import fingroupoid as fg
from folioid import linalg
from folioid.dirac import courant_bracket
from folioid.errors import FolioidError, NumericalBlowup
from folioid.geomcore import (ChartManifold, OneForm, Point, SmoothMap, VectorField,
                              central_difference, constant_field, constant_form)
from folioid.leafspace import LeafChart
from folioid.liegroupoid import (SmoothGroupoid, algebroid_fiber, source_translates,
                                 target_translates)
from folioid.multdist import Distribution, base_intersection_basis
from folioid.params import DEFAULT_PARAMS
from folioid.report import Worst
from folioid.scenarios import (group_action_pair_scenario, pair_scenario,
                               presymplectic_pair_dirac_scenario, vb_scenario)


def count_calls(monkeypatch, owner, name):
    """Count the calls to ``owner.name`` (a function or a method) for the rest of the test."""
    calls = []
    inner = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: calls.append(1) or inner(*args, **kwargs))
    return calls


# ---------------------------------------------------------------------------
# smooth constructions

def euclidean(dim: int) -> ChartManifold:
    return ChartManifold(dim)


def identity_map(m: ChartManifold) -> SmoothMap:
    return SmoothMap(m, m, lambda x: np.array(x, dtype=float),
                     jac=lambda x: np.eye(m.dim), name="id")


def pushforward(f: SmoothMap, x: Point, v: Point) -> Point:
    """Jacobian-vector product: the differential of ``f`` at x applied to v."""
    return f.jacobian(x) @ np.asarray(v, dtype=float)


def d_oneform(alpha: OneForm, x: Point, v: Point, w: Point,
              h: float = DEFAULT_PARAMS.h_fd) -> float:
    """Exterior derivative of a one-form on a pair of vectors.

    Uses constant extensions of v and w, whose bracket vanishes, so
    d(alpha)(v, w) = v(alpha(w)) - w(alpha(v)).
    """
    x = np.asarray(x, dtype=float)
    j = alpha.jacobian(x, h)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    out = float((j @ v) @ w - (j @ w) @ v)
    if not math.isfinite(out):
        raise NumericalBlowup(f"d(one-form) non-finite at {x}")
    return out


def lie_derivative_oneform(x_field: VectorField, beta: OneForm, x: Point) -> Point:
    """L_X beta at x: the covector part of the Courant bracket [(X, 0), (0, beta)]."""
    zero = np.zeros(x_field.domain.dim)
    return courant_bracket([(x_field, constant_form(x_field.domain, zero)),
                            (constant_field(x_field.domain, zero), beta)], x)[1][0]


def pair_lie_bracket(x_field: VectorField, y_field: VectorField, x: Point,
                     h: float = DEFAULT_PARAMS.h_fd) -> Point:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x) for one pair, by plain matrix-vector
    products: the reference for ``geomcore.lie_brackets``."""
    x = np.asarray(x, dtype=float)
    return y_field.jacobian(x, h) @ x_field(x) - x_field.jacobian(x, h) @ y_field(x)


def pair_courant_bracket(sec1, sec2, x: Point, h: float = DEFAULT_PARAMS.h_fd):
    """([X, Y], L_X beta - i_Y d alpha) at x for sec1 = (X, alpha) and
    sec2 = (Y, beta), one pair by plain matrix-vector products: the reference
    for ``dirac.courant_bracket``."""
    (x_field, alpha), (y_field, beta) = sec1, sec2
    x = np.asarray(x, dtype=float)
    x_val, y_val, beta_val = x_field(x), y_field(x), beta(x)
    x_jac, alpha_jac = x_field.jacobian(x, h), alpha.jacobian(x, h)
    lie = beta.jacobian(x, h) @ x_val + x_jac.T @ beta_val
    return (pair_lie_bracket(x_field, y_field, x, h),
            lie - (alpha_jac @ y_val - alpha_jac.T @ y_val))


def per_pair_check_involutive(dist: Distribution, points, params=DEFAULT_PARAMS):
    """``check_involutive`` one generator pair at a time: its reference."""
    worst = Worst()
    points = list(points)
    for x in points:
        basis = dist.fiber_basis(x, params.tol_rank)
        for i in range(len(dist.gens)):
            for j in range(i + 1, len(dist.gens)):
                bracket = pair_lie_bracket(dist.gens[i], dist.gens[j], x, params.h_fd)
                worst.see(linalg.span_residuals(bracket, basis)[0], pair=[i, j],
                          at=np.asarray(x))
    return worst.report("check_involutive", params.tol_member, {"points": len(points)})


def loop_jacobi_residual(pi, points, h: float = DEFAULT_PARAMS.h_fd) -> float:
    """``dirac.jacobi_residual`` as four nested loops over i < j < k and l: its
    reference."""
    totals = []
    for x in points:
        x = np.asarray(x, dtype=float)
        grad = central_difference(pi, x, h)  # grad[i, j, l] = d_l pi^{ij}
        pi_x = pi(x)
        n = x.size
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total = 0.0
                    for l in range(n):
                        total += (pi_x[i, l] * grad[j, k, l]
                                  + pi_x[j, l] * grad[k, i, l]
                                  + pi_x[k, l] * grad[i, j, l])
                    totals.append(total)
    return linalg.sup_norm(totals)


def graph_fields(base: ChartManifold):
    """Three nonlinear fields on R^4 with no Jacobian, independent on [-0.5, 0.5]^4
    (the minor of their first three coordinates is 1 - x0 cos x0 - x2 x3^2 > 0),
    whose pairwise brackets leave their span in three different directions."""
    return [VectorField(base, lambda x: np.array([1.0, x[2], 0.0, math.sin(x[1])]), name="X0"),
            VectorField(base, lambda x: np.array([x[3] ** 2, 1.0, x[0], 0.0]), name="X1"),
            VectorField(base, lambda x: np.array([0.0, math.cos(x[0]), 1.0, x[1] * x[2]]),
                        name="X2")]


def linear_field(base: ChartManifold, mat, name: str = "") -> VectorField:
    a = np.asarray(mat, dtype=float).copy()
    return VectorField(base, lambda x: a @ x, name=name)


def algebroid_anchor(gd: SmoothGroupoid, p: Point, fiber: np.ndarray) -> np.ndarray:
    """The anchor on the algebroid fiber at p: the source differential at the
    unit over p, applied columnwise."""
    return gd.src.jacobian(gd.unit(p)) @ fiber


def cotangent_source(gd: SmoothGroupoid, g: Point, alpha: np.ndarray, fiber: np.ndarray = None,
                     params=DEFAULT_PARAMS) -> np.ndarray:
    """Source of a covector alpha at g: its pairings with the algebroid basis
    at s(g), left-translated to g (the components of s^(alpha) in that basis)."""
    if fiber is None:
        fiber = algebroid_fiber(gd, gd.src(g), params)
    return source_translates(gd, g, fiber, params).T @ alpha


def cotangent_target(gd: SmoothGroupoid, g: Point, alpha: np.ndarray, fiber: np.ndarray = None,
                     params=DEFAULT_PARAMS) -> np.ndarray:
    """Target of a covector alpha at g: its pairings with the algebroid basis
    at t(g), s-projected and right-translated to g."""
    if fiber is None:
        fiber = algebroid_fiber(gd, gd.tgt(g), params)
    return target_translates(gd, g, fiber, params).T @ alpha


def pontryagin_pairing(elem1: Tuple[Point, Point], elem2: Tuple[Point, Point]) -> float:
    """<(v, a), (w, b)> = a(w) + b(v)."""
    v, a = (np.asarray(t, dtype=float) for t in elem1)
    w, b = (np.asarray(t, dtype=float) for t in elem2)
    return float(a @ w + b @ v)


def stacked_projector_intersection(b1, b2, tol: float = DEFAULT_PARAMS.tol_rank) -> np.ndarray:
    """Orthonormal basis of ``span(b1) & span(b2)``, an oracle for the one-SVD form.

    x lies in both spans iff both ``(I - P_i) x`` vanish, so the intersection
    is the null space of the two complement projectors stacked; each basis is
    orthonormalised first.
    """
    b1 = linalg.orth_basis(b1, tol)
    b2 = linalg.orth_basis(b2, tol)
    n = b1.shape[0]
    return linalg.null_basis(np.vstack([np.eye(n) - b1 @ b1.T, np.eye(n) - b2 @ b2.T]), tol)


def same_leaf(chart: LeafChart, x: Point, y: Point,
              tol_leaf: float = DEFAULT_PARAMS.tol_leaf) -> bool:
    """Same leaf upstairs: labels agree within tol_leaf."""
    return float(np.max(np.abs(chart.lambda_g(x) - chart.lambda_g(y)))) <= tol_leaf


def pair_rank2_scenario():
    """D = span{e0, e1} on R^4, so S ∩ TP and S ∩ AG have rank 2."""
    return pair_scenario(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


# The ranks of S, S ∩ TP and S ∩ ker Tt (S_t, equal in rank to S_s) and the
# object and arrow label dimensions of each builtin smooth scenario, read off
# by hand from its D, W x F, orbit or kernel at the builder's defaults.
SMOOTH_EXPECTED = {
    pair_scenario: dict(S=2, S_cap_TP=1, S_t=1, object_label_dim=1, arrow_label_dim=2),
    vb_scenario: dict(S=2, S_cap_TP=1, S_t=1, object_label_dim=1, arrow_label_dim=2),
    group_action_pair_scenario: dict(S=1, S_cap_TP=1, S_t=0, object_label_dim=1,
                                     arrow_label_dim=3),
    presymplectic_pair_dirac_scenario: dict(S=2, S_cap_TP=1, S_t=1, object_label_dim=2,
                                            arrow_label_dim=4),
    pair_rank2_scenario: dict(S=4, S_cap_TP=2, S_t=2, object_label_dim=2, arrow_label_dim=4),
}


def cubic_pair_groupoid(mul=None) -> Tuple[SmoothGroupoid, Distribution]:
    """pair(R^2) in the arrow coordinates y = phi(a, b) = (a0, a1 + a0^3, b0, b1 + b0^3),
    with S = D x D for D = span e0 carried along; every map is a per-point
    lambda without a Jacobian.  ``mul``, a 4 x 8 matrix, replaces the pair
    product in the old coordinates, as a skewed twin does."""
    gd = pair_scenario().groupoid
    mul = gd.mul.fn if mul is None else (lambda xx, m=np.asarray(mul, dtype=float): m @ xx)

    def phi(x):
        return x + np.array([0.0, x[0] ** 3, 0.0, x[2] ** 3])

    def back(y):
        return y - np.array([0.0, y[0] ** 3, 0.0, y[2] ** 3])

    def per_point(domain, codomain, fn):
        return SmoothMap(domain, codomain, fn)

    cubic = dataclasses.replace(
        gd, src=per_point(gd.space, gd.base, lambda y: gd.src(back(y))),
        tgt=per_point(gd.space, gd.base, lambda y: gd.tgt(back(y))),
        unit=per_point(gd.base, gd.space, lambda p: phi(gd.unit(p))),
        inv=per_point(gd.space, gd.space, lambda y: phi(gd.inv(back(y)))),
        mul=per_point(gd.mul.domain, gd.space,
                      lambda yy: phi(mul(np.concatenate([back(yy[:4]), back(yy[4:])])))),
        sample_arrow=lambda rng: phi(gd.sample_arrow(rng)),
        sample_arrow_to=lambda rng, p: phi(gd.sample_arrow_to(rng, p)))
    dist = Distribution(gd.space, [
        VectorField(gd.space, lambda y: np.array([1.0, 3.0 * y[0] ** 2, 0.0, 0.0])),
        VectorField(gd.space, lambda y: np.array([0.0, 0.0, 1.0, 3.0 * y[2] ** 2]))])
    return cubic, dist


def per_point_validate_smooth_groupoid(gd: SmoothGroupoid, samples: int, rng,
                                       params=DEFAULT_PARAMS):
    """``validate_smooth_groupoid`` one sample at a time: its reference."""
    worst = Worst("i_source_target", "ii_associativity", "iii_unit_base",
                  "iv_unit_neutral", "v_inverse", "submersion")

    def raw_mul(a, b):
        return gd.mul(np.concatenate([a, b]))

    for _ in range(samples):
        g, h, l = gd.composable_triple(rng)
        pair = [g.tolist(), h.tolist()]
        gh = raw_mul(g, h)
        worst.see(linalg.sup_norm(gd.src(gh) - gd.src(h)), kind="i_source_target", at=pair)
        worst.see(linalg.sup_norm(gd.tgt(gh) - gd.tgt(g)), kind="i_source_target", at=pair)
        hl = raw_mul(h, l)
        worst.see(linalg.sup_norm(raw_mul(gh, l) - raw_mul(g, hl)), kind="ii_associativity",
                  at=pair + [l.tolist()])
        p = gd.sample_object(rng)
        e = gd.unit(p)
        worst.see(linalg.sup_norm(gd.src(e) - p), kind="iii_unit_base", at=p)
        worst.see(linalg.sup_norm(gd.tgt(e) - p), kind="iii_unit_base", at=p)
        for unit_side in (raw_mul(g, gd.unit(gd.src(g))), raw_mul(gd.unit(gd.tgt(g)), g)):
            worst.see(linalg.sup_norm(unit_side - g), kind="iv_unit_neutral", at=g)
        gi = gd.inv(g)
        for got, want in ((gd.src(gi), gd.tgt(g)), (gd.tgt(gi), gd.src(g)),
                          (raw_mul(g, gi), gd.unit(gd.tgt(g))),
                          (raw_mul(gi, g), gd.unit(gd.src(g)))):
            worst.see(linalg.sup_norm(got - want), kind="v_inverse", at=g)
        for jac in (gd.src.jacobian(g), gd.tgt.jacobian(g)):
            if linalg.numerical_rank(jac, params.tol_rank) < gd.base.dim:
                worst.see(1.0, kind="submersion", at=g)
    return worst.report("validate_smooth_groupoid", params.tol_axiom,
                        {"residuals": worst.of}, ok=worst.of["submersion"] == 0.0)


def per_pair_check_multiplicative(gd: SmoothGroupoid, dist: Distribution, samples: int, rng,
                                  params=DEFAULT_PARAMS):
    """``check_multiplicative`` one composable pair at a time: its reference."""
    worst = Worst()
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
                worst.see(linalg.max_span_residual(proj.jacobian(point) @ basis,
                                                   downstairs_at[key]),
                          kind="projection", at=point)

        constraint = np.hstack([gd.src.jacobian(g) @ basis_g,
                                -(gd.tgt.jacobian(h) @ basis_h)])
        coeffs = linalg.null_basis(constraint, params.tol_rank)
        joint = np.vstack([basis_g @ coeffs[: basis_g.shape[1]],
                           basis_h @ coeffs[basis_g.shape[1]:]])
        worst.see(linalg.max_span_residual(gd.mul_jacobian(g, h) @ joint,
                                           dist.fiber_basis(gd.compose(g, h), params.tol_rank)),
                  kind="product", at=[g.tolist(), h.tolist()])
        worst.see(linalg.max_span_residual(gd.inv.jacobian(g) @ basis_g,
                                           dist.fiber_basis(gd.inv(g), params.tol_rank)),
                  kind="inversion", at=g)
    return worst.report("check_multiplicative", params.tol_member, {"samples": samples})


# ---------------------------------------------------------------------------
# finite constructions

def kernel_of_morphism(f: fg.FiniteMorphism) -> FrozenSet[int]:
    """Arrows mapped onto unit arrows of the target.

    The result is asserted to be a normal subgroupoid of the source.
    """
    report = fg.validate_morphism(f)
    if not report.valid:
        raise ValueError(f"not a morphism: {report.violations[:3]}")
    units2 = f.target.unit_arrows()
    kernel = frozenset(a for a in f.source.arrows if f.arrow_map[a] in units2)
    ok, witness = fg.is_normal_subgroupoid(f.source, kernel)
    if not ok:
        raise FolioidError(f"kernel is not normal, witness {witness}")
    return kernel


def cyclic_group_groupoid(order: int) -> fg.FiniteGroupoid:
    """Z/n as a one-object groupoid."""
    objects = (0,)
    arrows = tuple(range(order))
    src = {a: 0 for a in arrows}
    tgt = {a: 0 for a in arrows}
    unit = {0: 0}
    inv = {a: (-a) % order for a in arrows}
    mul = {(a, b): (a + b) % order for a in arrows for b in arrows}
    return fg.FiniteGroupoid(objects, arrows, src, tgt, unit, inv, mul)


def trivial_nss(g: fg.FiniteGroupoid) -> fg.NormalSubgroupoidSystem:
    n = g.unit_arrows()
    relation = frozenset((p, p) for p in g.objects)
    theta = {((p, p), a): a for p in g.objects for a in g.arrows if g.tgt[a] == p}
    return fg.make_nss(g, n, relation, theta)


def all_arrows_validate_groupoid(g: fg.FiniteGroupoid) -> fg.ValidationReport:
    """``fg.validate_groupoid`` as it was written before it listed the arrows
    into each object: every loop filters all arrows by an endpoint.  It is
    the reference for the order of the violations."""
    fg.check_structure(g)
    report = fg.ValidationReport()

    composable = set((a, b) for a in g.arrows for b in g.arrows if g.src[a] == g.tgt[b])
    for pair in g.mul:
        if pair not in composable:
            report.add("mul_domain", ("defined_on_non_composable",) + pair)
    for pair in composable:
        if pair not in g.mul:
            report.add("mul_domain", ("missing_composable",) + pair)

    def mul_or_none(a, b):
        return g.mul.get((a, b))

    for (a, b) in composable:
        c = mul_or_none(a, b)
        if c is None:
            continue
        if g.src[c] != g.src[b] or g.tgt[c] != g.tgt[a]:
            report.add("i_source_target", (a, b, c))

    for (a, b) in composable:
        ab = mul_or_none(a, b)
        if ab is None:
            continue
        for c in g.arrows:
            if g.src[b] != g.tgt[c]:
                continue
            bc = mul_or_none(b, c)
            left = mul_or_none(ab, c) if g.src[ab] == g.tgt[c] else None
            right = mul_or_none(a, bc) if bc is not None and g.src[a] == g.tgt[bc] else None
            if left is None or right is None or left != right:
                report.add("ii_associativity", (a, b, c))

    for p in g.objects:
        e = g.unit[p]
        if g.src[e] != p or g.tgt[e] != p:
            report.add("iii_unit_base", (p, e))

    for a in g.arrows:
        e_s = g.unit[g.src[a]]
        e_t = g.unit[g.tgt[a]]
        if mul_or_none(a, e_s) != a:
            report.add("iv_unit_neutral", (a, e_s, "right"))
        if mul_or_none(e_t, a) != a:
            report.add("iv_unit_neutral", (a, e_t, "left"))

    for a in g.arrows:
        b = g.inv[a]
        if g.src[b] != g.tgt[a] or g.tgt[b] != g.src[a]:
            report.add("v_inverse", (a, b, "base"))
            continue
        if mul_or_none(a, b) != g.unit[g.tgt[a]] or mul_or_none(b, a) != g.unit[g.src[a]]:
            report.add("v_inverse", (a, b, "product"))

    for a in g.arrows:
        for h in g.arrows:
            if g.src[h] == g.tgt[a]:
                ha = mul_or_none(h, a)
                if ha == a and h != g.unit[g.tgt[a]]:
                    report.add("unicity_left_unit", (h, a))
                if ha == g.unit[g.src[a]] and h != g.inv[a]:
                    report.add("unicity_left_inverse", (h, a))
            if g.tgt[h] == g.src[a]:
                ah = mul_or_none(a, h)
                if ah == a and h != g.unit[g.src[a]]:
                    report.add("unicity_right_unit", (a, h))
                if ah == g.unit[g.tgt[a]] and h != g.inv[a]:
                    report.add("unicity_right_inverse", (a, h))

    return report

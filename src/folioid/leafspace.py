"""Leaf machinery: membership by first integrals, leafwise transport,
the multiplication-compatibility condition, and the induced groupoid
structure on the space of leaves.

Scenarios supply first-integral maps labeling the leaves; the engine
verifies them rather than discovering them, because numerically building
a leaf space from scratch is ill posed.  Leaf identity is therefore a
label comparison, and every quotient-level value carries a representative
point upstairs that can be exchanged along random leafwise flows to audit
well-definedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (Condition6Violated, RankDrift, TransportFailed,
                     WellDefinednessViolated)
from .geomcore import Point, SmoothMap, VectorField, flow
from .liegroupoid import (CotangentArrow, SmoothGroupoid, TangentArrow, algebroid_fiber,
                          composable_tangent_basis, cotangent_mul, pairings,
                          source_translates, tangent_mul, target_translates)
from .multdist import (Distribution, algebroid_intersection_basis,
                       base_intersection_basis, fiber_kernel_intersection,
                       lift_at_point)
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport


@dataclass
class LeafChart:
    """First integrals labeling the leaves upstairs and downstairs.

    ``lambda_g`` labels leaves of S on the arrow space; ``lambda_p`` labels
    leaves of S ∩ TP on the base.  Equal labels mean same leaf.
    """

    lambda_g: SmoothMap
    lambda_p: SmoothMap

    @property
    def arrow_label_dim(self) -> int:
        return self.lambda_g.codomain.dim

    @property
    def object_label_dim(self) -> int:
        return self.lambda_p.codomain.dim


@dataclass(frozen=True)
class QuotientArrow:
    """A leaf of S: its label, plus one representative point upstairs."""

    label: np.ndarray
    representative: np.ndarray


def quotient_arrow(chart: LeafChart, g: Point) -> QuotientArrow:
    return QuotientArrow(chart.lambda_g(g), np.asarray(g, dtype=float))


def check_leaf_chart(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                     samples: int, rng,
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """First-integral contract: labels annihilate the distribution.

    d(lambda_g) kills every generator of S, d(lambda_p) kills S ∩ TP, and
    (spot check) straight segments between equal-label points stay in the
    leaf.
    """
    worst = 0.0
    witness = None
    for _ in range(samples):
        g = gd.sample_arrow(rng)
        p = gd.sample_object(rng)
        jg = chart.lambda_g.jacobian(g)
        for gen in dist.gens:
            v = gen(g)
            resid = float(np.max(np.abs(jg @ v))) / max(1.0, float(np.linalg.norm(v)))
            if resid > worst:
                worst, witness = resid, {"kind": "arrow_integral", "at": g.tolist()}
        jp = chart.lambda_p.jacobian(p)
        downstairs = base_intersection_basis(gd, dist, p, params)
        for j in range(downstairs.shape[1]):
            resid = float(np.max(np.abs(jp @ downstairs[:, j])))
            if resid > worst:
                worst, witness = resid, {"kind": "base_integral", "at": p.tolist()}

        # separation spot check: a leafwise straight step keeps the label
        basis = dist.fiber_basis(g, params.tol_rank)
        if basis.shape[1]:
            step = basis @ rng.standard_normal(basis.shape[1])
            moved = g + 0.5 * step
            drift = float(np.max(np.abs(chart.lambda_g(moved) - chart.lambda_g(g))))
            if drift > worst:
                worst, witness = drift, {"kind": "affine_leaf_step", "at": g.tolist()}
    passed = worst <= params.tol_fi
    return CheckReport("check_leaf_chart", passed, worst,
                       witness=None if passed else witness,
                       details={"samples": samples})


def _flow_tol(params: NumericParams) -> float:
    """Local error budget of leafwise flows, well inside the tolerances
    that judge where they end."""
    return 1e-4 * min(params.tol_leaf, params.tol_target)


def transport_to_target(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                        g: Point, p: Point,
                        params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Move g inside its leaf until its target hits p.

    Follows the straight chart segment from t(g) to p, which stays in the
    base leaf whenever the base leaves are affine: g flows for unit time
    along the field that lifts the segment velocity (t-mode, min-norm) into
    the distribution, integrated with error control (Dormand-Prince 5(4)).
    A TransportFailed names the arrow, the target and the label gap or
    end-point residual.
    """
    g = np.asarray(g, dtype=float)
    p = np.asarray(p, dtype=float)

    def failed(message, **gap):
        return TransportFailed(message, witness={"arrow": g.tolist(), "target": p.tolist(), **gap})

    anchor = gd.tgt(g)
    base_label = chart.lambda_p(anchor)
    gap = float(np.max(np.abs(base_label - chart.lambda_p(p))))
    if gap > params.tol_leaf:
        raise failed(f"target {p} is not in the base leaf of t(g) = {anchor}", label_gap=gap)

    start_label = chart.lambda_g(g)
    current = g
    velocity = p - anchor
    if float(np.linalg.norm(velocity)) >= 1e-14:
        # the segment must stay inside the base leaf
        for tau in (0.5, 1.0):
            probe = anchor + tau * velocity
            drift = float(np.max(np.abs(chart.lambda_p(probe) - base_label)))
            if drift > params.tol_fi:
                raise failed(f"straight path leaves the base leaf (label drift {drift:.3e})",
                             label_gap=drift)

        def lifted(x):
            return lift_at_point(gd, dist, x, velocity, "t", params)

        field = VectorField(gd.space, lifted, name="transport-lift")
        current = flow(field, current, 1.0, tol=_flow_tol(params))

    residual = float(np.max(np.abs(gd.tgt(current) - p)))
    if residual > params.tol_target:
        raise failed(f"transport endpoint misses target by {residual:.3e}", residual=residual)
    drift = float(np.max(np.abs(chart.lambda_g(current) - start_label)))
    if drift > params.tol_leaf:
        raise failed(f"transport left the leaf (label drift {drift:.3e})", label_gap=drift)
    return current


# ---------------------------------------------------------------------------
# leafwise random walks (used to probe leaves and audit representatives)

def _walk(gd: SmoothGroupoid, basis_at, start: Point, rng,
          params: NumericParams, hops: int, name: str) -> np.ndarray:
    """Random composition of flows of the subbundle ``basis_at`` spans.

    Each hop draws a unit direction w in the fiber at its start and flows
    along x -> P(x) w, the orthogonal projection of w onto the fiber at x,
    which does not depend on the basis the SVD returns.
    """
    current = np.asarray(start, dtype=float)
    for _ in range(hops):
        basis = basis_at(current)
        if basis.shape[1] == 0:
            return current
        coeff = rng.standard_normal(basis.shape[1])
        norm = float(np.linalg.norm(coeff))
        if norm < 1e-12:
            continue
        coeff /= norm

        def fn(x, w=basis @ coeff):
            b = basis_at(x)
            return b @ (b.T @ w)

        field = VectorField(gd.space, fn, name=name)
        time = float(rng.uniform(-params.flow_time, params.flow_time))
        current = flow(field, current, time, tol=_flow_tol(params))
    return current


def random_t_fiber_point(gd: SmoothGroupoid, dist: Distribution, start: Point,
                         rng, params: NumericParams,
                         hops: int = 2) -> np.ndarray:
    """Random composition of flows of S ∩ ker Tt starting at ``start``."""
    return _walk(gd, lambda x: fiber_kernel_intersection(gd, dist, x, "t", params),
                 start, rng, params, hops, "S_t-walk")


def random_leaf_point(gd: SmoothGroupoid, dist: Distribution, start: Point,
                      rng, params: NumericParams, hops: int = 3) -> np.ndarray:
    """Random composition of flows of S starting at ``start``."""
    return _walk(gd, lambda x: dist.fiber_basis(x, params.tol_rank), start, rng, params,
                 hops, "S-walk")


def check_condition6(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                     samples: int, rng,
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Sampled test of g * ([s(g)] ∩ t-fiber) = [g] ∩ t-fiber.

    Forward: flow the unit over s(g) along S ∩ ker Tt, multiply by g on the
    left, and require the result to stay in the leaf of g over the same
    target.  Backward: flow g itself along S ∩ ker Tt, multiply by the
    inverse, and require a point of the unit leaf over s(g).
    A residual above tol_leaf raises Condition6Violated: the quotient
    multiplication would be ill defined.  Its witness names the arrow, the
    sample index, the worse direction and the residual.
    """
    worst = 0.0
    for k in range(samples):
        g = gd.sample_arrow(rng)
        sp = gd.src(g)
        unit_sp = gd.unit(sp)

        n_point = random_t_fiber_point(gd, dist, unit_sp, rng, params)
        target_gap = float(np.max(np.abs(gd.tgt(n_point) - sp)))
        gn = gd.compose(g, n_point)
        forward = max(
            float(np.max(np.abs(chart.lambda_g(gn) - chart.lambda_g(g)))),
            float(np.max(np.abs(gd.tgt(gn) - gd.tgt(g)))),
            target_gap)

        h_point = random_t_fiber_point(gd, dist, g, rng, params)
        back = gd.compose(gd.inv(g), h_point)
        backward = max(
            float(np.max(np.abs(chart.lambda_g(back) - chart.lambda_g(unit_sp)))),
            float(np.max(np.abs(gd.tgt(back) - sp))))

        resid = max(forward, backward)
        if resid > params.tol_leaf:
            raise Condition6Violated(
                f"condition (6) residual {resid:.3e} at sample {k}, arrow {g.tolist()}",
                witness={"arrow": g.tolist(), "sample": k,
                         "direction": "forward" if forward >= backward else "backward",
                         "residual": resid})
        worst = max(worst, resid)
    return CheckReport("check_condition6", True, worst,
                       details={"samples": samples})


# ---------------------------------------------------------------------------
# quotient structure maps

def resample_representative(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                            q: QuotientArrow, rng,
                            params: NumericParams = DEFAULT_PARAMS,
                            hops: int = 3) -> QuotientArrow:
    """Exchange the representative along random S-flows; the label must hold.

    A violation names the representative, the moved point and the drift.
    """
    moved = random_leaf_point(gd, dist, q.representative, rng, params, hops=hops)
    drift = float(np.max(np.abs(chart.lambda_g(moved) - q.label)))
    if drift > params.tol_leaf:
        raise WellDefinednessViolated(
            f"representative walk drifted labels by {drift:.3e}",
            witness={"representative": q.representative.tolist(), "moved": moved.tolist(),
                     "drift": drift})
    return QuotientArrow(q.label, moved)


def quotient_source(chart: LeafChart, gd: SmoothGroupoid, q: QuotientArrow) -> np.ndarray:
    return chart.lambda_p(gd.src(q.representative))


def quotient_target(chart: LeafChart, gd: SmoothGroupoid, q: QuotientArrow) -> np.ndarray:
    return chart.lambda_p(gd.tgt(q.representative))


def quotient_unit(chart: LeafChart, gd: SmoothGroupoid, p: Point) -> QuotientArrow:
    """Unit leaf over a base point (given upstairs)."""
    return quotient_arrow(chart, gd.unit(p))


def quotient_inverse(chart: LeafChart, gd: SmoothGroupoid, q: QuotientArrow) -> QuotientArrow:
    return quotient_arrow(chart, gd.inv(q.representative))


def quotient_mul(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                 q1: QuotientArrow, q2: QuotientArrow,
                 params: NumericParams = DEFAULT_PARAMS,
                 rng=None, verify: bool = False) -> QuotientArrow:
    """Product of leaves: transport the second representative, then multiply.

    With ``verify`` set, both representatives are exchanged along random
    S-flows and the product label is required to be unchanged; failure
    raises Condition6Violated since that is exactly what independence of
    representatives encodes.  Its witness names both representatives, both
    alternates and the label drift.
    """
    rep1 = q1.representative
    gap = float(np.max(np.abs(quotient_source(chart, gd, q1) -
                              quotient_target(chart, gd, q2))))
    if gap > params.tol_leaf:
        raise TransportFailed(f"leaves not composable (label gap {gap:.3e})", witness={
            "arrow": q2.representative.tolist(), "target": gd.src(rep1).tolist(), "label_gap": gap})
    transported = transport_to_target(gd, dist, chart, q2.representative,
                                      gd.src(rep1), params)
    product = gd.compose(rep1, transported)
    result = QuotientArrow(chart.lambda_g(product), product)

    if verify:
        if rng is None:
            raise ValueError("verify=True needs an rng")
        alt1 = resample_representative(gd, dist, chart, q1, rng, params)
        alt2 = resample_representative(gd, dist, chart, q2, rng, params)
        transported_alt = transport_to_target(gd, dist, chart, alt2.representative,
                                              gd.src(alt1.representative), params)
        alt_label = chart.lambda_g(gd.compose(alt1.representative, transported_alt))
        drift = float(np.max(np.abs(alt_label - result.label)))
        if drift > params.tol_leaf:
            raise Condition6Violated(
                f"product label depends on representatives (drift {drift:.3e})",
                witness={"representatives": [q.representative.tolist() for q in (q1, q2)],
                         "alternates": [q.representative.tolist() for q in (alt1, alt2)],
                         "drift": drift})
    return result


def validate_quotient_groupoid(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                               samples: int, rng,
                               params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Groupoid axioms for the induced label algebra, and the morphism square.

    Works on sampled composable tuples upstairs, comparing label-level
    values only; representative independence is audited on a subset.
    """
    residuals = {key: 0.0 for key in
                 ("morphism", "i_source_target", "ii_associativity",
                  "iii_unit_base", "iv_unit_neutral", "v_inverse",
                  "representative_independence")}
    audit_every = max(1, samples // 10)
    for k in range(samples):
        g, h, l = gd.composable_triple(rng)
        qg, qh, ql = (quotient_arrow(chart, x) for x in (g, h, l))

        qgh = quotient_mul(gd, dist, chart, qg, qh, params,
                           rng=rng, verify=(k % audit_every == 0))
        residuals["morphism"] = max(
            residuals["morphism"],
            float(np.max(np.abs(chart.lambda_g(gd.compose(g, h)) - qgh.label))))

        residuals["i_source_target"] = max(
            residuals["i_source_target"],
            float(np.max(np.abs(quotient_source(chart, gd, qgh) -
                                quotient_source(chart, gd, qh)))),
            float(np.max(np.abs(quotient_target(chart, gd, qgh) -
                                quotient_target(chart, gd, qg)))))

        qhl = quotient_mul(gd, dist, chart, qh, ql, params)
        assoc = float(np.max(np.abs(
            quotient_mul(gd, dist, chart, qgh, ql, params).label -
            quotient_mul(gd, dist, chart, qg, qhl, params).label)))
        residuals["ii_associativity"] = max(residuals["ii_associativity"], assoc)

        p = gd.sample_object(rng)
        qe = quotient_unit(chart, gd, p)
        residuals["iii_unit_base"] = max(
            residuals["iii_unit_base"],
            float(np.max(np.abs(quotient_source(chart, gd, qe) - chart.lambda_p(p)))),
            float(np.max(np.abs(quotient_target(chart, gd, qe) - chart.lambda_p(p)))))

        unit_s = quotient_unit(chart, gd, gd.src(g))
        unit_t = quotient_unit(chart, gd, gd.tgt(g))
        residuals["iv_unit_neutral"] = max(
            residuals["iv_unit_neutral"],
            float(np.max(np.abs(quotient_mul(gd, dist, chart, qg, unit_s, params).label -
                                qg.label))),
            float(np.max(np.abs(quotient_mul(gd, dist, chart, unit_t, qg, params).label -
                                qg.label))))

        qi = quotient_inverse(chart, gd, qg)
        residuals["v_inverse"] = max(
            residuals["v_inverse"],
            float(np.max(np.abs(quotient_mul(gd, dist, chart, qg, qi, params).label -
                                unit_t.label))),
            float(np.max(np.abs(quotient_mul(gd, dist, chart, qi, qg, params).label -
                                unit_s.label))))

        if k % audit_every == 0:
            moved = resample_representative(gd, dist, chart, qg, rng, params)
            recomputed = np.concatenate([
                quotient_source(chart, gd, moved) - quotient_source(chart, gd, qg),
                quotient_target(chart, gd, moved) - quotient_target(chart, gd, qg),
            ])
            residuals["representative_independence"] = max(
                residuals["representative_independence"],
                float(np.max(np.abs(recomputed))))

    worst = max(residuals.values())
    passed = worst <= max(params.tol_axiom, params.tol_leaf)
    return CheckReport("validate_quotient_groupoid", passed, worst,
                       details={"sampled_axiom_residuals": residuals,
                                "object_label_dim": chart.object_label_dim,
                                "arrow_label_dim": chart.arrow_label_dim,
                                "samples": samples})


# ---------------------------------------------------------------------------
# lifted tangent/cotangent structures (needs explicit quotient structure maps)

def check_lifted_structures(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                            quotient: SmoothGroupoid, samples: int, rng,
                            params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Projection compatibility of the tangent and cotangent products.

    Tangent: random composable tangent pairs downstairs are lifted through
    the label projection, corrected by a distribution vector so their
    upstairs product exists, and the pushed-down product must match the
    quotient groupoid's own tangent product.  Cotangent: covectors pulled
    back through the projection must multiply to the pullback of the
    quotient product.  Both sides of each identity go through independent
    code paths.
    """
    worst_tan = 0.0
    worst_cot = 0.0
    for _ in range(samples):
        g, h = gd.composable_pair(rng)
        label_g, label_h = chart.lambda_g(g), chart.lambda_g(h)
        jl_g = chart.lambda_g.jacobian(g)
        jl_h = chart.lambda_g.jacobian(h)
        prod = gd.compose(g, h)
        jl_prod = chart.lambda_g.jacobian(prod)

        # --- tangent identity
        pairs = composable_tangent_basis(quotient, label_g, label_h, params)
        coeff = rng.standard_normal(pairs.shape[1])
        joint = pairs @ coeff
        v_qg, v_qh = joint[:quotient.dim_space], joint[quotient.dim_space:]

        v_g, _ = linalg.solve_min_norm(jl_g, v_qg)
        v_h, _ = linalg.solve_min_norm(jl_h, v_qh)
        mismatch = gd.src.jacobian(g) @ v_g - gd.tgt.jacobian(h) @ v_h
        basis_g = dist.fiber_basis(g, params.tol_rank)
        w_coeff, w_resid = linalg.solve_min_norm(gd.src.jacobian(g) @ basis_g, mismatch)
        if w_resid > params.tol_lift:
            worst_tan = max(worst_tan, w_resid)
            continue
        w_g = basis_g @ w_coeff

        upstairs = tangent_mul(gd, TangentArrow(g, v_g - w_g), TangentArrow(h, v_h),
                               params)
        downstairs = tangent_mul(quotient, TangentArrow(label_g, v_qg),
                                 TangentArrow(label_h, v_qh), params)
        resid = float(np.max(np.abs(jl_prod @ upstairs.v - downstairs.v)))
        worst_tan = max(worst_tan, resid)

        # --- cotangent identity
        fiber_q = algebroid_fiber(quotient, quotient.src(label_g), params)
        translates_q = (source_translates(quotient, label_g, fiber_q, params),
                        target_translates(quotient, label_h, fiber_q, params))
        alpha_qg = rng.standard_normal(quotient.dim_space)
        source_val = pairings(alpha_qg, translates_q[0])
        target_matrix = np.column_stack([pairings(e, translates_q[1])
                                         for e in np.eye(quotient.dim_space)])
        alpha_qh, solve_resid = linalg.solve_min_norm(target_matrix, source_val)
        if solve_resid > params.tol_cot:
            continue

        down = cotangent_mul(quotient, CotangentArrow(label_g, alpha_qg),
                             CotangentArrow(label_h, alpha_qh), params, translates_q)
        lhs = cotangent_mul(gd, CotangentArrow(g, jl_g.T @ alpha_qg),
                            CotangentArrow(h, jl_h.T @ alpha_qh), params)
        resid = float(np.max(np.abs(lhs.alpha - jl_prod.T @ down.alpha)))
        worst_cot = max(worst_cot, resid)

    worst = max(worst_tan, worst_cot)
    return CheckReport("check_lifted_structures", worst <= params.tol_lift, worst,
                       details={"tangent_max_residual": worst_tan,
                                "cotangent_max_residual": worst_cot,
                                "samples": samples})


# ---------------------------------------------------------------------------
# ideal-system conditions for the induced algebroid data

def check_ideal_system(gd: SmoothGroupoid, dist: Distribution, chart: LeafChart,
                       samples: int, rng,
                       params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Numerical ideal-system conditions for (S ∩ AG, base relation, transport).

    Checks that S ∩ AG has constant rank over sampled base points, that the
    anchor sends it into ker(T lambda_p), and that the induced map from
    algebroid classes to base tangent classes is equivariant under the
    transport of classes across equal base labels: the infinitesimal ideal
    system of Jotz Lean & Ortiz, "Foliated groupoids and infinitesimal
    ideal systems", Indag. Math. (2014).
    """
    rank_seen = None
    worst_anchor = 0.0
    worst_equiv = 0.0
    witness = None
    for _ in range(samples):
        p = gd.sample_object(rng)
        sub = algebroid_intersection_basis(gd, dist, p, params)
        if rank_seen is None:
            rank_seen = sub.shape[1]
        elif sub.shape[1] != rank_seen:
            raise RankDrift(f"S ∩ AG rank drifts: {sub.shape[1]} vs {rank_seen}",
                            location=p)

        e = gd.unit(p)
        j_src = gd.src.jacobian(e)
        j_lambda_p = chart.lambda_p.jacobian(p)
        for j in range(sub.shape[1]):
            anchored = j_src @ sub[:, j]
            resid = float(np.max(np.abs(j_lambda_p @ anchored)))
            if resid > worst_anchor:
                worst_anchor, witness = resid, {"kind": "anchor", "at": p.tolist()}

        # equivariance across a base-leaf displacement
        downstairs = base_intersection_basis(gd, dist, p, params)
        if downstairs.shape[1]:
            step = downstairs @ rng.standard_normal(downstairs.shape[1])
            q = p + 0.5 * step
        else:
            q = p
        eq = gd.unit(q)
        fiber_q = algebroid_fiber(gd, q, params)
        column = fiber_q.basis[:, int(rng.integers(fiber_q.basis.shape[1]))]
        # transport the class: match images under the arrow-label projection
        fiber_p = algebroid_fiber(gd, p, params)
        constraint = chart.lambda_g.jacobian(e) @ fiber_p.basis
        rhs = chart.lambda_g.jacobian(eq) @ column
        coeff, resid = linalg.solve_min_norm(constraint, rhs)
        if resid > params.tol_member:
            worst_equiv = max(worst_equiv, resid)
            witness = {"kind": "class_transport", "at": p.tolist()}
            continue
        u_p = fiber_p.basis @ coeff
        lhs = chart.lambda_p.jacobian(p) @ (gd.src.jacobian(e) @ u_p)
        rhs2 = chart.lambda_p.jacobian(q) @ (gd.src.jacobian(eq) @ column)
        resid = float(np.max(np.abs(lhs - rhs2)))
        if resid > worst_equiv:
            worst_equiv, witness = resid, {"kind": "equivariance", "at": p.tolist()}

    worst = max(worst_anchor, worst_equiv)
    passed = worst <= params.tol_member
    return CheckReport("check_ideal_system", passed, worst,
                       witness=None if passed else witness,
                       details={"subalgebroid_rank": rank_seen,
                                "anchor_max_residual": worst_anchor,
                                "equivariance_max_residual": worst_equiv,
                                "samples": samples})

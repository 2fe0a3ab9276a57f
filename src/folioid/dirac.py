"""Dirac structures as Lagrangian spanning families on the Pontryagin bundle,
the Courant-Dorfman calculus, multiplicativity over a groupoid, and the
pushforward to a Poisson structure on a leaf-space quotient.

Conventions, fixed once: the symmetric pairing carries no factor 1/2,
  <(v, a), (w, b)> = a(w) + b(v),
and the bivector contraction is pi_sharp(a) = pi(a, .), so with a matrix
P representing pi(a, b) = a^T P b one has pi_sharp(a) = P^T a.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from . import geomcore, linalg
from .errors import NumericalBlowup, RankDrift, SpanDeficiency
from .geomcore import ChartManifold, OneForm, Point, SmoothMap, VectorField
from .liegroupoid import (SmoothGroupoid, algebroid_fiber, cotangent_mul, source_translates,
                          tangent_mul, target_translates)
from .multdist import Distribution, check_multiplicative
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport, Worst

Section = Tuple[VectorField, OneForm]


class _Stacked:
    """(X; alpha) as one generator in R^{2n}; a call evaluates X and alpha, nothing more."""

    def __init__(self, x_field: VectorField, alpha: OneForm):
        self.x_field, self.alpha = x_field, alpha
        self.value = (None if x_field.value is None or alpha.value is None
                      else np.concatenate([x_field.value, alpha.value]))

    def __call__(self, x: Point) -> np.ndarray:
        return np.concatenate([self.x_field(x), self.alpha(x)], axis=-1)


class DiracStructure:
    """n generator pairs (vector field, one-form) spanning a Lagrangian
    subbundle of TM + T*M.

    The fiber is the span of the rank-n :class:`Distribution` of the stacked
    sections (X_i; alpha_i), so it shares that class's frame, basis memo
    and rank check.
    """

    def __init__(self, base: ChartManifold, gens: Sequence[Section], name: str = ""):
        if len(gens) != base.dim:
            raise ValueError(
                f"need exactly {base.dim} generator pairs, got {len(gens)}")
        self.base = base
        self.gens = list(gens)
        self.name = name
        self._span = Distribution(base, [_Stacked(xf, af) for xf, af in self.gens],
                                  rank=base.dim, name=name)

    @property
    def dim(self) -> int:
        return self.base.dim

    def generator_matrix(self, x: Point) -> np.ndarray:
        """Columns (X_i(x); alpha_i(x)) stacked in R^{2n}."""
        return self._span.generator_matrix(x)

    def fiber_basis(self, x: Point, tol: float = DEFAULT_PARAMS.tol_rank) -> np.ndarray:
        return self._span.fiber_basis(x, tol)


def check_lagrangian(dirac: DiracStructure, points: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Pairings of normalized generators vanish and the fiber rank is n."""
    n = dirac.dim
    worst = Worst()
    points = list(points)
    for x in points:
        mat = dirac.generator_matrix(x)
        norms = np.linalg.norm(mat, axis=0)
        norms[norms < 1e-13] = 1.0
        mat = mat / norms
        v, lam = mat[:n], mat[n:]
        gram = lam.T @ v + v.T @ lam
        worst.see(linalg.sup_norm(gram), at=np.asarray(x))
        rank = linalg.numerical_rank(mat, params.tol_rank)
        if rank != n:
            stop = Worst()
            stop.see(1.0, at=np.asarray(x), rank=rank)
            return stop.report("check_lagrangian", 0.0)
    return worst.report("check_lagrangian", params.tol_lag,
                        {"points": len(points), "fiber_dim": n})


def _kernel(fiber: np.ndarray, n: int, tol: float) -> np.ndarray:
    """Orthonormal basis of the tangent parts of the fiber's elements whose
    covector part vanishes; the fiber's rows are n tangent, then n covector."""
    v, lam = fiber[..., :n, :], fiber[..., n:, :]
    return linalg.orth_basis(v @ linalg.null_basis(lam, tol), tol)


def characteristic_spaces(dirac: DiracStructure, x: Point,
                          tol: float = DEFAULT_PARAMS.tol_rank) -> np.ndarray:
    """The characteristic space G0 at x or at each row of a stack x, as an orthonormal
    basis: the tangent parts of the fiber elements with vanishing covector part."""
    return _kernel(dirac.fiber_basis(x, tol), dirac.dim, tol)


def characteristic_distribution(dirac: DiracStructure, ref_point: Point,
                                params: NumericParams = DEFAULT_PARAMS) -> Distribution:
    """The kernel directions as a Distribution with pointwise-basis fields.

    The fields read the G0 basis at each point, computed once per point, or
    per (k, n) stack of points, for all of them, so they are smooth only when
    the fiber varies smoothly (constant for the builtin scenarios).
    """
    rank = characteristic_spaces(dirac, ref_point, params.tol_rank).shape[1]
    g0_at = geomcore._point_memo(lambda x: characteristic_spaces(dirac, x, params.tol_rank))

    def make(i):
        def fn(x):
            g0, rows = g0_at(x), np.atleast_2d(x)
            ranks = np.atleast_1d(np.count_nonzero(g0.any(axis=-2), axis=-1))  # padding is zero
            drift = np.flatnonzero(ranks != rank)
            if drift.size:
                raise RankDrift(f"characteristic rank {ranks[drift[0]]} at {rows[drift[0]]}, "
                                f"expected {rank}", location=rows[drift[0]])
            return g0[..., i]
        return VectorField(dirac.base, fn, name=f"G0[{i}]", stacked=True)

    return Distribution(dirac.base, [make(i) for i in range(rank)], rank=rank, name="G0")


def courant_bracket(sections: Sequence[Section], x: Point, h: float = DEFAULT_PARAMS.h_fd
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """([X, Y], L_X beta - i_Y d alpha) at x for every pair (X, alpha), (Y, beta)
    of ``sections``, i < j, as tangent and covector rows in that order; a single
    pair is a list of two sections.  The tangent rows and the fields' jets come
    from ``geomcore.lie_brackets``, and each one-form is read once too, so each
    row rounds as that pair's own bracket would."""
    x = np.asarray(x, dtype=float)
    tangent, xv, xj = geomcore.lie_brackets([sec[0] for sec in sections], x, h)
    av, aj = geomcore.jets([sec[1] for sec in sections], x, h)
    first, second = geomcore.pairs(len(sections))
    lie = aj[second] @ xv[first] + np.swapaxes(xj[first], 1, 2) @ av[second]
    if not np.isfinite(lie).all():
        raise NumericalBlowup(f"Lie derivative non-finite at {x}")
    covector = lie - (aj[first] @ xv[second] - np.swapaxes(aj[first], 1, 2) @ xv[second])
    return tangent, covector[..., 0]


def check_integrable(dirac: DiracStructure, points: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Closure of the generator sections under the Courant-Dorfman bracket: at each
    point one ``courant_bracket`` and one ``span_residuals`` call cover every pair."""
    worst = Worst()
    points = list(points)
    pairs = geomcore.pairs(len(dirac.gens)).T.tolist()
    for x in points:
        fiber = dirac.fiber_basis(x, params.tol_rank)
        brackets = np.hstack(courant_bracket(dirac.gens, x, params.h_fd))
        for pair, bracket, resid in zip(pairs, brackets, linalg.span_residuals(brackets.T, fiber)):
            worst.see(resid, pair=pair, at=np.asarray(x), bracket=bracket)
    return worst.report("check_integrable", params.tol_member, {"points": len(points)})


def _columns(cls, base: ChartManifold, m, name: str) -> list:
    """The columns of m^T as ``cls`` fields, column i named ``name.format(i)``.

    ``m`` is a matrix or a callable returning one.  A constant matrix gives
    constant columns, with their value and their exact zero Jacobian.
    """
    if callable(m):
        m_fn, jac, mat = m, None, None
    else:
        mat = np.asarray(m, dtype=float)
        m_fn, jac = (lambda x: mat), geomcore.zero_jacobian(base.dim)

    def column(i):
        return cls(base, lambda x: np.asarray(m_fn(x), dtype=float).T[:, i],
                   name=name.format(i), jac=jac,
                   value=None if mat is None else mat.T[:, i])

    return [column(i) for i in range(base.dim)]


def from_two_form(base: ChartManifold, omega: Callable[[Point], np.ndarray] | np.ndarray,
                  name: str = "graph(omega)") -> DiracStructure:
    """Graph of a two-form: generators (e_i, omega(e_i, .))."""
    fields = [geomcore.constant_field(base, e) for e in np.eye(base.dim)]
    return DiracStructure(base, list(zip(fields, _columns(OneForm, base, omega, "i_e{} omega"))),
                          name=name)


def from_poisson(base: ChartManifold, pi: Callable[[Point], np.ndarray] | np.ndarray,
                 name: str = "graph(pi)") -> DiracStructure:
    """Graph of a bivector: generators (pi_sharp(eps_i), eps_i)."""
    forms = [geomcore.constant_form(base, e) for e in np.eye(base.dim)]
    return DiracStructure(base, list(zip(_columns(VectorField, base, pi, "pi_sharp(e{})"), forms)),
                          name=name)


def _in_slot(cls, product: ChartManifold, inner: VectorField, slot: slice,
             negate: bool = False) -> VectorField:
    """``inner`` read from and placed in one slot of the product, zero elsewhere.

    When ``inner`` has an exact Jacobian the result has the block Jacobian
    built from it.  A negated block is ``0.0 - J``, not ``-J``, so a zero
    entry stays +0.0, as central differences give it.  A constant ``inner``
    gives a constant result, whose value is ``fn``'s (a negated zero is -0.0).
    """
    dim = product.dim

    def fn(z):
        out = np.zeros(dim)
        out[slot] = -inner(z[slot]) if negate else inner(z[slot])
        return out

    jac = None
    if inner.jac is not None:
        def jac(z):
            out = np.zeros((dim, dim))
            block = inner.jac(z[slot])
            out[slot, slot] = 0.0 - block if negate else block
            return out

    # a constant inner field is read without its point, so any point will do
    value = fn(np.zeros(dim)) if inner.value is not None else None
    return cls(product, fn, jac=jac, value=value)


def minus_double(dirac_m: DiracStructure) -> DiracStructure:
    """The structure ((v_m, -v_n), (a_m, a_n)) on the product chart."""
    n = dirac_m.dim
    product = ChartManifold(2 * n,
                            box=dirac_m.base.box + dirac_m.base.box,
                            periodic=dirac_m.base.periodic + dirac_m.base.periodic)
    left, right = slice(0, n), slice(n, 2 * n)
    gens: List[Section] = (
        [(_in_slot(VectorField, product, xf, left), _in_slot(OneForm, product, af, left))
         for xf, af in dirac_m.gens]
        + [(_in_slot(VectorField, product, xf, right, negate=True),
            _in_slot(OneForm, product, af, right))
           for xf, af in dirac_m.gens])
    return DiracStructure(product, gens, name=f"{dirac_m.name} (-) {dirac_m.name}")


def is_forward_dirac(f: SmoothMap, dirac_m: DiracStructure, dirac_n: DiracStructure,
                     points_m: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Every downstairs element lifts with matching pushforward and pullback.

    For each sampled upstairs point m (downstairs n = f(m)) and each basis
    element (v_n, a_n) of the target fiber, solve for an element of the
    source fiber whose tangent part pushes to v_n while its covector part
    is the pullback of a_n.  The system is built once per point; each element
    is solved alone, as one matrix right-hand side rounds differently here.
    """
    worst = Worst()
    points_m = list(points_m)
    dim_m, dim_n = dirac_m.dim, dirac_n.dim
    for m in points_m:
        n_pt = f(m)
        jac = f.jacobian(m)
        fiber_m = dirac_m.fiber_basis(m, params.tol_rank)
        fiber_n = dirac_n.fiber_basis(n_pt, params.tol_rank)
        system = np.vstack([fiber_m[dim_m:], jac @ fiber_m[:dim_m]])
        for j in range(fiber_n.shape[1]):
            rhs = np.concatenate([jac.T @ fiber_n[dim_n:, j], fiber_n[:dim_n, j]])
            worst.see(linalg.solve_min_norm(system, rhs)[1], at=np.asarray(m), generator=j)
    return worst.report("is_forward_dirac", params.tol_dirac, {"points": len(points_m)})


# ---------------------------------------------------------------------------
# multiplicative Dirac structures over a groupoid

def _pontryagin_matrix(gd: SmoothGroupoid, g: Point, fiber: np.ndarray,
                       projection, translated: np.ndarray) -> np.ndarray:
    """Matrix sending fiber coefficients to (T proj v, proj^(alpha)) components.

    ``translated`` is the algebroid basis translated to g by
    ``source_translates`` (with ``projection = gd.src``) or by
    ``target_translates`` (with ``gd.tgt``).
    """
    n = gd.space.dim
    return np.vstack([projection.jacobian(g) @ fiber[:n], translated.T @ fiber[n:]])


def check_multiplicative_dirac(gd: SmoothGroupoid, dirac_g: DiracStructure,
                               samples: int, rng,
                               params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Subgroupoid test for the Dirac structure inside the Pontryagin groupoid.

    At sampled composable pairs: sources and targets of fiber elements land
    in the span induced at units, products of compatible elements (tangent
    product plus covector product) stay in the fiber over the product, and
    inverses stay in the fiber over the inverse.  The characteristic
    distribution is re-checked to be multiplicative on its own.  Each
    sample translates the algebroid bases once, to the unit over each end
    point, to g and to h, and multiplies all composable element pairs in
    one tangent and one covector product.
    """
    n = gd.space.dim
    worst = Worst()
    source = (gd.src, source_translates)
    target = (gd.tgt, target_translates)

    def unit_spans(p, *sides):
        """The algebroid fiber at p, then the span of each side's matrix at the unit."""
        e = gd.unit(p)
        alg = algebroid_fiber(gd, p, params)
        fiber_e = dirac_g.fiber_basis(e, params.tol_rank)
        return (alg, *(linalg.orth_basis(
            _pontryagin_matrix(gd, e, fiber_e, proj, translates(gd, e, alg, params)),
            params.tol_rank) for proj, translates in sides))

    for _ in range(samples):
        g, h = gd.composable_pair(rng)
        fiber_g = dirac_g.fiber_basis(g, params.tol_rank)
        fiber_h = dirac_g.fiber_basis(h, params.tol_rank)
        p = gd.src(g)

        alg_p, span_s_p, span_t_p = unit_spans(p, source, target)
        worst.see(linalg.subspace_max_angle(span_s_p, span_t_p), kind="unit_space", at=p)

        source_g = source_translates(gd, g, alg_p, params)
        source_mat = _pontryagin_matrix(gd, g, fiber_g, gd.src, source_g)
        worst.see(linalg.max_span_residual(source_mat, span_s_p), kind="source", at=g)

        q = gd.tgt(g)
        alg_q, span_s_q = unit_spans(q, source)
        target_mat = _pontryagin_matrix(gd, g, fiber_g, gd.tgt,
                                        target_translates(gd, g, alg_q, params))
        worst.see(linalg.max_span_residual(target_mat, span_s_q), kind="target", at=g)

        # composable element pairs and their products
        target_h = target_translates(gd, h, alg_p, params)
        mt_h = _pontryagin_matrix(gd, h, fiber_h, gd.tgt, target_h)
        coeffs = linalg.null_basis(np.hstack([source_mat, -mt_h]), params.tol_rank)
        elem_g = fiber_g @ coeffs[: fiber_g.shape[1]]
        elem_h = fiber_h @ coeffs[fiber_g.shape[1]:]
        tangent = tangent_mul(gd, g, elem_g[:n], h, elem_h[:n], params)
        covector = cotangent_mul(gd, g, elem_g[n:], h, elem_h[n:], params, (source_g, target_h))
        fiber_gh = dirac_g.fiber_basis(gd.compose(g, h), params.tol_rank)
        worst.see(linalg.max_span_residual(np.vstack([tangent, covector]), fiber_gh),
                  kind="product", at=[g.tolist(), h.tolist()])

        # inversion: (T iota v, -(T iota)^* alpha)
        j_inv = gd.inv.jacobian(g)
        image = np.vstack([j_inv @ fiber_g[:n], -(j_inv.T @ fiber_g[n:])])
        worst.see(linalg.max_span_residual(image,
                                           dirac_g.fiber_basis(gd.inv(g), params.tol_rank)),
                  kind="inversion", at=g)

    # the kernel directions form a multiplicative distribution on their own
    ref = gd.sample_arrow(rng)
    g0_dist = characteristic_distribution(dirac_g, ref, params)
    sub_report = check_multiplicative(gd, g0_dist, max(1, samples // 4), rng, params)
    worst.see(sub_report.max_residual, kind="characteristic", detail=sub_report.witness)
    return worst.report("check_multiplicative_dirac", params.tol_member,
                        {"samples": samples, "characteristic_rank": g0_dist.rank})


# ---------------------------------------------------------------------------
# Poisson bivectors and the quotient pushforward

def jacobi_residual(pi: Callable[[Point], np.ndarray], points: Iterable[Point],
                    h: float = DEFAULT_PARAMS.h_fd) -> float:
    """Max |sum_l pi^{il} d_l pi^{jk} + cyclic| over i < j < k at the points,
    for an antisymmetric matrix field ``pi``, differenced at step h."""
    totals = []
    for x in points:
        x = np.asarray(x, dtype=float)
        grad = geomcore.central_difference(pi, x, h)  # grad[i, j, l] = d_l pi^{ij}
        pi_x = pi(x)
        i, j, k = np.array(list(combinations(range(x.size), 3)), int).reshape(-1, 3).T
        terms = (pi_x[i] * grad[j, k] + pi_x[j] * grad[k, i] + pi_x[k] * grad[i, j]).T
        totals.extend(sum(terms, np.zeros(len(i))))  # over l in order, as a running total
    return linalg.sup_norm(totals)


def pushforward_fiber(dirac_g: DiracStructure, label_map: SmoothMap, g: Point,
                      params: NumericParams = DEFAULT_PARAMS) -> np.ndarray:
    """Fiber of the projected structure over the label of g.

    Solves for elements (T(label) v, a) with (v, (T label)^* a) in the
    upstairs fiber, by a null-space computation on the pullback constraint.
    """
    n = dirac_g.dim
    fiber = dirac_g.fiber_basis(g, params.tol_rank)
    v_part, lam_part = fiber[:n], fiber[n:]
    jac = label_map.jacobian(g)
    n_quot = jac.shape[0]
    constraint = np.hstack([lam_part, -jac.T])
    null = linalg.null_basis(constraint, params.tol_rank)
    if null.shape[1] == 0:
        raise SpanDeficiency(f"projected fiber is empty at {np.asarray(g)}")
    elements = np.vstack([jac @ v_part @ null[: fiber.shape[1]],
                          null[fiber.shape[1]:]])
    basis = linalg.orth_basis(elements, params.tol_rank)
    if basis.shape[1] != n_quot:
        raise RankDrift(
            f"projected fiber rank {basis.shape[1]} at {np.asarray(g)}, expected {n_quot}",
            location=g)
    return basis


def _extract_bivector(fiber: np.ndarray, n_quot: int, tol: float
                      ) -> Tuple[np.ndarray, float]:
    """Read the graph matrix out of a Lagrangian fiber with trivial kernel: row i
    is ``v_part c_i`` for the min-norm c_i with ``lam_part c_i = e_i``, all i in
    one solve.  The residual is the largest solve residual or asymmetry."""
    v_part, lam_part = fiber[:n_quot], fiber[n_quot:]
    coeffs, resids = linalg.solve_min_norm(lam_part, np.eye(n_quot))
    # each c_i contiguous, as its own solve returns it, so its product rounds alike
    pi = (v_part @ np.ascontiguousarray(coeffs.T)[:, :, None])[..., 0]
    return 0.5 * (pi - pi.T), linalg.sup_norm(np.append(resids, linalg.sup_norm(pi + pi.T)))


def pushforward_bivector(dirac_g: DiracStructure, label_map: SmoothMap,
                         section: SmoothMap, params: NumericParams = DEFAULT_PARAMS
                         ) -> Callable[[Point], np.ndarray]:
    """The pushed-forward bivector as a function of the quotient label y.

    Evaluated lazily: each call projects the fiber over the representative
    ``section(y)`` and reads the graph matrix out of it, raising
    SpanDeficiency where the projected fiber is not the graph of a bivector.
    The matrix at the last label is kept, read-only, so the n generators
    ``pi_sharp(e_i)`` of the pushed structure share one projection per label.
    """
    n_quot = label_map.codomain.dim

    def pi_fn(y):
        g = section(y)
        fiber = pushforward_fiber(dirac_g, label_map, g, params)
        pi, resid = _extract_bivector(fiber, n_quot, params.tol_rank)
        if resid > params.tol_dirac:
            raise SpanDeficiency(
                f"projected fiber at label {np.asarray(y)} is not a bivector graph "
                f"(residual {resid:.3e})")
        return pi

    return geomcore._point_memo(pi_fn)


def pushforward_dirac(gd: SmoothGroupoid, dirac_g: DiracStructure,
                      label_map: SmoothMap, section: SmoothMap, samples: int, rng,
                      params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Push the structure to the quotient labels and extract the bivector.

    At sampled arrows: computes the projected fiber, requires it Lagrangian
    with trivial characteristic space, extracts the bivector through the
    graph solve, and audits the Jacobi identity plus the forward-map
    property of the label projection.  Hypothesis failures (nontrivial
    kernel downstairs, Jacobi residual above tolerance) are reported, not
    repaired.  The quotient chart is the codomain of ``label_map``.
    """
    quotient_chart = label_map.codomain
    n_quot = quotient_chart.dim
    pi_fn = pushforward_bivector(dirac_g, label_map, section, params)
    worst = Worst("lagrangian")
    details: dict = {"samples": samples}
    stop = Worst()  # a nontrivial characteristic space downstairs stops the check
    sampled_pis = []

    points = [gd.sample_arrow(rng) for _ in range(samples)]
    details["g0_rank"] = characteristic_spaces(dirac_g, points[0], params.tol_rank).shape[1]
    for g in points:
        fiber = pushforward_fiber(dirac_g, label_map, g, params)
        v_part, lam_part = fiber[:n_quot], fiber[n_quot:]
        gram = lam_part.T @ v_part + v_part.T @ lam_part
        worst.see(linalg.sup_norm(gram), kind="lagrangian", at=g)
        kernel_rank = _kernel(fiber, n_quot, params.tol_rank).shape[1]
        if kernel_rank != 0:
            stop.see(1.0, kind="characteristic_nontrivial", at=g, rank=kernel_rank)
        pi, extract_resid = _extract_bivector(fiber, n_quot, params.tol_rank)
        worst.see(extract_resid, kind="graph_extraction", at=g)
        sampled_pis.append((label_map(g).tolist(), pi.tolist()))

        # the extracted graph must reproduce the projected fiber
        graph = np.vstack([pi.T, np.eye(n_quot)])
        worst.see(linalg.subspace_max_angle(linalg.orth_basis(graph, params.tol_rank), fiber),
                  kind="graph_match", at=g)

    if stop.value:
        return stop.report(
            "pushforward_dirac", 0.0,
            {"hypothesis_violation": "characteristic space downstairs is nontrivial"})

    jacobi = jacobi_residual(pi_fn, [label_map(g) for g in points[:10]], params.h_fd)
    details["lagrangian_max_residual"] = worst.of["lagrangian"]
    details["jacobi_residual"] = jacobi
    details["poisson_matrix_at_samples"] = sampled_pis[:3]
    jacobi_ok = jacobi <= params.tol_jac_poisson
    if not jacobi_ok:
        worst.see(jacobi, kind="jacobi", residual=jacobi)

    result = from_poisson(quotient_chart, pi_fn, name="pushforward")
    forward = is_forward_dirac(label_map, dirac_g, result, points, params)
    details["forward_dirac_residual"] = forward.max_residual
    if not forward.passed:
        worst.see(forward.max_residual, kind="forward_dirac", detail=forward.witness)

    return worst.report("pushforward_dirac", params.tol_dirac, details,
                        ok=jacobi_ok and forward.passed)

"""Dirac structures as Lagrangian spanning families on the Pontryagin bundle,
the Courant-Dorfman calculus, multiplicativity over a groupoid, and the
pushforward to a Poisson structure on a leaf-space quotient.

Conventions, fixed once: the symmetric pairing carries no factor 1/2,
  <(v, a), (w, b)> = a(w) + b(v),
and the bivector contraction is pi_sharp(a) = pi(a, .), so with a matrix
P representing pi(a, b) = a^T P b one has pi_sharp(a) = P^T a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import geomcore, linalg
from .errors import RankDrift, SpanDeficiency
from .geomcore import ChartManifold, OneForm, Point, SmoothMap, VectorField
from .liegroupoid import (CotangentArrow, SmoothGroupoid, TangentArrow, algebroid_fiber,
                          cotangent_mul, pairings, source_translates, tangent_mul,
                          target_translates)
from .multdist import Distribution, check_multiplicative
from .params import DEFAULT_PARAMS, NumericParams
from .report import CheckReport

Section = Tuple[VectorField, OneForm]


class _Stacked:
    """(X; alpha) as one generator in R^{2n}; a call evaluates X and alpha, nothing more."""

    def __init__(self, x_field: VectorField, alpha: OneForm):
        self.x_field, self.alpha = x_field, alpha
        self.value = (None if x_field.value is None or alpha.value is None
                      else np.concatenate([x_field.value, alpha.value]))

    def __call__(self, x: Point) -> np.ndarray:
        return np.concatenate([self.x_field(x), self.alpha(x)])


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
    worst = 0.0
    witness = None
    points = list(points)
    for x in points:
        mat = dirac.generator_matrix(x)
        norms = np.linalg.norm(mat, axis=0)
        norms[norms < 1e-13] = 1.0
        mat = mat / norms
        v, lam = mat[:n], mat[n:]
        gram = lam.T @ v + v.T @ lam
        resid = float(np.max(np.abs(gram)))
        if resid > worst:
            worst, witness = resid, {"at": np.asarray(x).tolist()}
        rank = linalg.numerical_rank(mat, params.tol_rank)
        if rank != n:
            return CheckReport("check_lagrangian", False, 1.0,
                               witness={"at": np.asarray(x).tolist(), "rank": rank})
    passed = worst <= params.tol_lag
    return CheckReport("check_lagrangian", passed, worst,
                       witness=None if passed else witness,
                       details={"points": len(points), "fiber_dim": n})


def characteristic_spaces(dirac: DiracStructure, x: Point,
                          tol: float = DEFAULT_PARAMS.tol_rank
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(G0, G1, P0, P1) at x as orthonormal bases.

    G0 collects tangent parts of elements with vanishing covector part,
    G1 the tangent projection of the whole fiber; P0/P1 are dual.
    """
    n = dirac.dim
    fiber = dirac.fiber_basis(x, tol)
    v, lam = fiber[:n], fiber[n:]
    g0 = linalg.orth_basis(v @ linalg.null_basis(lam, tol), tol)
    g1 = linalg.orth_basis(v, tol)
    p0 = linalg.orth_basis(lam @ linalg.null_basis(v, tol), tol)
    p1 = linalg.orth_basis(lam, tol)
    return g0, g1, p0, p1


def characteristic_distribution(dirac: DiracStructure, ref_point: Point,
                                params: NumericParams = DEFAULT_PARAMS,
                                name: str = "G0") -> Distribution:
    """The kernel directions as a Distribution with pointwise-basis fields.

    The fields read the G0 basis at each point, computed once per point for
    all of them, so they are smooth only when the fiber varies smoothly
    (constant for the builtin scenarios).
    """
    g0_ref = characteristic_spaces(dirac, ref_point, params.tol_rank)[0]
    rank = g0_ref.shape[1]
    g0_at = geomcore._point_memo(
        lambda x: characteristic_spaces(dirac, x, params.tol_rank)[0])

    def make(i):
        def fn(x):
            g0 = g0_at(x)
            if g0.shape[1] != rank:
                raise RankDrift(
                    f"characteristic rank {g0.shape[1]} at {x}, expected {rank}",
                    location=x)
            return g0[:, i]
        return VectorField(dirac.base, fn, name=f"{name}[{i}]")

    return Distribution(dirac.base, [make(i) for i in range(rank)], rank=rank, name=name)


def courant_bracket(dirac: DiracStructure, sec1: Section, sec2: Section,
                    x: Point) -> Tuple[np.ndarray, np.ndarray]:
    """([X, Y], L_X beta - i_Y d alpha) evaluated at x."""
    x_field, alpha = sec1
    y_field, beta = sec2
    tangent = geomcore.lie_bracket(x_field, y_field, x)
    covector = (geomcore.lie_derivative_oneform(x_field, beta, x)
                - geomcore.interior_product_d(alpha, y_field, x))
    return tangent, covector


def check_integrable(dirac: DiracStructure, points: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Closure of the generator sections under the Courant-Dorfman bracket."""
    worst = 0.0
    witness = None
    points = list(points)
    for x in points:
        fiber = dirac.fiber_basis(x, params.tol_rank)
        for i in range(len(dirac.gens)):
            for j in range(i + 1, len(dirac.gens)):
                tangent, covector = courant_bracket(dirac, dirac.gens[i],
                                                    dirac.gens[j], x)
                resid = linalg.span_residual(np.concatenate([tangent, covector]), fiber)
                if resid > worst:
                    worst = resid
                    witness = {"pair": [i, j], "at": np.asarray(x).tolist(),
                               "bracket": np.concatenate([tangent, covector]).tolist()}
    passed = worst <= params.tol_member
    return CheckReport("check_integrable", passed, worst,
                       witness=None if passed else witness,
                       details={"points": len(points)})


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


def minus_double(dirac_m: DiracStructure, name: str = "") -> DiracStructure:
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
    return DiracStructure(product, gens, name=name or f"{dirac_m.name} (-) {dirac_m.name}")


def is_forward_dirac(f: SmoothMap, dirac_m: DiracStructure, dirac_n: DiracStructure,
                     points_m: Iterable[Point],
                     params: NumericParams = DEFAULT_PARAMS) -> CheckReport:
    """Every downstairs element lifts with matching pushforward and pullback.

    For each sampled upstairs point m (downstairs n = f(m)) and each basis
    element (v_n, a_n) of the target fiber, solve for an element of the
    source fiber whose tangent part pushes to v_n while its covector part
    is the pullback of a_n.
    """
    worst = 0.0
    witness = None
    points_m = list(points_m)
    dim_m = dirac_m.dim
    for m in points_m:
        n_pt = f(m)
        jac = f.jacobian(m)
        fiber_m = dirac_m.fiber_basis(m, params.tol_rank)
        v_m, lam_m = fiber_m[:dim_m], fiber_m[dim_m:]
        fiber_n = dirac_n.fiber_basis(n_pt, params.tol_rank)
        for j in range(fiber_n.shape[1]):
            v_n = fiber_n[:dirac_n.dim, j]
            a_n = fiber_n[dirac_n.dim:, j]
            system = np.vstack([lam_m, jac @ v_m])
            rhs = np.concatenate([jac.T @ a_n, v_n])
            _, resid = linalg.solve_min_norm(system, rhs)
            if resid > worst:
                worst, witness = resid, {"at": np.asarray(m).tolist(), "generator": j}
    passed = worst <= params.tol_dirac
    return CheckReport("is_forward_dirac", passed, worst,
                       witness=None if passed else witness,
                       details={"points": len(points_m)})


# ---------------------------------------------------------------------------
# multiplicative Dirac structures over a groupoid

def _pontryagin_matrix(gd: SmoothGroupoid, g: Point, fiber: np.ndarray,
                       projection, translated: list) -> np.ndarray:
    """Matrix sending fiber coefficients to (T proj v, proj^(alpha)) components.

    ``translated`` is the algebroid basis translated to g by
    ``source_translates`` (with ``projection = gd.src``) or by
    ``target_translates`` (with ``gd.tgt``).
    """
    n = gd.dim_space
    tangent_rows = projection.jacobian(g) @ fiber[:n]
    cot_rows = np.column_stack([pairings(fiber[n:, j], translated)
                                for j in range(fiber.shape[1])])
    return np.vstack([tangent_rows, cot_rows])


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
    point, to g and to h, and every covector product reuses them.
    """
    n = gd.dim_space
    worst = 0.0
    witness = None
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
        angle = linalg.subspace_max_angle(span_s_p, span_t_p)
        if angle > worst:
            worst, witness = angle, {"kind": "unit_space", "at": p.tolist()}

        source_g = source_translates(gd, g, alg_p, params)
        source_mat = _pontryagin_matrix(gd, g, fiber_g, gd.src, source_g)
        resid = linalg.max_span_residual(source_mat, span_s_p)
        if resid > worst:
            worst, witness = resid, {"kind": "source", "at": g.tolist()}

        q = gd.tgt(g)
        alg_q, span_s_q = unit_spans(q, source)
        target_mat = _pontryagin_matrix(gd, g, fiber_g, gd.tgt,
                                        target_translates(gd, g, alg_q, params))
        resid = linalg.max_span_residual(target_mat, span_s_q)
        if resid > worst:
            worst, witness = resid, {"kind": "target", "at": g.tolist()}

        # composable element pairs and their products
        target_h = target_translates(gd, h, alg_p, params)
        mt_h = _pontryagin_matrix(gd, h, fiber_h, gd.tgt, target_h)
        coeffs = linalg.null_basis(np.hstack([source_mat, -mt_h]), params.tol_rank)
        prod_pt = gd.compose(g, h)
        fiber_prod = dirac_g.fiber_basis(prod_pt, params.tol_rank)
        for j in range(coeffs.shape[1]):
            a = coeffs[: fiber_g.shape[1], j]
            b = coeffs[fiber_g.shape[1]:, j]
            elem_g = fiber_g @ a
            elem_h = fiber_h @ b
            tangent = tangent_mul(gd, TangentArrow(g, elem_g[:n]),
                                  TangentArrow(h, elem_h[:n]), params)
            covector = cotangent_mul(gd, CotangentArrow(g, elem_g[n:]),
                                     CotangentArrow(h, elem_h[n:]), params,
                                     (source_g, target_h))
            resid = linalg.span_residual(
                np.concatenate([tangent.v, covector.alpha]), fiber_prod)
            if resid > worst:
                worst, witness = resid, {"kind": "product",
                                         "at": [g.tolist(), h.tolist()]}

        # inversion: (T iota v, -(T iota)^* alpha)
        gi = gd.inv(g)
        j_inv = gd.inv.jacobian(g)
        fiber_inv = dirac_g.fiber_basis(gi, params.tol_rank)
        for j in range(fiber_g.shape[1]):
            elem = fiber_g[:, j]
            image = np.concatenate([j_inv @ elem[:n], -(j_inv.T @ elem[n:])])
            resid = linalg.span_residual(image, fiber_inv)
            if resid > worst:
                worst, witness = resid, {"kind": "inversion", "at": g.tolist()}

    # the kernel directions form a multiplicative distribution on their own
    ref = gd.sample_arrow(rng)
    g0_dist = characteristic_distribution(dirac_g, ref, params)
    sub_report = check_multiplicative(gd, g0_dist, max(1, samples // 4), rng, params)
    worst = max(worst, sub_report.max_residual)
    if not sub_report.passed and witness is None:
        witness = {"kind": "characteristic", "detail": sub_report.witness}

    passed = worst <= params.tol_member
    return CheckReport("check_multiplicative_dirac", passed, worst,
                       witness=None if passed else witness,
                       details={"samples": samples,
                                "characteristic_rank": g0_dist.rank})


# ---------------------------------------------------------------------------
# Poisson bivectors and the quotient pushforward

class PoissonBivector:
    """Pointwise antisymmetric matrix with a Jacobi-identity audit."""

    def __init__(self, base: ChartManifold, pi: Callable[[Point], np.ndarray],
                 name: str = "pi"):
        self.base = base
        self.pi = pi
        self.name = name

    def __call__(self, x: Point) -> np.ndarray:
        mat = np.asarray(self.pi(np.asarray(x, dtype=float)), dtype=float)
        return 0.5 * (mat - mat.T)

    def jacobi_residual(self, points: Iterable[Point],
                        h: float = DEFAULT_PARAMS.h_fd) -> float:
        """Max residual of sum_l pi^{il} d_l pi^{jk} + cyclic, at the points."""
        n = self.base.dim
        worst = 0.0
        for x in points:
            grad = geomcore.central_difference(self, x, h)  # grad[i, j, l] = d_l pi^{ij}
            pi_x = self(x)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        total = 0.0
                        for l in range(n):
                            total += (pi_x[i, l] * grad[j, k, l]
                                      + pi_x[j, l] * grad[k, i, l]
                                      + pi_x[k, l] * grad[i, j, l])
                        worst = max(worst, abs(total))
        return worst


@dataclass
class PushforwardResult:
    dirac: Optional[DiracStructure]
    poisson: Optional[PoissonBivector]
    report: CheckReport


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
    """Read the graph matrix out of a Lagrangian fiber with trivial kernel."""
    v_part, lam_part = fiber[:n_quot], fiber[n_quot:]
    rows = []
    worst = 0.0
    for i in range(n_quot):
        coeff, resid = linalg.solve_min_norm(lam_part, np.eye(n_quot)[i])
        worst = max(worst, resid)
        rows.append(v_part @ coeff)
    pi = np.vstack(rows)
    asym = float(np.max(np.abs(pi + pi.T)))
    return 0.5 * (pi - pi.T), max(worst, asym)


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
                      label_map: SmoothMap, section: SmoothMap,
                      quotient_chart: ChartManifold, samples: int, rng,
                      params: NumericParams = DEFAULT_PARAMS) -> PushforwardResult:
    """Push the structure to the quotient labels and extract the bivector.

    At sampled arrows: computes the projected fiber, requires it Lagrangian
    with trivial characteristic space, extracts the bivector through the
    graph solve, and audits the Jacobi identity plus the forward-map
    property of the label projection.  Hypothesis failures (nontrivial
    kernel downstairs, Jacobi residual above tolerance) are reported, not
    repaired.
    """
    n_quot = quotient_chart.dim
    pi_fn = pushforward_bivector(dirac_g, label_map, section, params)
    worst = 0.0
    witness = None
    details: dict = {"samples": samples}
    kernel_trivial = True
    sampled_pis = []
    lagrangian_worst = 0.0

    points = [gd.sample_arrow(rng) for _ in range(samples)]
    details["g0_rank"] = characteristic_spaces(dirac_g, points[0],
                                               params.tol_rank)[0].shape[1]
    for g in points:
        fiber = pushforward_fiber(dirac_g, label_map, g, params)
        v_part, lam_part = fiber[:n_quot], fiber[n_quot:]
        gram = lam_part.T @ v_part + v_part.T @ lam_part
        lag_resid = float(np.max(np.abs(gram)))
        lagrangian_worst = max(lagrangian_worst, lag_resid)
        if lag_resid > worst:
            worst, witness = lag_resid, {"kind": "lagrangian", "at": g.tolist()}
        kernel = v_part @ linalg.null_basis(lam_part, params.tol_rank)
        kernel_rank = linalg.orth_basis(kernel, params.tol_rank).shape[1]
        if kernel_rank != 0:
            kernel_trivial = False
            witness = {"kind": "characteristic_nontrivial", "at": g.tolist(),
                       "rank": kernel_rank}
        pi, extract_resid = _extract_bivector(fiber, n_quot, params.tol_rank)
        if extract_resid > worst:
            worst, witness = extract_resid, {"kind": "graph_extraction", "at": g.tolist()}
        sampled_pis.append((label_map(g).tolist(), pi.tolist()))

        # the extracted graph must reproduce the projected fiber
        graph = np.vstack([pi.T, np.eye(n_quot)])
        angle = linalg.subspace_max_angle(linalg.orth_basis(graph, params.tol_rank), fiber)
        if angle > worst:
            worst, witness = angle, {"kind": "graph_match", "at": g.tolist()}

    if not kernel_trivial:
        report = CheckReport("pushforward_dirac", False, 1.0, witness=witness,
                             details={"hypothesis_violation":
                                      "characteristic space downstairs is nontrivial"})
        return PushforwardResult(None, None, report)

    poisson = PoissonBivector(quotient_chart, pi_fn)
    label_points = [label_map(g) for g in points]
    jacobi = poisson.jacobi_residual(label_points[: min(10, len(label_points))],
                                     h=params.h_fd)
    details["lagrangian_max_residual"] = lagrangian_worst
    details["jacobi_residual"] = jacobi
    details["poisson_matrix_at_samples"] = sampled_pis[:3]
    if jacobi > params.tol_jac_poisson:
        worst = max(worst, jacobi)
        witness = {"kind": "jacobi", "residual": jacobi}

    result = from_poisson(quotient_chart, pi_fn, name="pushforward")
    forward = is_forward_dirac(label_map, dirac_g, result, points, params)
    details["forward_dirac_residual"] = forward.max_residual
    if not forward.passed:
        worst = max(worst, forward.max_residual)
        witness = {"kind": "forward_dirac", "detail": forward.witness}

    passed = (worst <= params.tol_dirac and jacobi <= params.tol_jac_poisson
              and forward.passed)
    report = CheckReport("pushforward_dirac", passed, worst,
                         witness=None if passed else witness, details=details)
    return PushforwardResult(result, poisson, report)

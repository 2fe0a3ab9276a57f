"""Builtin scenario families.

Each smooth family takes its groupoid, with affine structure maps and
uniform samplers, from :func:`affine_groupoid`, and hands one private
builder the constant generators of its distribution, its base fields, the
matrices of its leaf labels and their section, and the quotient groupoid on
labels.  A Scenario carries only what a check reads.  Families:

* ``pair``: pair groupoid on R^m with a product distribution D x D.
* ``vb_trivial``: trivial vector-bundle groupoid R^k x M with W x F.
* ``group_action_pair``: pair groupoid with the vertical distribution of a
  one-parameter translation action; leaves are the orbits.
* ``presymplectic_pair_dirac``: pair groupoid carrying the difference of
  two copies of a constant two-form graph; the distribution is the kernel
  directions.
* ``finite``: discrete instances for the exact quotient constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from . import fingroupoid as fin
from . import linalg
from .dirac import DiracStructure, from_two_form, minus_double
from .geomcore import ChartManifold, SmoothMap, VectorField, at_each, constant_field
from .leafspace import LeafChart
from .liegroupoid import SmoothGroupoid
from .multdist import Distribution
from .params import DEFAULT_PARAMS

SAMPLE_HALF_WIDTH = 2.0


def affine_map(domain: ChartManifold, codomain: ChartManifold,
               matrix, name: str = "") -> SmoothMap:
    """x -> matrix @ x; a stack is one stacked matmul, which rounds each row as
    ``matrix @ row`` does, and its Jacobian is ``matrix`` broadcast."""
    a = np.asarray(matrix, dtype=float)
    return SmoothMap(domain, codomain,
                     lambda x: a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0],
                     jac=lambda x: at_each(a, x), name=name, stacked=True)


def _uniform(rng, dim: int) -> np.ndarray:
    return rng.uniform(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH, size=dim)


def _complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal complement of the span of ``basis`` columns in R^dim."""
    if basis.size == 0:
        return np.eye(dim)
    return linalg.null_basis(np.asarray(basis, dtype=float).T, DEFAULT_PARAMS.tol_rank)


def _diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix [[a, 0], [0, b]]."""
    return np.block([[a, np.zeros((a.shape[0], b.shape[1]))],
                     [np.zeros((b.shape[0], a.shape[1])), b]])


def affine_groupoid(src, tgt, unit, inv, mul, target_at: int, name: str) -> SmoothGroupoid:
    """The groupoid with affine structure maps: ``src`` and ``tgt`` are m x n,
    ``unit`` n x m, ``inv`` n x n and ``mul`` n x 2n.  Samples are uniform on
    the box of half-width :data:`SAMPLE_HALF_WIDTH`; an arrow to p has p at
    coordinates ``target_at`` onward and the rest drawn at once.
    """
    m, n = np.shape(src)
    space, base = ChartManifold(n), ChartManifold(m)

    def sample_arrow_to(rng, p):
        rest = _uniform(rng, n - m)
        return np.concatenate([rest[:target_at], np.asarray(p, dtype=float), rest[target_at:]])

    return SmoothGroupoid(
        space, base,
        affine_map(space, base, src, name="s"), affine_map(space, base, tgt, name="t"),
        affine_map(base, space, unit, name="unit"), affine_map(space, space, inv, name="inv"),
        affine_map(ChartManifold(2 * n), space, mul, name="mul"),
        sample_arrow=lambda rng: _uniform(rng, n), sample_object=lambda rng: _uniform(rng, m),
        sample_arrow_to=sample_arrow_to, name=name)


def pair_groupoid_maps(m: int) -> SmoothGroupoid:
    """Pair groupoid on R^m: an arrow (a, b) runs from b to a."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    mul = np.zeros((2 * m, 4 * m))
    mul[:m, :m] = eye            # target slot of g
    mul[m:, 3 * m:] = eye        # source slot of h
    return affine_groupoid(np.hstack([zero, eye]), np.hstack([eye, zero]),
                           np.vstack([eye, eye]), np.block([[zero, eye], [eye, zero]]),
                           mul, 0, f"pair(R^{m})")


def vb_groupoid_maps(k: int, m: int) -> SmoothGroupoid:
    """Trivial vector-bundle groupoid R^k x R^m with fiberwise addition."""
    proj = np.hstack([np.zeros((m, k)), np.eye(m)])
    mul = np.zeros((k + m, 2 * (k + m)))
    mul[:k, :k] = np.eye(k)                      # x
    mul[:k, k + m: 2 * k + m] = np.eye(k)        # + y
    mul[k:, k: k + m] = np.eye(m)                # base point of g
    return affine_groupoid(proj, proj, np.vstack([np.zeros((k, m)), np.eye(m)]),
                           _diag(-np.eye(k), np.eye(m)), mul,
                           k, f"vb(R^{k} x R^{m})")


def gauge_groupoid_maps(b: int) -> SmoothGroupoid:
    """Product of the pair groupoid on R^b with the additive line.

    Arrows (a, c, x): target label a, source label c, group part x.  This
    is the quotient shape of a free one-parameter action on a pair
    groupoid.
    """
    n = 2 * b + 1
    eye = np.eye(b)
    src = np.zeros((b, n))
    src[:, b: 2 * b] = eye
    tgt = np.zeros((b, n))
    tgt[:, :b] = eye
    inv = np.zeros((n, n))
    inv[:b, b: 2 * b] = eye
    inv[b: 2 * b, :b] = eye
    inv[2 * b, 2 * b] = -1.0
    mul = np.zeros((n, 2 * n))
    mul[:b, :b] = eye                            # target of g
    mul[b: 2 * b, n + b: n + 2 * b] = eye        # source of h
    mul[2 * b, 2 * b] = 1.0                      # x
    mul[2 * b, 2 * n - 1] = 1.0                  # + y
    return affine_groupoid(src, tgt, np.vstack([eye, eye, np.zeros((1, b))]), inv, mul,
                           0, f"pair(R^{b}) x line")


@dataclass
class FiniteInstance:
    groupoid: fin.FiniteGroupoid
    nss: fin.NormalSubgroupoidSystem
    expected_duality: bool  # whether G/N and the quotient by the system are isomorphic

    @cached_property
    def normal_quotient(self) -> fin.FiniteGroupoid:
        """G/N for the system's N, built on first use and kept for the life of this instance."""
        return fin.quotient_by_normal_subgroupoid(self.groupoid, self.nss.n_arrows)


@dataclass
class Scenario:
    name: str
    groupoid: Optional[SmoothGroupoid] = None
    dist: Optional[Distribution] = None
    chart: Optional[LeafChart] = None
    base_fields: List[VectorField] = field(default_factory=list)
    complete: bool = False
    quotient: Optional[SmoothGroupoid] = None
    quotient_section: Optional[SmoothMap] = None
    dirac: Optional[DiracStructure] = None
    finite: Optional[FiniteInstance] = None


def _finite(name: str, value, width: int) -> np.ndarray:
    """``value`` as a float array; a ValueError names ``name`` unless every
    entry is finite and a nonempty ``value`` has rows of ``width`` entries."""
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a.tolist()}")
    if a.size and a.shape[-1] != width:
        raise ValueError(f"{name} must have rows of {width} entries, got {a.tolist()}")
    return a


def _affine_scenario(name: str, gd: SmoothGroupoid, gens, base_gens, labels: np.ndarray,
                     base_labels: np.ndarray, section: np.ndarray, quotient: SmoothGroupoid,
                     dist_name: str, **extra) -> Scenario:
    """The complete Scenario of a constant S on the affine groupoid ``gd``.

    ``gens`` and ``base_gens`` are ``(name, vector)`` pairs: the generators
    of S, one per rank, and the base fields.  ``labels`` and ``base_labels``
    are the matrices of the leaf labels on arrows and objects, ``section``
    maps arrow labels back to arrows, and ``quotient`` is the explicit
    groupoid on labels.
    """
    dist = Distribution(gd.space, [constant_field(gd.space, v, name=n) for n, v in gens],
                        rank=len(gens), name=dist_name)
    chart = LeafChart(
        affine_map(gd.space, ChartManifold(labels.shape[0]), labels, name="labels"),
        affine_map(gd.base, ChartManifold(base_labels.shape[0]), base_labels,
                   name="base labels"))
    return Scenario(
        name=name, groupoid=gd, dist=dist, chart=chart,
        base_fields=[constant_field(gd.base, v, name=n) for n, v in base_gens],
        complete=True, quotient=quotient,
        quotient_section=affine_map(chart.lambda_g.codomain, gd.space, section,
                                    name="label section"), **extra)


def _product_leaves(name: str, m_dim: int, d: np.ndarray, prefix: str, dist_name: str,
                    **extra) -> Scenario:
    """D x D on the pair groupoid of R^m, for an orthonormal basis ``d`` of D.

    The labels are the coordinates of both slots along an orthonormal
    complement of D, and the quotient is the pair groupoid of the complement.
    """
    comp = _complement(d, m_dim)
    zero = np.zeros(m_dim)
    gens = []
    for j in range(d.shape[1]):
        gens += [(f"{prefix}_left[{j}]", np.concatenate([d[:, j], zero])),
                 (f"{prefix}_right[{j}]", np.concatenate([zero, d[:, j]]))]
    return _affine_scenario(
        name, pair_groupoid_maps(m_dim), gens,
        [(f"{prefix}[{j}]", d[:, j]) for j in range(d.shape[1])],
        _diag(comp.T, comp.T), comp.T, _diag(comp, comp), pair_groupoid_maps(comp.shape[1]),
        dist_name, **extra)


def pair_scenario(m_dim: int = 2, d_basis=((1.0, 0.0),)) -> Scenario:
    """Pair groupoid on R^m with the product distribution D x D."""
    d = linalg.orth_basis(_finite("d_basis", d_basis, m_dim).T)
    return _product_leaves(f"pair(R^{m_dim}, D rank {d.shape[1]})", m_dim, d, "D", "DxD")


def vb_scenario(k: int = 2, w_basis=((1.0, 0.0),), m_dim: int = 2,
                f_basis=((1.0, 0.0),)) -> Scenario:
    """Vector-bundle groupoid R^k x M with the distribution W x F."""
    w = linalg.orth_basis(_finite("w_basis", w_basis, k).T)
    f = linalg.orth_basis(_finite("f_basis", f_basis, m_dim).T)
    cw, cf = _complement(w, k), _complement(f, m_dim)
    nw, nf = w.shape[1], f.shape[1]
    # an empty w_basis gives a 0 x 0 w, so the generators are padded by k, not w's shape
    gens = ([(f"W[{j}]", np.concatenate([w[:, j], np.zeros(m_dim)])) for j in range(nw)]
            + [(f"F[{j}]", np.concatenate([np.zeros(k), f[:, j]])) for j in range(nf)])
    return _affine_scenario(
        f"vb(R^{k} x R^{m_dim}, W rank {nw}, F rank {nf})", vb_groupoid_maps(k, m_dim), gens,
        [(f"F[{j}]", f[:, j]) for j in range(nf)], _diag(cw.T, cf.T), cf.T, _diag(cw, cf),
        vb_groupoid_maps(cw.shape[1], cf.shape[1]), "WxF")


def group_action_pair_scenario(m_dim: int = 2, direction=(1.0, 0.0)) -> Scenario:
    """Pair groupoid with the orbit distribution of diagonal translations.

    The translations along ``direction`` act on both slots at once; the
    orbit distribution is spanned by the single diagonal field and the
    leaf space is the pair groupoid of the translation quotient times an
    additive line recording the relative offset.
    """
    u = _finite("direction", direction, m_dim)
    if not np.linalg.norm(u) > 0:
        raise ValueError(f"direction must be a nonzero vector, got {u.tolist()}")
    u = u / np.linalg.norm(u)
    comp = _complement(u.reshape(-1, 1), m_dim)
    return _affine_scenario(
        f"translation action on pair(R^{m_dim})", pair_groupoid_maps(m_dim),
        [("orbit", np.concatenate([u, u]))], [("orbit base", u)],
        np.vstack([_diag(comp.T, comp.T), np.concatenate([u, -u])]), comp.T,
        np.column_stack([_diag(comp, comp), np.concatenate([u, np.zeros(m_dim)])]),
        gauge_groupoid_maps(comp.shape[1]), "orbit span")


def presymplectic_pair_dirac_scenario(omega=None, m_dim: int = 3) -> Scenario:
    """Pair groupoid on R^m carrying the difference of two-form graphs.

    The distribution is the kernel of the form in both slots; the labels
    drop the kernel directions and the quotient is the pair groupoid of
    the reduced space, where the pushed-forward structure is the graph of
    an invertible bivector.
    """
    if omega is None:
        omega = np.zeros((m_dim, m_dim))
        omega[0, 1], omega[1, 0] = 1.0, -1.0
    omega = _finite("omega", omega, m_dim)
    if omega.shape != (m_dim, m_dim) or linalg.sup_norm(omega + omega.T) > 0:
        raise ValueError("omega must be an antisymmetric m x m matrix")
    return _product_leaves(
        f"presymplectic pair on R^{m_dim}", m_dim, linalg.null_basis(omega), "ker",
        "kernel x kernel",
        dirac=minus_double(from_two_form(ChartManifold(m_dim), omega, name="graph(omega)")))


def finite_scenario(instance: str = "ex_basegp") -> Scenario:
    """Discrete instances exercising both quotient constructions."""
    if instance == "ex_basegp":
        g = fin.pair_groupoid(4)
        blocks = [[0, 1], [2, 3]]
        nss = fin.pair_block_nss(4, blocks)
        duality = True
    elif instance == "ex_vb":
        g = fin.group_bundle_groupoid(4, 2)
        nss = fin.group_bundle_nss(4, 2, [0, 2])
        duality = False
    else:
        raise ValueError(f"unknown finite instance {instance!r}")
    return Scenario(name=f"finite {instance}", finite=FiniteInstance(g, nss, duality))


FAMILIES = {
    "finite": finite_scenario,
    "pair": pair_scenario,
    "vb_trivial": vb_scenario,
    "group_action_pair": group_action_pair_scenario,
    "presymplectic_pair_dirac": presymplectic_pair_dirac_scenario,
}

FAMILY_DESCRIPTIONS = {
    "finite": "Discrete quotient instances (params: instance = ex_basegp | ex_vb).",
    "pair": "Pair groupoid on R^m with a product distribution "
            "(params: m_dim, d_basis = rows spanning D).",
    "vb_trivial": "Trivial vector-bundle groupoid R^k x M with W x F "
                  "(params: k, w_basis, m_dim, f_basis); m_dim 0 with f_basis [] "
                  "gives the vector group R^k, a groupoid over a point: the paper's "
                  "Lie-group case.",
    "group_action_pair": "Pair groupoid with a free diagonal translation action "
                         "(params: m_dim, direction).",
    "presymplectic_pair_dirac": "Pair groupoid with the difference of constant "
                                "two-form graphs (params: m_dim, omega matrix).",
}


def build_scenario(family: str, params: dict) -> Scenario:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    builder = FAMILIES[family]
    kwargs = dict(params or {})
    return builder(**kwargs)

"""Builtin scenario families.

Each smooth family takes its groupoid, with affine structure maps and
uniform samplers, from :func:`affine_groupoid`, and its affine leaf labels
and their section from one label-chart helper; it adds the distribution
under study and the explicit quotient structure on labels.  Families:

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
from .geomcore import ChartManifold, SmoothMap, VectorField, constant_field
from .leafspace import LeafChart
from .liegroupoid import SmoothGroupoid
from .multdist import Distribution
from .params import DEFAULT_PARAMS

SAMPLE_HALF_WIDTH = 2.0


def affine_map(domain: ChartManifold, codomain: ChartManifold,
               matrix, name: str = "") -> SmoothMap:
    a = np.asarray(matrix, dtype=float)
    return SmoothMap(domain, codomain, lambda x: a @ x, jac=lambda x: a, name=name)


def _uniform(rng, dim: int) -> np.ndarray:
    return rng.uniform(-SAMPLE_HALF_WIDTH, SAMPLE_HALF_WIDTH, size=dim)


def _complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal complement of the span of ``basis`` columns in R^dim."""
    if basis.size == 0:
        return np.eye(dim)
    return linalg.null_basis(np.asarray(basis, dtype=float).T, DEFAULT_PARAMS.tol_rank)


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
    inv = np.block([[-np.eye(k), np.zeros((k, m))],
                    [np.zeros((m, k)), np.eye(m)]])
    mul = np.zeros((k + m, 2 * (k + m)))
    mul[:k, :k] = np.eye(k)                      # x
    mul[:k, k + m: 2 * k + m] = np.eye(k)        # + y
    mul[k:, k: k + m] = np.eye(m)                # base point of g
    return affine_groupoid(proj, proj, np.vstack([np.zeros((k, m)), np.eye(m)]), inv, mul,
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
    normal: frozenset
    nss: fin.NormalSubgroupoidSystem
    expected_duality: str  # "isomorphic" or "different"

    @cached_property
    def normal_quotient(self) -> fin.FiniteGroupoid:
        """G/N, built on first use and kept for the life of this instance."""
        return fin.quotient_by_normal_subgroupoid(self.groupoid, self.normal)


@dataclass
class Scenario:
    name: str
    family: str
    params: dict = field(default_factory=dict)
    groupoid: Optional[SmoothGroupoid] = None
    dist: Optional[Distribution] = None
    chart: Optional[LeafChart] = None
    base_fields: List[VectorField] = field(default_factory=list)
    complete: bool = False
    quotient: Optional[SmoothGroupoid] = None
    quotient_section: Optional[SmoothMap] = None
    dirac: Optional[DiracStructure] = None
    finite: Optional[FiniteInstance] = None
    expected: dict = field(default_factory=dict)


def _label_chart(gd: SmoothGroupoid, lg: np.ndarray, lp: np.ndarray,
                 section: np.ndarray) -> dict:
    """The Scenario's affine leaf chart, with arrow labels ``lg`` and object
    labels ``lp``, and its ``section`` from arrow labels back to arrows."""
    chart = LeafChart(
        affine_map(gd.space, ChartManifold(lg.shape[0]), lg, name="labels"),
        affine_map(gd.base, ChartManifold(lp.shape[0]), lp, name="base labels"))
    return dict(chart=chart, quotient_section=affine_map(
        chart.lambda_g.codomain, gd.space, section, name="label section"))


def _product_leaves(m_dim: int, d: np.ndarray, comp: np.ndarray, prefix: str,
                    dist_name: str) -> dict:
    """D x D on the pair groupoid of R^m, with the Scenario fields it determines.

    ``d`` and ``comp`` are orthonormal bases of D and of its complement.  The
    labels are the ``comp`` coordinates of both slots, and the quotient is
    the pair groupoid of the complement.
    """
    gd = pair_groupoid_maps(m_dim)
    r = d.shape[1]

    gens = []
    for j in range(r):
        gens.append(constant_field(gd.space, np.concatenate([d[:, j], np.zeros(m_dim)]),
                                   name=f"{prefix}_left[{j}]"))
        gens.append(constant_field(gd.space, np.concatenate([np.zeros(m_dim), d[:, j]]),
                                   name=f"{prefix}_right[{j}]"))
    dist = Distribution(gd.space, gens, rank=2 * r, name=dist_name)

    label_dim = m_dim - r
    lg_matrix = np.zeros((2 * label_dim, 2 * m_dim))
    lg_matrix[:label_dim, :m_dim] = comp.T
    lg_matrix[label_dim:, m_dim:] = comp.T
    section_matrix = np.zeros((2 * m_dim, 2 * label_dim))
    section_matrix[:m_dim, :label_dim] = comp
    section_matrix[m_dim:, label_dim:] = comp

    base_fields = [constant_field(gd.base, d[:, j], name=f"{prefix}[{j}]") for j in range(r)]
    return dict(groupoid=gd, dist=dist, base_fields=base_fields,
                quotient=pair_groupoid_maps(label_dim),
                **_label_chart(gd, lg_matrix, comp.T, section_matrix))


def pair_scenario(m_dim: int = 2, d_basis=((1.0, 0.0),)) -> Scenario:
    """Pair groupoid on R^m with the product distribution D x D."""
    d = linalg.orth_basis(np.asarray(d_basis, dtype=float).T)
    r = d.shape[1]
    label_dim = m_dim - r
    return Scenario(
        name=f"pair(R^{m_dim}, D rank {r})", family="pair",
        params={"m_dim": m_dim, "d_basis": np.asarray(d_basis, dtype=float).tolist()},
        **_product_leaves(m_dim, d, _complement(d, m_dim), "D", "DxD"), complete=True,
        expected={"rank_S": 2 * r, "rank_S_cap_TP": r, "rank_S_t": r,
                  "object_label_dim": label_dim, "arrow_label_dim": 2 * label_dim})


def vb_scenario(k: int = 2, w_basis=((1.0, 0.0),), m_dim: int = 2,
                f_basis=((1.0, 0.0),)) -> Scenario:
    """Vector-bundle groupoid R^k x M with the distribution W x F."""
    gd = vb_groupoid_maps(k, m_dim)
    w = linalg.orth_basis(np.asarray(w_basis, dtype=float).T)
    f = linalg.orth_basis(np.asarray(f_basis, dtype=float).T)
    cw = _complement(w, k)
    cf = _complement(f, m_dim)
    nw, nf = w.shape[1], f.shape[1]

    gens = []
    for j in range(nw):
        gens.append(constant_field(gd.space, np.concatenate([w[:, j], np.zeros(m_dim)]),
                                   name=f"W[{j}]"))
    for j in range(nf):
        gens.append(constant_field(gd.space, np.concatenate([np.zeros(k), f[:, j]]),
                                   name=f"F[{j}]"))
    dist = Distribution(gd.space, gens, rank=nw + nf, name="WxF")

    fiber_labels = k - nw
    base_labels = m_dim - nf
    lg_matrix = np.zeros((fiber_labels + base_labels, k + m_dim))
    lg_matrix[:fiber_labels, :k] = cw.T
    lg_matrix[fiber_labels:, k:] = cf.T
    section_matrix = np.zeros((k + m_dim, fiber_labels + base_labels))
    section_matrix[:k, :fiber_labels] = cw
    section_matrix[k:, fiber_labels:] = cf

    base_fields = [constant_field(gd.base, f[:, j], name=f"F[{j}]") for j in range(nf)]
    return Scenario(
        name=f"vb(R^{k} x R^{m_dim}, W rank {nw}, F rank {nf})", family="vb_trivial",
        params={"k": k, "w_basis": np.asarray(w_basis, dtype=float).tolist(),
                "m_dim": m_dim, "f_basis": np.asarray(f_basis, dtype=float).tolist()},
        groupoid=gd, dist=dist, base_fields=base_fields, complete=True,
        quotient=vb_groupoid_maps(fiber_labels, base_labels),
        **_label_chart(gd, lg_matrix, cf.T, section_matrix),
        expected={"rank_S": nw + nf, "rank_S_cap_TP": nf, "rank_S_t": nw,
                  "object_label_dim": base_labels,
                  "arrow_label_dim": fiber_labels + base_labels})


def group_action_pair_scenario(m_dim: int = 2, direction=(1.0, 0.0)) -> Scenario:
    """Pair groupoid with the orbit distribution of diagonal translations.

    The translations along ``direction`` act on both slots at once; the
    orbit distribution is spanned by the single diagonal field and the
    leaf space is the pair groupoid of the translation quotient times an
    additive line recording the relative offset.
    """
    gd = pair_groupoid_maps(m_dim)
    u = np.asarray(direction, dtype=float)
    if not np.linalg.norm(u) > 0:
        raise ValueError(f"direction must be a nonzero vector, got {u.tolist()}")
    u = u / np.linalg.norm(u)
    comp = _complement(u.reshape(-1, 1), m_dim)
    b = m_dim - 1

    gens = [constant_field(gd.space, np.concatenate([u, u]), name="orbit")]
    dist = Distribution(gd.space, gens, rank=1, name="orbit span")

    lg_matrix = np.zeros((2 * b + 1, 2 * m_dim))
    lg_matrix[:b, :m_dim] = comp.T
    lg_matrix[b: 2 * b, m_dim:] = comp.T
    lg_matrix[2 * b, :m_dim] = u
    lg_matrix[2 * b, m_dim:] = -u
    section_matrix = np.zeros((2 * m_dim, 2 * b + 1))
    section_matrix[:m_dim, :b] = comp
    section_matrix[:m_dim, 2 * b] = u
    section_matrix[m_dim:, b: 2 * b] = comp

    base_fields = [constant_field(gd.base, u, name="orbit base")]
    return Scenario(
        name=f"translation action on pair(R^{m_dim})", family="group_action_pair",
        params={"m_dim": m_dim, "direction": np.asarray(direction, dtype=float).tolist()},
        groupoid=gd, dist=dist, base_fields=base_fields, complete=True,
        quotient=gauge_groupoid_maps(b), **_label_chart(gd, lg_matrix, comp.T, section_matrix),
        expected={"rank_S": 1, "rank_S_cap_TP": 1, "rank_S_t": 0,
                  "object_label_dim": b, "arrow_label_dim": 2 * b + 1})


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
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (m_dim, m_dim) or linalg.sup_norm(omega + omega.T) > 0:
        raise ValueError("omega must be an antisymmetric m x m matrix")

    kernel = linalg.null_basis(omega)
    z = kernel.shape[1]
    comp = _complement(kernel, m_dim)
    dirac_g = minus_double(from_two_form(ChartManifold(m_dim), omega, name="graph(omega)"))
    label_dim = m_dim - z
    reduced = comp.T @ omega @ comp
    return Scenario(
        name=f"presymplectic pair on R^{m_dim}", family="presymplectic_pair_dirac",
        params={"m_dim": m_dim, "omega": omega.tolist()},
        **_product_leaves(m_dim, kernel, comp, "ker", "kernel x kernel"), complete=True,
        dirac=dirac_g,
        expected={"rank_S": 2 * z, "rank_S_cap_TP": z, "rank_S_t": z,
                  "reduced_omega": reduced.tolist(),
                  "object_label_dim": label_dim, "arrow_label_dim": 2 * label_dim})


def finite_scenario(instance: str = "ex_basegp") -> Scenario:
    """Discrete instances exercising both quotient constructions."""
    if instance == "ex_basegp":
        g = fin.pair_groupoid(4)
        blocks = [[0, 1], [2, 3]]
        normal = fin.pair_block_subgroupoid(4, blocks)
        nss = fin.pair_block_nss(4, blocks)
        expected = "isomorphic"
    elif instance == "ex_vb":
        g = fin.group_bundle_groupoid(4, 2)
        normal = frozenset(m * 4 + x for m in range(2) for x in (0, 2))
        nss = fin.group_bundle_nss(4, 2, [0, 2])
        expected = "different"
    else:
        raise ValueError(f"unknown finite instance {instance!r}")
    return Scenario(
        name=f"finite {instance}", family="finite", params={"instance": instance},
        finite=FiniteInstance(g, normal, nss, expected))


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

"""Constructions and probes that only the tests use.

Each test module imports what it needs with ``from helpers import ...``;
pytest puts this directory on the import path.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

import numpy as np

from folioid import fingroupoid as fg
from folioid import linalg
from folioid.errors import FolioidError
from folioid.geomcore import ChartManifold, Point, SmoothMap, VectorField
from folioid.leafspace import LeafChart
from folioid.liegroupoid import (AlgebroidFiber, CotangentArrow, SmoothGroupoid, TangentArrow,
                                 algebroid_fiber, pairings, source_translates,
                                 target_translates)
from folioid.params import DEFAULT_PARAMS


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


def linear_field(base: ChartManifold, mat, name: str = "") -> VectorField:
    a = np.asarray(mat, dtype=float).copy()
    return VectorField(base, lambda x: a @ x, name=name)


def algebroid_anchor(gd: SmoothGroupoid, fiber: AlgebroidFiber) -> np.ndarray:
    """The anchor on a fiber: the source differential applied columnwise."""
    e = gd.unit(fiber.p)
    return gd.src.jacobian(e) @ fiber.basis


def tangent_unit(gd: SmoothGroupoid, p: Point, v_p: Point) -> TangentArrow:
    """Unit of the tangent prolongation over a base tangent vector."""
    return TangentArrow(gd.unit(p), gd.unit.jacobian(p) @ np.asarray(v_p, dtype=float))


def cotangent_source(gd: SmoothGroupoid, ca: CotangentArrow, fiber: AlgebroidFiber = None,
                     params=DEFAULT_PARAMS) -> np.ndarray:
    """Source of a covector: its pairings with the algebroid basis at s(g),
    left-translated to g (the components of s^(alpha_g) in that basis)."""
    if fiber is None:
        fiber = algebroid_fiber(gd, gd.src(ca.base), params)
    return pairings(ca.alpha, source_translates(gd, ca.base, fiber, params))


def cotangent_target(gd: SmoothGroupoid, ca: CotangentArrow, fiber: AlgebroidFiber = None,
                     params=DEFAULT_PARAMS) -> np.ndarray:
    """Target of a covector: its pairings with the algebroid basis at t(g),
    s-projected and right-translated to g."""
    if fiber is None:
        fiber = algebroid_fiber(gd, gd.tgt(ca.base), params)
    return pairings(ca.alpha, target_translates(gd, ca.base, fiber, params))


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

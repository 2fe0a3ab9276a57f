"""Finite groupoids as explicit tables, with both quotient constructions.

Arrows and objects are integer ids.  The partial multiplication is a dict
keyed by composable pairs; asking for a non-composable product raises
instead of returning a sentinel, to make test bugs loud.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from .errors import FolioidError, NotComposable, StructureError, ThetaIllDefined

Arrow = int
Obj = int


@dataclass(frozen=True)
class FiniteGroupoid:
    objects: Tuple[Obj, ...]
    arrows: Tuple[Arrow, ...]
    src: Mapping[Arrow, Obj]
    tgt: Mapping[Arrow, Obj]
    unit: Mapping[Obj, Arrow]
    inv: Mapping[Arrow, Arrow]
    mul: Mapping[Tuple[Arrow, Arrow], Arrow]

    def is_composable(self, g: Arrow, h: Arrow) -> bool:
        return self.src[g] == self.tgt[h]

    def compose(self, g: Arrow, h: Arrow) -> Arrow:
        if not self.is_composable(g, h):
            raise NotComposable(f"src({g})={self.src[g]} != tgt({h})={self.tgt[h]}")
        try:
            return self.mul[(g, h)]
        except KeyError:
            raise StructureError(f"multiplication table missing composable pair ({g}, {h})")

    def unit_arrows(self) -> FrozenSet[Arrow]:
        return frozenset(self.unit.values())


@dataclass(frozen=True)
class FiniteMorphism:
    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: Mapping[Arrow, Arrow]
    object_map: Mapping[Obj, Obj]


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness: tuple):
        self.violations.append(Violation(axiom, tuple(witness)))

    def to_json(self) -> dict:
        return {"valid": self.valid,
                "violations": [v.to_json() for v in self.violations]}


def check_structure(g: FiniteGroupoid) -> None:
    """Raise StructureError for malformed tables (distinct from axiom failures)."""
    objects = set(g.objects)
    arrows = set(g.arrows)
    if len(objects) != len(g.objects) or len(arrows) != len(g.arrows):
        raise StructureError("duplicate ids in objects or arrows")
    for a in g.arrows:
        if a not in g.src or a not in g.tgt:
            raise StructureError(f"src/tgt not total: missing arrow {a}")
        if g.src[a] not in objects or g.tgt[a] not in objects:
            raise StructureError(f"src/tgt of arrow {a} out of range")
        if a not in g.inv:
            raise StructureError(f"inv not total: missing arrow {a}")
        if g.inv[a] not in arrows:
            raise StructureError(f"inv of arrow {a} out of range")
    for p in g.objects:
        if p not in g.unit:
            raise StructureError(f"unit not total: missing object {p}")
        if g.unit[p] not in arrows:
            raise StructureError(f"unit of object {p} out of range")
    for (a, b), c in g.mul.items():
        if a not in arrows or b not in arrows or c not in arrows:
            raise StructureError(f"mul entry ({a},{b})->{c} out of range")


def _arrows_at(end: Mapping[Arrow, Obj], arrows: Iterable[Arrow]) -> Dict[Obj, list]:
    """The arrows whose ``end`` (a src or tgt table) is each object, in the
    order of ``arrows``; look an object up with ``.get(p, ())``."""
    out: Dict[Obj, list] = {}
    for a in arrows:
        out.setdefault(end[a], []).append(a)
    return out


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustively check the five groupoid axioms plus uniqueness corollaries.

    The report lists every violated axiom with a witness; malformed tables
    raise StructureError instead of being reported.
    """
    check_structure(g)
    report = ValidationReport()

    into = _arrows_at(g.tgt, g.arrows)
    composable = {(a, b) for a in g.arrows for b in into.get(g.src[a], ())}
    for pair in g.mul:
        if pair not in composable:
            report.add("mul_domain", ("defined_on_non_composable",) + pair)
    for pair in composable:
        if pair not in g.mul:
            report.add("mul_domain", ("missing_composable",) + pair)

    def mul_or_none(a, b):
        return g.mul.get((a, b))

    # (i) source/target of products
    for (a, b) in composable:
        c = mul_or_none(a, b)
        if c is None:
            continue
        if g.src[c] != g.src[b] or g.tgt[c] != g.tgt[a]:
            report.add("i_source_target", (a, b, c))

    # (ii) associativity on all composable triples
    for (a, b) in composable:
        ab = mul_or_none(a, b)
        if ab is None:
            continue
        for c in into.get(g.src[b], ()):
            bc = mul_or_none(b, c)
            left = mul_or_none(ab, c) if g.src[ab] == g.tgt[c] else None
            right = mul_or_none(a, bc) if bc is not None and g.src[a] == g.tgt[bc] else None
            if left is None or right is None or left != right:
                report.add("ii_associativity", (a, b, c))

    # (iii) units sit over their objects
    for p in g.objects:
        e = g.unit[p]
        if g.src[e] != p or g.tgt[e] != p:
            report.add("iii_unit_base", (p, e))

    # (iv) units are neutral
    for a in g.arrows:
        e_s = g.unit[g.src[a]]
        e_t = g.unit[g.tgt[a]]
        if mul_or_none(a, e_s) != a:
            report.add("iv_unit_neutral", (a, e_s, "right"))
        if mul_or_none(e_t, a) != a:
            report.add("iv_unit_neutral", (a, e_t, "left"))

    # (v) declared inverses are two-sided
    for a in g.arrows:
        b = g.inv[a]
        if g.src[b] != g.tgt[a] or g.tgt[b] != g.src[a]:
            report.add("v_inverse", (a, b, "base"))
            continue
        if mul_or_none(a, b) != g.unit[g.tgt[a]] or mul_or_none(b, a) != g.unit[g.src[a]]:
            report.add("v_inverse", (a, b, "product"))

    # cancellation and inverse-uniqueness consequences, re-derived by brute force
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


def _check_wide_subgroupoid(g: FiniteGroupoid, n: FrozenSet[Arrow]) -> None:
    """Raise ValueError naming the failing closure if N is not wide in G."""
    arrows = set(g.arrows)
    if not n <= arrows:
        raise ValueError("subgroupoid contains unknown arrow ids")
    missing_units = g.unit_arrows() - n
    if missing_units:
        raise ValueError(f"not wide: missing units {sorted(missing_units)}")
    for a in n:
        if g.inv[a] not in n:
            raise ValueError(f"not closed under inversion at arrow {a}")
    for a in n:
        for b in n:
            if g.is_composable(a, b) and g.compose(a, b) not in n:
                raise ValueError(f"not closed under multiplication at ({a}, {b})")


def is_normal_subgroupoid(g: FiniteGroupoid, n: Iterable[Arrow]):
    """Conjugation-stability of a wide subgroupoid; returns (bool, witness).

    Checks g n g^-1 in N for every loop n in N and every arrow g starting
    from the loop's base point.
    """
    n = frozenset(n)
    _check_wide_subgroupoid(g, n)
    leaving = _arrows_at(g.src, g.arrows)
    for loop in n:
        if g.src[loop] != g.tgt[loop]:
            continue
        for a in leaving.get(g.src[loop], ()):
            conj = g.compose(g.compose(a, loop), g.inv[a])
            if conj not in n:
                return False, (a, loop, conj)
    return True, None


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def labels(self) -> Dict:
        """Stable relabeling: each item's class index, classes numbered
        0..k-1 in the order of their roots, which are their least members."""
        roots = sorted({self.find(x) for x in self.parent})
        index = {root: i for i, root in enumerate(roots)}
        return {x: index[self.find(x)] for x in self.parent}


def quotient_by_normal_subgroupoid(g: FiniteGroupoid, n: Iterable[Arrow]) -> FiniteGroupoid:
    """Quotient of G by a normal subgroupoid N.

    Objects are identified when an N-arrow joins them; arrows when they
    differ by N-factors on both sides.  :func:`_build_quotient` checks that
    every induced structure map is well defined.
    """
    n = frozenset(n)
    ok, witness = is_normal_subgroupoid(g, n)
    if not ok:
        raise ValueError(f"not a normal subgroupoid, witness {witness}")

    uf_obj = _UnionFind(g.objects)
    for a in n:
        uf_obj.union(g.tgt[a], g.src[a])

    n_leaving, n_into = _arrows_at(g.src, n), _arrows_at(g.tgt, n)
    uf_arr = _UnionFind(g.arrows)
    for h in g.arrows:
        for n1 in n_leaving.get(g.tgt[h], ()):
            n1h = g.compose(n1, h)
            for n2 in n_into.get(g.src[h], ()):
                uf_arr.union(h, g.compose(n1h, n2))

    return _build_quotient(g, uf_obj.labels(), uf_arr.labels())


def _build_quotient(g: FiniteGroupoid, obj_class: Mapping[Obj, int],
                    arr_class: Mapping[Arrow, int]) -> FiniteGroupoid:
    """Assemble the quotient groupoid given class labels; verify consistency.

    Representatives that disagree on an induced src, tgt, inv, unit or
    product raise FolioidError; a class pair with no product is reported by
    the final validation as ``mul_domain``.
    """
    objects = tuple(sorted(set(obj_class.values())))
    arrows = tuple(sorted(set(arr_class.values())))
    src: Dict[int, int] = {}
    tgt: Dict[int, int] = {}
    unit: Dict[int, int] = {}
    inv: Dict[int, int] = {}
    mul: Dict[Tuple[int, int], int] = {}

    for a in g.arrows:
        ca = arr_class[a]
        cs, ct = obj_class[g.src[a]], obj_class[g.tgt[a]]
        if src.setdefault(ca, cs) != cs or tgt.setdefault(ca, ct) != ct:
            raise FolioidError(f"induced src/tgt ill defined on class {ca}")
        ci = arr_class[g.inv[a]]
        if inv.setdefault(ca, ci) != ci:
            raise FolioidError(f"induced inverse ill defined on class {ca}")
    for p in g.objects:
        cu = arr_class[g.unit[p]]
        if unit.setdefault(obj_class[p], cu) != cu:
            raise FolioidError(f"induced unit ill defined on class {obj_class[p]}")

    for (a, b), c in g.mul.items():
        key = (arr_class[a], arr_class[b])
        if mul.setdefault(key, arr_class[c]) != arr_class[c]:
            raise FolioidError(f"induced multiplication ill defined on {key}")

    quotient = FiniteGroupoid(objects, arrows, src, tgt, unit, inv, mul)
    report = validate_groupoid(quotient)
    if not report.valid:
        raise FolioidError(f"quotient is not a groupoid: {report.violations[:3]}")
    return quotient


def validate_morphism(f: FiniteMorphism) -> ValidationReport:
    report = ValidationReport()
    g, g2 = f.source, f.target
    for a in g.arrows:
        fa = f.arrow_map[a]
        if g2.src[fa] != f.object_map[g.src[a]]:
            report.add("morphism_source", (a,))
        if g2.tgt[fa] != f.object_map[g.tgt[a]]:
            report.add("morphism_target", (a,))
    for (a, b), c in g.mul.items():
        if g2.compose(f.arrow_map[a], f.arrow_map[b]) != f.arrow_map[c]:
            report.add("morphism_multiplicative", (a, b))
    return report


# ---------------------------------------------------------------------------
# normal subgroupoid systems

def coset(g: FiniteGroupoid, n: FrozenSet[Arrow], a: Arrow) -> FrozenSet[Arrow]:
    """gN = {g * k : k in N composable with g}."""
    out = {a}
    for k in n:
        if g.src[a] == g.tgt[k]:
            out.add(g.compose(a, k))
    return frozenset(out)


def coset_rep(g: FiniteGroupoid, n: FrozenSet[Arrow], a: Arrow) -> Arrow:
    return min(coset(g, n, a))


def _coset_reps(g: FiniteGroupoid, n: FrozenSet[Arrow]) -> Dict[Arrow, Arrow]:
    """Each arrow's canonical coset representative, one coset per arrow."""
    return {a: coset_rep(g, n, a) for a in g.arrows}


@dataclass(frozen=True)
class NormalSubgroupoidSystem:
    """A wide subgroupoid N, an object relation R, and a coset action theta.

    ``theta`` is stored on canonical coset representatives (minimal arrow
    ids); use :func:`make_nss` to build one from an arbitrary table.
    """

    n_arrows: FrozenSet[Arrow]
    relation: FrozenSet[Tuple[Obj, Obj]]
    theta: Mapping[Tuple[Tuple[Obj, Obj], Arrow], Arrow]


def make_nss(g: FiniteGroupoid, n: Iterable[Arrow],
             relation: Iterable[Tuple[Obj, Obj]],
             theta_entries: Mapping[Tuple[Tuple[Obj, Obj], Arrow], Arrow]) -> NormalSubgroupoidSystem:
    """Canonicalize a theta table onto minimal coset representatives.

    Entries keyed by different representatives of one coset must agree;
    disagreement raises ThetaIllDefined.
    """
    n = frozenset(n)
    _check_wide_subgroupoid(g, n)
    rep = _coset_reps(g, n)
    canonical: Dict[Tuple[Tuple[Obj, Obj], Arrow], Arrow] = {}
    for ((p, q), a), b in theta_entries.items():
        if a not in rep or b not in rep:
            raise ThetaIllDefined(f"theta{((p, q), a)} = {b} names an arrow not in g")
        key = ((p, q), rep[a])
        value = rep[b]
        if canonical.setdefault(key, value) != value:
            raise ThetaIllDefined(
                f"theta(({p},{q}), coset of {a}) has conflicting values")
    return NormalSubgroupoidSystem(n, frozenset(tuple(pair) for pair in relation), canonical)


def validate_nss(g: FiniteGroupoid, nss: NormalSubgroupoidSystem) -> ValidationReport:
    """Exhaustive check of the three compatibility conditions and the action axioms."""
    report = ValidationReport()
    n = nss.n_arrows
    _check_wide_subgroupoid(g, n)

    objects = set(g.objects)
    rel = nss.relation
    for (p, q) in rel:
        if p not in objects or q not in objects:
            raise StructureError(f"relation pair ({p},{q}) out of range")
    for p in objects:
        if (p, p) not in rel:
            report.add("r_equivalence", ("reflexive", p))
    for (p, q) in rel:
        if (q, p) not in rel:
            report.add("r_equivalence", ("symmetric", p, q))
    for (p, q) in rel:
        for (q2, r) in rel:
            if q == q2 and (p, r) not in rel:
                report.add("r_equivalence", ("transitive", p, q, r))

    rep = _coset_reps(g, n)
    reps = sorted(set(rep.values()))
    for key in nss.theta:
        (p, q), a = key
        if (p, q) not in rel:
            report.add("theta_domain", ("pair_not_in_relation", p, q))
        if rep.get(a) != a or g.tgt[a] != q:
            raise ThetaIllDefined(f"theta key {key} is not a canonical coset over {q}")
    for key, b in nss.theta.items():
        if b not in rep:
            raise ThetaIllDefined(f"theta{key} = {b} names an arrow not in g")

    def theta(pair, a):
        return nss.theta.get((pair, rep[a]))

    # totality on the declared domain
    for (p, q) in rel:
        for a in reps:
            if g.tgt[a] == q and ((p, q), a) not in nss.theta:
                report.add("theta_total", (p, q, a))

    # action axioms: unit, moment map, compatibility
    for a in reps:
        q = g.tgt[a]
        if (q, q) in rel and theta((q, q), a) != a:
            report.add("theta_unit", (q, a))
    for ((p, q), a), b in nss.theta.items():
        if g.tgt[b] != p:
            report.add("theta_moment", (p, q, a, b))
    for (p, q) in rel:
        for (q2, r) in rel:
            if q2 != q:
                continue
            for a in reps:
                if g.tgt[a] != r:
                    continue
                inner = theta((q, r), a)
                if inner is None:
                    continue
                two_step = theta((p, q), inner)
                one_step = theta((p, r), a)
                if two_step != one_step:
                    report.add("theta_compat", (p, q, r, a))

    # condition 1: sources of theta-related cosets are R-related
    for ((p, q), a), b in nss.theta.items():
        for ga in coset(g, n, a):
            for hb in coset(g, n, b):
                if (g.src[hb], g.src[ga]) not in rel:
                    report.add("nss_condition_1", (p, q, ga, hb))

    # condition 2: units transport to units
    for (p, q) in rel:
        value = theta((p, q), g.unit[q])
        if value != rep[g.unit[p]]:
            report.add("nss_condition_2", (p, q, value))

    # condition 3: compatibility with multiplication
    into = _arrows_at(g.tgt, g.arrows)
    for (p, q) in rel:
        for a in into.get(q, ()):
            a_img = theta((p, q), a)
            if a_img is None:
                continue
            composable = into.get(g.src[a], ())
            # walked only when some b composes, as the per-b walk was
            a_coset = coset(g, n, a_img) if composable else ()
            for b in composable:
                for a2 in a_coset:
                    pair2 = (g.src[a2], g.src[a])
                    if pair2 not in rel:
                        continue
                    b_img = theta(pair2, b)
                    if b_img is None:
                        continue
                    b2 = None
                    for cand in coset(g, n, b_img):
                        if g.tgt[cand] == g.src[a2]:
                            b2 = cand
                            break
                    if b2 is None:
                        report.add("nss_condition_3", ("no_composable_rep", p, q, a, b))
                        continue
                    lhs = theta((p, q), g.compose(a, b))
                    rhs = rep[g.compose(a2, b2)]
                    if lhs != rhs:
                        report.add("nss_condition_3", (p, q, a, b, lhs, rhs))
    return report


def quotient_by_nss(g: FiniteGroupoid, nss: NormalSubgroupoidSystem
                    ) -> Tuple[FiniteGroupoid, FiniteMorphism]:
    """Quotient arrows by theta-orbits of cosets and objects by R.

    Returns the quotient groupoid together with the projection morphism,
    which is verified to satisfy the morphism equations exactly.
    """
    report = validate_nss(g, nss)
    if not report.valid:
        raise ValueError(f"invalid normal subgroupoid system: {report.violations[:3]}")
    n = nss.n_arrows

    uf_obj = _UnionFind(g.objects)
    for (p, q) in nss.relation:
        uf_obj.union(p, q)
    obj_class = uf_obj.labels()

    uf_arr = _UnionFind(g.arrows)
    for a in g.arrows:
        for b in coset(g, n, a):
            uf_arr.union(a, b)
    for ((p, q), a), b in nss.theta.items():
        uf_arr.union(a, b)
    arr_class = uf_arr.labels()

    quotient = _build_quotient(g, obj_class, arr_class)
    projection = FiniteMorphism(g, quotient, dict(arr_class), dict(obj_class))
    morphism_report = validate_morphism(projection)
    if not morphism_report.valid:
        raise FolioidError(f"projection is not a morphism: {morphism_report.violations[:3]}")
    return quotient, projection


# ---------------------------------------------------------------------------
# isomorphism by Brandt's decomposition

def _components(g: FiniteGroupoid):
    """Per orbit, least object r first: the orbit's objects ascending, the
    least arrow r -> p for each p in it, and the isotropy arrows at r."""
    leaving: Dict[Obj, list] = {p: [] for p in g.objects}
    for a in sorted(g.arrows):
        leaving[g.src[a]].append(a)
    seen: set = set()
    out = []
    for r in sorted(g.objects):
        if r in seen:
            continue
        frame = {r: g.unit[r]}
        for a in leaving[r]:
            frame.setdefault(g.tgt[a], a)
        seen.update(frame)
        out.append((sorted(frame), frame, [a for a in leaving[r] if g.tgt[a] == r]))
    return out


def _extend(g1: FiniteGroupoid, g2: FiniteGroupoid, e1: Arrow, e2: Arrow,
            gens, images) -> Optional[Dict[Arrow, Arrow]]:
    """Extend e1 -> e2 and gens -> images along products with the generators
    over their span; None if two products ask for different images."""
    psi = {e1: e2}
    frontier = [e1]
    for h in frontier:
        for s, t in zip(gens, images):
            hs, ht = g1.compose(h, s), g2.compose(psi[h], t)
            if hs not in psi:
                psi[hs] = ht
                frontier.append(hs)
            elif psi[hs] != ht:
                return None
    return psi


def _isotropy_isomorphism(g1: FiniteGroupoid, loops1, g2: FiniteGroupoid, loops2
                          ) -> Optional[Dict[Arrow, Arrow]]:
    """A group isomorphism, or None.  Generators are chosen greedily, highest
    order first; every choice of their images among elements of the same
    order is extended along products, so the cost depends only on the order."""
    if len(loops1) != len(loops2):
        return None
    e1, e2 = g1.unit[g1.src[loops1[0]]], g2.unit[g2.src[loops2[0]]]
    order1 = {x: len(_extend(g1, g1, e1, e1, [x], [x])) for x in loops1}
    order2 = {y: len(_extend(g2, g2, e2, e2, [y], [y])) for y in loops2}
    gens: list = []
    for x in sorted(loops1, key=lambda x: (-order1[x], x)):
        if x not in _extend(g1, g1, e1, e1, gens, gens):
            gens.append(x)
    candidates = [[y for y in loops2 if order2[y] == order1[x]] for x in gens]
    for images in itertools.product(*candidates):
        psi = _extend(g1, g2, e1, e2, gens, images)
        if psi is not None and len(set(psi.values())) == len(psi):
            return psi
    return None


def find_isomorphism(g1: FiniteGroupoid, g2: FiniteGroupoid
                     ) -> Optional[Tuple[Dict[Obj, Obj], Dict[Arrow, Arrow]]]:
    """An isomorphism ``(object_map, arrow_map)`` from g1 to g2, or None.

    By Brandt's structure theorem a groupoid is the disjoint union over its
    orbits of (pair groupoid on the orbit) x (isotropy group) (Mackenzie,
    *General Theory of Lie Groupoids and Lie Algebroids*, 2005, ch. 1).  So
    orbits of g1 and g2 are paired greedily by equal size and isomorphic
    isotropy; greedy pairing suffices because isomorphism of components is
    an equivalence relation.  With T[p]: r -> p the chosen arrows from the
    least object r of each orbit, psi the isotropy isomorphism and phi the
    object map, an arrow a: p -> q goes to
    T2[phi q] . psi(T1[q]^-1 . a . T1[p]) . T2[phi p]^-1, at a cost that
    depends on the isotropy orders, not on the number of objects or the ids.
    """
    if len(g1.objects) != len(g2.objects) or len(g1.arrows) != len(g2.arrows):
        return None
    unpaired = _components(g2)
    object_map: Dict[Obj, Obj] = {}
    frames = {}
    for objects1, frame1, loops1 in _components(g1):
        for i, (objects2, frame2, loops2) in enumerate(unpaired):
            psi = len(objects1) == len(objects2) and _isotropy_isomorphism(g1, loops1, g2, loops2)
            if psi:
                break
        else:
            return None
        del unpaired[i]
        for p, q in zip(objects1, objects2):
            object_map[p] = q
            frames[p] = (frame1[p], psi, frame2[q])

    arrow_map: Dict[Arrow, Arrow] = {}
    for a in g1.arrows:
        tp, psi, up = frames[g1.src[a]]
        tq, _, uq = frames[g1.tgt[a]]
        loop = g1.compose(g1.inv[tq], g1.compose(a, tp))
        arrow_map[a] = g2.compose(uq, g2.compose(psi[loop], g2.inv[up]))
    return object_map, arrow_map


# ---------------------------------------------------------------------------
# builtin finite instances

def pair_groupoid(n_objects: int) -> FiniteGroupoid:
    """Pair groupoid on {0..n-1}: arrow (a, b) from b to a, encoded a*n + b."""
    n = n_objects
    objects = tuple(range(n))
    arrows = tuple(range(n * n))
    src = {a * n + b: b for a in range(n) for b in range(n)}
    tgt = {a * n + b: a for a in range(n) for b in range(n)}
    unit = {p: p * n + p for p in range(n)}
    inv = {a * n + b: b * n + a for a in range(n) for b in range(n)}
    mul = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                mul[(a * n + b, b * n + c)] = a * n + c
    return FiniteGroupoid(objects, arrows, src, tgt, unit, inv, mul)


def group_bundle_groupoid(order: int, n_objects: int) -> FiniteGroupoid:
    """Disjoint union of n copies of Z/order, one group per object."""
    objects = tuple(range(n_objects))
    arrows = tuple(range(order * n_objects))

    def enc(x, m):
        return m * order + x

    src = {enc(x, m): m for x in range(order) for m in range(n_objects)}
    tgt = dict(src)
    unit = {m: enc(0, m) for m in range(n_objects)}
    inv = {enc(x, m): enc((-x) % order, m) for x in range(order) for m in range(n_objects)}
    mul = {}
    for m in range(n_objects):
        for x in range(order):
            for y in range(order):
                mul[(enc(x, m), enc(y, m))] = enc((x + y) % order, m)
    return FiniteGroupoid(objects, arrows, src, tgt, unit, inv, mul)


def pair_block_subgroupoid(n_objects: int, blocks: Iterable[Iterable[Obj]]) -> FrozenSet[Arrow]:
    """Arrows of the pair groupoid staying inside partition blocks."""
    n = n_objects
    out = set()
    for block in blocks:
        block = list(block)
        for a in block:
            for b in block:
                out.add(a * n + b)
    return frozenset(out)


def pair_block_nss(n_objects: int, blocks: Iterable[Iterable[Obj]]) -> NormalSubgroupoidSystem:
    """The system induced by a partition on the pair groupoid.

    N is the block subgroupoid, R the block relation, and theta moves the
    target of a coset {m} x B to any R-related object.
    """
    g = pair_groupoid(n_objects)
    blocks = [list(b) for b in blocks]
    n = pair_block_subgroupoid(n_objects, blocks)
    block_of = {}
    for block in blocks:
        for p in block:
            block_of[p] = tuple(sorted(block))
    relation = frozenset((p, q) for p in g.objects for q in g.objects
                         if block_of[p] == block_of[q])
    theta = {}
    for (p, q) in relation:
        for a in g.arrows:
            if g.tgt[a] != q:
                continue
            b = p * n_objects + g.src[a]
            theta[((p, q), a)] = b
    return make_nss(g, n, relation, theta)


def group_bundle_nss(order: int, n_objects: int, subgroup: Iterable[int]
                     ) -> NormalSubgroupoidSystem:
    """System on the Z/order bundle: N = W x objects, R full, theta transports cosets."""
    g = group_bundle_groupoid(order, n_objects)
    sub = sorted(set(int(x) % order for x in subgroup))
    n = frozenset(m * order + x for m in range(n_objects) for x in sub)
    relation = frozenset((p, q) for p in range(n_objects) for q in range(n_objects))
    theta = {}
    for (p, q) in relation:
        for a in g.arrows:
            if g.tgt[a] != q:
                continue
            x = a - q * order
            theta[((p, q), a)] = p * order + x
    return make_nss(g, n, relation, theta)


# ---------------------------------------------------------------------------
# JSON file format

def groupoid_to_json(g: FiniteGroupoid) -> dict:
    """Arrays parallel to ``arrows`` / ``objects``; mul as [g, h, gh] triples."""
    return {
        "objects": list(g.objects),
        "arrows": list(g.arrows),
        "src": [g.src[a] for a in g.arrows],
        "tgt": [g.tgt[a] for a in g.arrows],
        "unit": [g.unit[p] for p in g.objects],
        "inv": [g.inv[a] for a in g.arrows],
        "mul": [[a, b, c] for (a, b), c in sorted(g.mul.items())],
    }


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    try:
        objects = tuple(int(p) for p in data["objects"])
        arrows = tuple(int(a) for a in data["arrows"])
        src = {a: int(s) for a, s in zip(arrows, data["src"])}
        tgt = {a: int(t) for a, t in zip(arrows, data["tgt"])}
        unit = {p: int(u) for p, u in zip(objects, data["unit"])}
        inv = {a: int(i) for a, i in zip(arrows, data["inv"])}
        mul = {(int(a), int(b)): int(c) for a, b, c in data["mul"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed groupoid file: {exc}")
    if len(data["src"]) != len(arrows) or len(data["tgt"]) != len(arrows) \
            or len(data["inv"]) != len(arrows) or len(data["unit"]) != len(objects):
        raise StructureError("table lengths do not match id lists")
    g = FiniteGroupoid(objects, arrows, src, tgt, unit, inv, mul)
    check_structure(g)
    return g

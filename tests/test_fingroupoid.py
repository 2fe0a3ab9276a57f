import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folioid import fingroupoid as fg
from folioid.errors import FolioidError, NotComposable, StructureError, ThetaIllDefined
from helpers import (all_arrows_validate_groupoid, count_calls, cyclic_group_groupoid,
                     kernel_of_morphism, trivial_nss)


def mutated_nss(nss: fg.NormalSubgroupoidSystem, dropped_pairs=(), edits=None
                ) -> fg.NormalSubgroupoidSystem:
    """Remove relation pairs with their theta entries, then apply theta
    edits: a value sets an entry, None deletes it."""
    relation = nss.relation - frozenset(dropped_pairs)
    theta = {key: value for key, value in nss.theta.items() if key[0] in relation}
    for key, value in (edits or {}).items():
        if value is None:
            del theta[key]
        else:
            theta[key] = value
    return fg.NormalSubgroupoidSystem(nss.n_arrows, relation, theta)


def swap_inverse(g: fg.FiniteGroupoid, arrow: int) -> fg.FiniteGroupoid:
    """Corrupt the inverse table on one non-loop arrow."""
    inv = dict(g.inv)
    other = next(a for a in g.arrows if a != arrow and a != inv[arrow])
    inv[arrow] = other
    return fg.FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, inv, g.mul)


def corrupted_mul(g: fg.FiniteGroupoid, rng: random.Random, edits: int) -> fg.FiniteGroupoid:
    """Rewrite, delete or add on a non-composable pair ``edits`` products,
    each new value a random arrow, so the table stays in range."""
    mul = dict(g.mul)
    non_composable = [(a, b) for a in g.arrows for b in g.arrows if g.src[a] != g.tgt[b]]
    for _ in range(edits):
        kind = rng.choice(["rewrite", "delete", "non_composable"])
        if kind == "rewrite":
            mul[rng.choice(sorted(mul))] = rng.choice(g.arrows)
        elif kind == "delete":
            del mul[rng.choice(sorted(mul))]
        else:
            mul[rng.choice(non_composable)] = rng.choice(g.arrows)
    return fg.FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, mul)


class CountingDict(dict):
    """A dict that counts its ``[]`` lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class TestValidateGroupoid:
    def test_pair_groupoid_valid(self):
        report = fg.validate_groupoid(fg.pair_groupoid(3))
        assert report.valid
        assert report.to_json() == {"valid": True, "violations": []}

    def test_swapped_inverse_reports_axiom_v(self):
        g = fg.pair_groupoid(3)
        bad = swap_inverse(g, arrow=1)  # arrow (0,1)
        report = fg.validate_groupoid(bad)
        assert not report.valid
        axioms = {v.axiom for v in report.violations}
        assert any(a.startswith("v_inverse") for a in axioms)
        witnessed = [v.witness for v in report.violations if v.axiom == "v_inverse"]
        assert any(w[0] == 1 for w in witnessed)

    def test_cyclic_group_valid(self):
        assert fg.validate_groupoid(cyclic_group_groupoid(3)).valid

    def test_malformed_table_is_structural(self):
        g = fg.pair_groupoid(2)
        src = dict(g.src)
        src[0] = 99
        bad = fg.FiniteGroupoid(g.objects, g.arrows, src, g.tgt, g.unit, g.inv, g.mul)
        with pytest.raises(StructureError):
            fg.validate_groupoid(bad)

    @pytest.mark.parametrize("base", ["pair", "bundle"])
    def test_violation_order_matches_all_arrows_reference(self, base):
        g = fg.pair_groupoid(4) if base == "pair" else fg.group_bundle_groupoid(4, 2)
        rng = random.Random(16)
        invalid = 0
        for _ in range(50):
            bad = corrupted_mul(g, rng, edits=rng.randint(1, 4))
            expected = all_arrows_validate_groupoid(bad).to_json()
            assert fg.validate_groupoid(bad).to_json() == expected
            invalid += not expected["valid"]
        assert invalid >= 45

    def test_endpoint_lookups_follow_composable_triples(self):
        g = fg.pair_groupoid(8)
        src, tgt = CountingDict(g.src), CountingDict(g.tgt)
        counted = fg.FiniteGroupoid(g.objects, g.arrows, src, tgt, g.unit, g.inv, g.mul)
        assert fg.validate_groupoid(counted).valid
        # 110,352 when associativity scanned all 64 arrows for each of the
        # 512 composable pairs; the 4,096 composable triples need far fewer
        assert src.lookups + tgt.lookups <= 40_000

    def test_non_composable_query_raises(self):
        g = fg.pair_groupoid(2)
        with pytest.raises(NotComposable):
            g.compose(0, 3)  # (0,0) after (1,1)


def conjugation_oracle(g: fg.FiniteGroupoid, n: frozenset) -> bool:
    """Independent brute-force conjugation check via raw table lookups."""
    for loop in n:
        if g.src[loop] != g.tgt[loop]:
            continue
        for a in g.arrows:
            if g.src[a] != g.src[loop]:
                continue
            conj = g.mul[(g.mul[(a, loop)], g.inv[a])]
            if conj not in n:
                return False
    return True


class TestNormalSubgroupoid:
    def test_block_subgroupoid_is_normal(self):
        g = fg.pair_groupoid(4)
        n = fg.pair_block_subgroupoid(4, [[0, 1], [2, 3]])
        ok, witness = fg.is_normal_subgroupoid(g, n)
        assert ok and witness is None
        assert conjugation_oracle(g, n)

    def test_units_only_is_normal(self):
        g = fg.pair_groupoid(4)
        ok, _ = fg.is_normal_subgroupoid(g, g.unit_arrows())
        assert ok

    def test_trivial_subgroup_of_z2(self):
        g = cyclic_group_groupoid(2)
        ok, _ = fg.is_normal_subgroupoid(g, frozenset({0}))
        assert ok
        assert conjugation_oracle(g, frozenset({0}))

    def test_non_wide_subset_raises_naming_closure(self):
        g = fg.pair_groupoid(3)
        with pytest.raises(ValueError, match="not wide"):
            fg.is_normal_subgroupoid(g, frozenset({g.unit[0]}))

    def test_non_closed_subset_raises(self):
        g = fg.pair_groupoid(3)
        # units plus a single non-loop arrow: misses its inverse
        n = set(g.unit_arrows()) | {1}
        with pytest.raises(ValueError, match="inversion"):
            fg.is_normal_subgroupoid(g, frozenset(n))


class TestQuotientByNormalSubgroupoid:
    def test_pair_blocks_gives_pair_on_two_objects(self):
        g = fg.pair_groupoid(4)
        n = fg.pair_block_subgroupoid(4, [[0, 1], [2, 3]])
        q = fg.quotient_by_normal_subgroupoid(g, n)
        # oracle: brute-force class enumeration says 2 object classes, 4 arrow classes
        assert len(q.objects) == 2 and len(q.arrows) == 4
        assert fg.find_isomorphism(q, fg.pair_groupoid(2)) is not None

    def test_units_quotient_is_identity_up_to_relabeling(self):
        g = fg.pair_groupoid(3)
        q = fg.quotient_by_normal_subgroupoid(g, g.unit_arrows())
        assert fg.find_isomorphism(q, g) is not None

    def test_z4_mod_2z4_is_z2(self):
        g = cyclic_group_groupoid(4)
        q = fg.quotient_by_normal_subgroupoid(g, frozenset({0, 2}))
        # coset table oracle: {0,2} and {1,3}
        assert len(q.arrows) == 2
        assert fg.find_isomorphism(q, cyclic_group_groupoid(2)) is not None


def block_projection_morphism():
    g = fg.pair_groupoid(4)
    blocks = {0: 0, 1: 0, 2: 1, 3: 1}
    q = fg.pair_groupoid(2)
    arrow_map = {a * 4 + b: blocks[a] * 2 + blocks[b]
                 for a in range(4) for b in range(4)}
    return fg.FiniteMorphism(g, q, arrow_map, blocks)


class TestKernel:
    def test_block_projection_kernel(self):
        f = block_projection_morphism()
        k = kernel_of_morphism(f)
        assert k == fg.pair_block_subgroupoid(4, [[0, 1], [2, 3]])

    def test_identity_kernel_is_units(self):
        g = fg.pair_groupoid(3)
        f = fg.FiniteMorphism(g, g, {a: a for a in g.arrows}, {p: p for p in g.objects})
        assert kernel_of_morphism(f) == g.unit_arrows()

    def test_z4_to_z2_kernel(self):
        g4, g2 = cyclic_group_groupoid(4), cyclic_group_groupoid(2)
        f = fg.FiniteMorphism(g4, g2, {x: x % 2 for x in range(4)}, {0: 0})
        assert kernel_of_morphism(f) == frozenset({0, 2})

    @given(st.integers(2, 4), st.lists(st.integers(0, 1), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_kernel_always_normal_pair_projections(self, n, labels):
        # random two-block partitions of {0..n-1} induce projection morphisms
        labels = (labels + [0] * n)[:n]
        if len(set(labels)) == 1:
            labels[0] = 1 - labels[0] if n > 1 else labels[0]
        g = fg.pair_groupoid(n)
        m = len(set(labels))
        relabel = {v: i for i, v in enumerate(sorted(set(labels)))}
        blocks = {p: relabel[labels[p]] for p in range(n)}
        q = fg.pair_groupoid(m)
        arrow_map = {a * n + b: blocks[a] * m + blocks[b]
                     for a in range(n) for b in range(n)}
        f = fg.FiniteMorphism(g, q, arrow_map, blocks)
        k = kernel_of_morphism(f)  # raises if the kernel is not normal
        ok, _ = fg.is_normal_subgroupoid(g, k)
        assert ok

    @given(st.sampled_from([(4, 2), (6, 3), (6, 2), (8, 4)]))
    @settings(max_examples=10, deadline=None)
    def test_kernel_always_normal_group_reductions(self, sizes):
        n, m = sizes
        gn, gm = cyclic_group_groupoid(n), cyclic_group_groupoid(m)
        f = fg.FiniteMorphism(gn, gm, {x: x % m for x in range(n)}, {0: 0})
        k = kernel_of_morphism(f)
        assert k == frozenset(range(0, n, m))


class TestNSS:
    def test_basegp_discrete_nss_valid(self):
        g = fg.pair_groupoid(4)
        nss = fg.pair_block_nss(4, [[0, 1], [2, 3]])
        assert fg.validate_nss(g, nss).valid

    def test_vb_discrete_nss_valid(self):
        g = fg.group_bundle_groupoid(4, 2)
        nss = fg.group_bundle_nss(4, 2, [0, 2])
        assert fg.validate_nss(g, nss).valid

    def test_condition2_violation_witnessed(self):
        g = fg.pair_groupoid(4)
        nss = fg.pair_block_nss(4, [[0, 1], [2, 3]])
        theta = dict(nss.theta)
        # send the unit coset over 1 at (0,1) somewhere wrong
        key = ((0, 1), fg.coset_rep(g, nss.n_arrows, g.unit[1]))
        theta[key] = fg.coset_rep(g, nss.n_arrows, g.unit[1])
        mutated = fg.NormalSubgroupoidSystem(nss.n_arrows, nss.relation, theta)
        report = fg.validate_nss(g, mutated)
        assert not report.valid
        assert any(v.axiom == "nss_condition_2" for v in report.violations)

    # One small corruption per axiom.  "pair" is pair_groupoid(4) with
    # blocks {0, 1}, {2, 3}: arrow a*4 + b runs from b to a, and the cosets
    # over a are {a} x block, with representatives a*4 and a*4 + 2.  "bundle"
    # is Z/4 over 2 objects with W = {0, 2}: arrow m*4 + x is x over m, and
    # the representatives over m are m*4 and m*4 + 1.
    @pytest.mark.parametrize("axiom, base, dropped_pairs, edits, witnesses", [
        ("r_equivalence", "pair", [(1, 0)], {}, [("symmetric", 0, 1)]),
        ("theta_domain", "pair", [], {((0, 2), 8): 0}, [("pair_not_in_relation", 0, 2)]),
        ("theta_total", "pair", [], {((0, 1), 4): None}, [(0, 1, 4)]),
        ("theta_unit", "pair", [], {((1, 1), 4): 6}, [(1, 4)]),
        ("theta_moment", "pair", [], {((0, 1), 4): 4}, [(0, 1, 4, 4)]),
        ("theta_compat", "bundle", [], {((0, 1), 4): 1}, [(0, 1, 0, 0), (1, 0, 1, 4)]),
        ("nss_condition_1", "pair", [], {((0, 1), 4): 2},
         [(0, 1, 4, 2), (0, 1, 4, 3), (0, 1, 5, 2), (0, 1, 5, 3)]),
        # both cosets over 1 go to x = 1 over 0, so every product over 1
        # lands on x = 2, once per arrow of the coset of theta(a)
        ("nss_condition_3", "bundle", [], {((0, 1), 4): 1},
         [(0, 1, a, b, 1, 0) for a in range(4, 8) for b in range(4, 8) for _ in range(2)]),
    ])
    def test_axiom_violation_witnessed(self, axiom, base, dropped_pairs, edits, witnesses):
        if base == "pair":
            g, nss = fg.pair_groupoid(4), fg.pair_block_nss(4, [[0, 1], [2, 3]])
        else:
            g, nss = fg.group_bundle_groupoid(4, 2), fg.group_bundle_nss(4, 2, [0, 2])
        report = fg.validate_nss(g, mutated_nss(nss, dropped_pairs, edits))
        assert [v.witness for v in report.violations if v.axiom == axiom] == witnesses

    def test_representatives_found_once_per_arrow(self, monkeypatch):
        g = fg.pair_groupoid(6)
        nss = fg.pair_block_nss(6, [[0, 1, 2], [3, 4, 5]])
        reps = count_calls(monkeypatch, fg, "coset_rep")
        cosets = count_calls(monkeypatch, fg, "coset")
        assert fg.validate_nss(g, nss).valid
        assert len(reps) <= len(g.arrows)
        # conditions 1 and 3 still walk cosets, condition 3 that of theta(a)
        # once per a; the representatives add one walk per arrow
        assert len(cosets) <= 2232

    def test_theta_value_outside_g_raises(self):
        g, nss = fg.pair_groupoid(4), fg.pair_block_nss(4, [[0, 1], [2, 3]])
        with pytest.raises(ThetaIllDefined, match=r"theta\(\(0, 1\), 4\) = 99"):
            fg.validate_nss(g, mutated_nss(nss, edits={((0, 1), 4): 99}))

    def test_make_nss_theta_value_outside_g_raises(self):
        g, nss = fg.pair_groupoid(4), fg.pair_block_nss(4, [[0, 1], [2, 3]])
        entries = dict(nss.theta)
        entries[((0, 1), 4)] = 99
        with pytest.raises(ThetaIllDefined, match=r"theta\(\(0, 1\), 4\) = 99"):
            fg.make_nss(g, nss.n_arrows, nss.relation, entries)

    def test_theta_conflicting_table_raises(self):
        g = fg.pair_groupoid(4)
        n = fg.pair_block_subgroupoid(4, [[0, 1], [2, 3]])
        rel = {(p, q) for p in range(2) for q in range(2)} | {(p, p) for p in range(4)}
        # two representatives of one coset sent to different cosets
        entries = {((0, 1), 1 * 4 + 0): 0, ((0, 1), 1 * 4 + 1): 2 * 4 + 2}
        with pytest.raises(ThetaIllDefined):
            fg.make_nss(g, n, rel, entries)


class TestQuotientByNSS:
    def test_basegp_agrees_with_normal_quotient(self):
        g = fg.pair_groupoid(4)
        n = fg.pair_block_subgroupoid(4, [[0, 1], [2, 3]])
        q_n = fg.quotient_by_normal_subgroupoid(g, n)
        q_s, proj = fg.quotient_by_nss(g, fg.pair_block_nss(4, [[0, 1], [2, 3]]))
        assert fg.find_isomorphism(q_s, fg.pair_groupoid(2)) is not None
        assert fg.find_isomorphism(q_n, q_s) is not None
        assert fg.validate_morphism(proj).valid

    def test_vb_quotients_differ(self):
        g = fg.group_bundle_groupoid(4, 2)
        n = frozenset(m * 4 + x for m in range(2) for x in (0, 2))
        q_n = fg.quotient_by_normal_subgroupoid(g, n)
        q_s, proj = fg.quotient_by_nss(g, fg.group_bundle_nss(4, 2, [0, 2]))
        # N-quotient keeps both objects; the system quotient merges them
        assert len(q_n.objects) == 2 and len(q_s.objects) == 1
        assert fg.find_isomorphism(q_n, fg.group_bundle_groupoid(2, 2)) is not None
        assert fg.find_isomorphism(q_s, cyclic_group_groupoid(2)) is not None
        assert fg.find_isomorphism(q_n, q_s) is None
        assert fg.validate_morphism(proj).valid

    def test_trivial_nss_returns_g(self):
        g = fg.pair_groupoid(3)
        q, proj = fg.quotient_by_nss(g, trivial_nss(g))
        assert fg.find_isomorphism(q, g) is not None
        assert fg.validate_morphism(proj).valid


class TestJsonRoundTrip:
    def test_round_trip(self):
        g = fg.pair_groupoid(3)
        data = fg.groupoid_to_json(g)
        assert set(data) == {"objects", "arrows", "src", "tgt", "unit", "inv", "mul"}
        g2 = fg.groupoid_from_json(data)
        assert fg.validate_groupoid(g2).valid
        assert g2.mul == dict(g.mul)

    def test_bad_file_raises_structure_error(self):
        data = fg.groupoid_to_json(fg.pair_groupoid(2))
        data["src"] = data["src"][:-1]
        with pytest.raises(StructureError):
            fg.groupoid_from_json(data)


def small_group(name: str):
    """Order and product of a small group on 0..order-1, identity 0."""
    if name == "S3":
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        return len(perms), lambda x, y: index[tuple(perms[x][perms[y][i]] for i in range(3))]
    if name == "Z2xZ2":
        return 4, lambda x, y: x ^ y
    order = int(name[1:])
    return order, lambda x, y: (x + y) % order


def brandt_union(components, seed: int) -> fg.FiniteGroupoid:
    """Disjoint union of (pair groupoid on k objects) x H over ``components``
    = [(k, H), ...], with object and arrow ids shuffled by a seeded permutation."""
    objects, arrow = [], {}  # arrow[(q, p, x)]: the arrow p -> q carrying x in H
    src, tgt, unit, inv, mul = {}, {}, {}, {}, {}
    for k, name in components:
        order, prod = small_group(name)
        block = range(len(objects), len(objects) + k)
        objects.extend(block)
        for q, p, x in itertools.product(block, block, range(order)):
            arrow[(q, p, x)] = len(arrow)
        for q, p, x in itertools.product(block, block, range(order)):
            a = arrow[(q, p, x)]
            src[a], tgt[a] = p, q
            inv[a] = arrow[(p, q, next(y for y in range(order) if prod(x, y) == 0))]
            for r, y in itertools.product(block, range(order)):
                mul[(arrow[(r, q, y)], a)] = arrow[(r, p, prod(y, x))]
        for p in block:
            unit[p] = arrow[(p, p, 0)]
    rng = random.Random(seed)
    om, am = list(range(len(objects))), list(range(len(arrow)))
    rng.shuffle(om)
    rng.shuffle(am)
    return fg.FiniteGroupoid(
        tuple(sorted(om)), tuple(sorted(am)),
        {am[a]: om[p] for a, p in src.items()}, {am[a]: om[p] for a, p in tgt.items()},
        {om[p]: am[a] for p, a in unit.items()}, {am[a]: am[b] for a, b in inv.items()},
        {(am[a], am[b]): am[c] for (a, b), c in mul.items()})


def assert_isomorphism(g1: fg.FiniteGroupoid, g2: fg.FiniteGroupoid, found) -> None:
    """Oracle: bijective on objects and arrows, preserving src, tgt, unit,
    inv and every product, checked on the raw tables."""
    assert found is not None
    om, am = found
    assert sorted(om) == sorted(g1.objects) and sorted(om.values()) == sorted(g2.objects)
    assert sorted(am) == sorted(g1.arrows) and sorted(am.values()) == sorted(g2.arrows)
    for a in g1.arrows:
        assert g2.src[am[a]] == om[g1.src[a]] and g2.tgt[am[a]] == om[g1.tgt[a]]
        assert g2.inv[am[a]] == am[g1.inv[a]]
    for p in g1.objects:
        assert g2.unit[om[p]] == am[g1.unit[p]]
    assert len(g1.mul) == len(g2.mul)
    for (a, b), c in g1.mul.items():
        assert g2.mul[(am[a], am[b])] == am[c]


class TestBrandtIsomorphism:
    @pytest.mark.parametrize("components", [
        [(3, "S3")],
        [(1, "S3"), (2, "Z2"), (2, "Z2")],
        [(2, "Z4"), (1, "Z2xZ2"), (3, "Z1")],
        [(4, "Z2xZ2"), (1, "Z4"), (2, "S3")],
        [(1, "Z1"), (1, "Z2"), (1, "Z4"), (1, "Z2xZ2"), (1, "S3")],
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_unions_are_isomorphic(self, components, seed):
        g1 = brandt_union(components, seed)
        g2 = brandt_union(components[::-1], seed + 100)
        assert fg.validate_groupoid(g1).valid and fg.validate_groupoid(g2).valid
        found = fg.find_isomorphism(g1, g2)
        assert_isomorphism(g1, g2, found)
        assert fg.find_isomorphism(g1, g2) == found  # deterministic

    @pytest.mark.parametrize("left, right", [
        ([(1, "Z4")] * 7, [(1, "Z2xZ2")] * 7),
        ([(1, "S3")], [(1, "Z6")]),
        # equal object and arrow counts, different orbit sizes
        ([(2, "Z1"), (1, "Z2"), (1, "Z2")], [(1, "Z3"), (1, "Z3"), (1, "Z1"), (1, "Z1")]),
    ])
    def test_non_isomorphic_answers_none_quickly(self, left, right):
        g1, g2 = brandt_union(left, 3), brandt_union(right, 4)
        assert (len(g1.objects), len(g1.arrows)) == (len(g2.objects), len(g2.arrows))
        start = time.perf_counter()
        assert fg.find_isomorphism(g1, g2) is None
        assert fg.find_isomorphism(g2, g1) is None
        assert time.perf_counter() - start < 1.0


def test_build_quotient_rejects_ill_defined_src():
    g = fg.pair_groupoid(2)
    # arrows 0 = (0,0) and 1 = (0,1) share a class but start at different objects
    with pytest.raises(FolioidError, match="src/tgt"):
        fg._build_quotient(g, {0: 0, 1: 1}, {0: 0, 1: 0, 2: 1, 3: 2})

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and never loosened at run
time; every expected value was computed by the stated independent oracle
before being frozen into the assertions.
"""

import re

import numpy as np

from folioid import cli
from folioid import dirac as dr
from folioid import fingroupoid as fin
from folioid import leafspace as ls
from folioid import multdist as md
from folioid.geomcore import flow
from folioid.scenarios import (gauge_groupoid_maps, group_action_pair_scenario,
                               pair_scenario, presymplectic_pair_dirac_scenario,
                               vb_scenario)
from helpers import cyclic_group_groupoid, euclidean, linear_field


def announce(number: int, passed: bool, text: str):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}")
    assert passed


def test_criterion_1_finite_quotient_duality():
    # pair groupoid on 4 objects: the two constructions agree exactly
    g = fin.pair_groupoid(4)
    n = fin.pair_block_subgroupoid(4, [[0, 1], [2, 3]])
    q_normal = fin.quotient_by_normal_subgroupoid(g, n)
    q_system, proj = fin.quotient_by_nss(g, fin.pair_block_nss(4, [[0, 1], [2, 3]]))
    agree = fin.find_isomorphism(q_normal, q_system) is not None
    assert fin.validate_morphism(proj).valid

    # Z/4 bundle over two objects: they differ (the system quotient merges
    # the base), and agree again once the base relation is trivial
    gb = fin.group_bundle_groupoid(4, 2)
    nb = frozenset(m * 4 + x for m in range(2) for x in (0, 2))
    qb_normal = fin.quotient_by_normal_subgroupoid(gb, nb)
    qb_system, _ = fin.quotient_by_nss(gb, fin.group_bundle_nss(4, 2, [0, 2]))
    differ = fin.find_isomorphism(qb_normal, qb_system) is None
    assert fin.find_isomorphism(qb_system, cyclic_group_groupoid(2)) is not None
    assert fin.find_isomorphism(qb_normal, fin.group_bundle_groupoid(2, 2)) is not None

    diag_rel = {(p, p) for p in gb.objects}
    diag_theta = {((p, p), a): a for p in gb.objects for a in gb.arrows
                  if gb.tgt[a] == p}
    trivial_base = fin.make_nss(gb, nb, diag_rel, diag_theta)
    qb_trivial, _ = fin.quotient_by_nss(gb, trivial_base)
    agree_trivial = fin.find_isomorphism(qb_normal, qb_trivial) is not None

    announce(1, agree and differ and agree_trivial,
             "finite quotient duality (agree on the pair instance, differ on "
             "the bundle instance, agree again with a trivial base relation)")


def test_criterion_2_basegp_end_to_end():
    s = pair_scenario(m_dim=2, d_basis=[[1.0, 0.0]])
    rng = np.random.default_rng(2024)
    ok = True

    report = md.check_multiplicative(s.groupoid, s.dist, 40, rng)
    ok &= report.passed
    report = md.check_rank_structure(s.groupoid, s.dist, 40, rng)
    ok &= report.passed
    ranks = report.details["ranks"]
    ok &= ranks["S"] == 2 and ranks["S_cap_TP"] == 1 and ranks["S_t"] == 1
    points = [s.groupoid.sample_arrow(rng) for _ in range(40)]
    ok &= md.check_involutive(s.dist, points).passed
    ok &= ls.check_condition6(s.groupoid, s.dist, s.chart, 40, rng).passed
    ok &= ls.validate_quotient_groupoid(s.groupoid, s.dist, s.chart, 15, rng).passed

    # label algebra equals the pair groupoid on the line: >= 200 seeded samples
    worst = 0.0
    for _ in range(200):
        g, h = s.groupoid.composable_pair(rng)
        got = ls.quotient_mul(s.groupoid, s.dist, s.chart,
                              ls.quotient_arrow(s.chart, g),
                              ls.quotient_arrow(s.chart, h)).label
        want = np.array([s.chart.lambda_g(g)[0], s.chart.lambda_g(h)[1]])
        worst = max(worst, float(np.abs(got - want).max()))
    ok &= worst <= 1e-6

    announce(2, ok, f"base-distribution scenario end to end "
                    f"(ranks 2/1/1, label residual {worst:.2e} <= 1e-6 at 200 samples)")


def test_criterion_3_vb_end_to_end():
    s = vb_scenario(k=2, w_basis=[[1.0, 0.0]], m_dim=2, f_basis=[[1.0, 0.0]])
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        g, h = s.groupoid.composable_pair(rng)
        got = ls.quotient_mul(s.groupoid, s.dist, s.chart,
                              ls.quotient_arrow(s.chart, g),
                              ls.quotient_arrow(s.chart, h)).label
        # additive oracle: fiber classes add, base leaf label is shared
        lg_g, lg_h = s.chart.lambda_g(g), s.chart.lambda_g(h)
        want = np.array([lg_g[0] + lg_h[0], lg_g[1]])
        worst = max(worst, float(np.abs(got - want).max()))
    announce(3, worst <= 1e-6,
             f"vector-bundle scenario: quotient product adds fiber classes "
             f"over the shared leaf (residual {worst:.2e} <= 1e-6)")


def test_criterion_4_group_action_scenario():
    s = group_action_pair_scenario(m_dim=2, direction=[1.0, 0.0])
    rng = np.random.default_rng(4)

    # both sides of the compatibility identity are singletons: the t-fiber
    # part of the orbit distribution is zero, so probes cannot move at all
    from folioid.params import DEFAULT_PARAMS
    g = s.groupoid.sample_arrow(rng)
    moved = ls.random_t_fiber_point(s.groupoid, s.dist, g, rng, DEFAULT_PARAMS)
    singleton = bool(np.array_equal(moved, g))
    report = ls.check_condition6(s.groupoid, s.dist, s.chart, 40, rng)
    cond6 = report.passed and report.max_residual <= 1e-8

    # quotient: base is the translation quotient of the plane (one label),
    # arrows compose as the pair groupoid of the line with an offset part
    quotient_ok = s.chart.lambda_p.codomain.dim == 1
    quot = gauge_groupoid_maps(1)
    worst = 0.0
    for _ in range(60):
        g, h = s.groupoid.composable_pair(rng)
        got = ls.quotient_mul(s.groupoid, s.dist, s.chart,
                              ls.quotient_arrow(s.chart, g),
                              ls.quotient_arrow(s.chart, h)).label
        want = quot.compose(s.chart.lambda_g(g), s.chart.lambda_g(h))
        worst = max(worst, float(np.abs(got - want).max()))
    quotient_ok &= worst <= 1e-8
    quotient_ok &= ls.validate_quotient_groupoid(s.groupoid, s.dist, s.chart,
                                                 10, rng).passed

    announce(4, singleton and cond6 and quotient_ok,
             f"translation-action scenario: singleton compatibility identity "
             f"(residual {report.max_residual:.2e} <= 1e-8), quotient over the "
             f"line with pair-times-offset label algebra")


def test_criterion_5_constant_rank_suite():
    ok = True
    worst_angle = 0.0
    for build in (pair_scenario, vb_scenario):
        s = build()
        report = md.check_rank_structure(s.groupoid, s.dist, 200,
                                         np.random.default_rng(55))
        ranks = report.details["ranks"]
        ok &= report.details["splitting_holds"]
        ok &= ranks["S_cap_TP"] + ranks["S_cap_AG"] == ranks["S"]
        ok &= report.max_residual <= 1e-5  # principal angles of TL_g images
        worst_angle = max(worst_angle, report.max_residual)
    announce(5, ok, f"constant-rank suite at 200 samples per scenario "
                    f"(splitting exact, translation angles {worst_angle:.2e} <= 1e-5)")


def test_criterion_6_lifted_structure_identities():
    s = pair_scenario()
    report = ls.check_lifted_structures(s.groupoid, s.dist, s.chart, s.quotient,
                                        50, np.random.default_rng(66))
    ok = (report.passed
          and report.details["tangent_max_residual"] <= 1e-6
          and report.details["cotangent_max_residual"] <= 1e-6)
    announce(6, ok, f"tangent/cotangent projection identities at 50 composable "
                    f"samples (residual {report.max_residual:.2e} <= 1e-6)")


def test_criterion_7_dirac_pipeline():
    s = presymplectic_pair_dirac_scenario()
    rng = np.random.default_rng(77)
    points = [s.groupoid.sample_arrow(rng) for _ in range(40)]
    ok = dr.check_integrable(s.dirac, points).passed

    # the position-weighted variant must fail with a witness
    weighted = dr.from_two_form(
        euclidean(3),
        lambda x: np.array([[0.0, x[2], 0.0], [-x[2], 0.0, 0.0], [0.0, 0.0, 0.0]]))
    bad = dr.check_integrable(weighted,
                              [rng.uniform(-2, 2, 3) for _ in range(20)])
    ok &= (not bad.passed) and bad.witness is not None

    labels = s.chart.lambda_g
    report = dr.pushforward_dirac(s.groupoid, s.dirac, labels, s.quotient_section, 30, rng)
    ok &= report.passed
    pi_fn = dr.pushforward_bivector(s.dirac, labels, s.quotient_section)
    pushed = dr.from_poisson(labels.codomain, pi_fn, name="pushforward")
    pi = pi_fn(np.zeros(4))
    # hand oracle (computed before the build): the projected structure is the
    # graph of the block bivector with entries -1 (target slot), +1 (source
    # slot); the criterion pins |pi(dx, dy)| = 1, the sign is recorded
    ok &= abs(abs(pi[0, 1]) - 1.0) <= 1e-6
    ok &= abs(abs(pi[2, 3]) - 1.0) <= 1e-6
    ok &= np.abs(pi - np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)).max() <= 1e-6
    ok &= report.details["jacobi_residual"] <= 1e-6

    forward = dr.is_forward_dirac(labels, s.dirac, pushed, points[:20])
    ok &= forward.passed

    # trivial characteristic space downstairs
    ok &= dr.characteristic_spaces(pushed, np.zeros(4)).shape[1] == 0

    announce(7, ok, f"Dirac pipeline: integrability verdicts, pushforward with "
                    f"|pi(dx,dy)| = 1 (signs -1/+1 recorded), Jacobi residual "
                    f"{report.details['jacobi_residual']:.2e}, forward map")


def test_criterion_8_numerical_hygiene(tmp_path):
    rng = np.random.default_rng(88)
    ok = True

    # every analytic Jacobian in every builtin scenario matches differences
    worst_rel = 0.0
    for build in (pair_scenario, vb_scenario, group_action_pair_scenario,
                  presymplectic_pair_dirac_scenario):
        s = build()
        maps = [s.groupoid.src, s.groupoid.tgt, s.groupoid.unit, s.groupoid.inv,
                s.groupoid.mul, s.chart.lambda_g, s.chart.lambda_p,
                s.quotient_section,
                s.quotient.src, s.quotient.tgt, s.quotient.unit, s.quotient.inv,
                s.quotient.mul]
        for smooth_map in maps:
            assert smooth_map.jac is not None
            for _ in range(100):
                x = rng.uniform(-2, 2, smooth_map.domain.dim)
                analytic = smooth_map.jacobian(x)
                diff = smooth_map.jacobian_fd(x)
                scale = max(1.0, float(np.abs(analytic).max()))
                worst_rel = max(worst_rel, float(np.abs(analytic - diff).max()) / scale)
    ok &= worst_rel <= 1e-5

    # RK4 semigroup property, with times off the common step grid so the
    # two sides genuinely integrate on different meshes
    rot = linear_field(euclidean(2), [[0.0, -1.0], [1.0, 0.0]])
    worst_semi = 0.0
    for s_time, t_time in [(0.2137, 0.4441), (1.0 / 3.0, 0.511), (0.777, 1.2923)]:
        whole = flow(rot, np.array([1.0, 0.2]), s_time + t_time)
        parts = flow(rot, flow(rot, np.array([1.0, 0.2]), s_time), t_time)
        worst_semi = max(worst_semi, float(np.abs(whole - parts).max()))
    ok &= worst_semi <= 1e-7

    # seeded reports of every bundled config are byte-stable across two runs
    # in one process, so no memo carries state from one run into the next
    from importlib import resources
    configs = sorted(p for p in (resources.files("folioid") / "configs").iterdir()
                     if p.name.endswith(".json"))
    assert len(configs) == 6
    scrub = lambda text: re.sub(r'"wall_time_s": [-+0-9.eE]+,?\n', "", text)
    for cfg in configs:
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["run", str(cfg), "--out", str(out1), "--samples", "8"]) == 0
        assert cli.main(["run", str(cfg), "--out", str(out2), "--samples", "8"]) == 0
        ok &= scrub(out1.read_text()) == scrub(out2.read_text())

    announce(8, ok, f"numerical hygiene: Jacobian agreement {worst_rel:.2e} <= 1e-5 "
                    f"at 100 points per map, semigroup residual {worst_semi:.2e} "
                    f"<= 1e-7, byte-stable seeded reports of "
                    f"{len(configs)} bundled configs")

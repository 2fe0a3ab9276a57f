import dataclasses

import numpy as np
import pytest

from folioid import linalg
from folioid import liegroupoid as lg
from folioid import multdist as md
from folioid.errors import NotComposable, NumericalBlowup, TangentNotComposable
from folioid.geomcore import SmoothMap
from folioid.scenarios import gauge_groupoid_maps, pair_groupoid_maps, vb_groupoid_maps
from helpers import (algebroid_anchor, cotangent_source, cotangent_target, cubic_pair_groupoid,
                     per_point_validate_smooth_groupoid)

RNG = np.random.default_rng(123)


@pytest.fixture(scope="module")
def pair2():
    return pair_groupoid_maps(2)


@pytest.fixture(scope="module")
def vb22():
    return vb_groupoid_maps(2, 2)


class TestValidate:
    def test_pair_groupoid_exact(self, pair2):
        report = lg.validate_smooth_groupoid(pair2, 40, np.random.default_rng(0))
        assert report.passed and report.max_residual <= 1e-9

    def test_vb_groupoid_exact(self, vb22):
        report = lg.validate_smooth_groupoid(vb22, 40, np.random.default_rng(0))
        assert report.passed and report.max_residual <= 1e-9

    def test_perturbed_multiplication_witnessed(self, pair2):
        broken = lg.SmoothGroupoid(
            pair2.space, pair2.base, pair2.src, pair2.tgt, pair2.unit, pair2.inv,
            SmoothMap(pair2.mul.domain, pair2.mul.codomain,
                      lambda z: pair2.mul(z) + np.array([0.1, 0.0, 0.0, 0.0])),
            sample_arrow=pair2.sample_arrow, sample_object=pair2.sample_object,
            sample_arrow_to=pair2.sample_arrow_to)
        report = lg.validate_smooth_groupoid(broken, 10, np.random.default_rng(0))
        assert not report.passed
        assert report.details["residuals"]["iv_unit_neutral"] >= 0.05
        kind = report.witness["kind"]
        assert report.details["residuals"][kind] == report.max_residual
        assert "at" in report.witness


class TestSamplers:
    """The builtin samplers' draws, rebuilt from an identically seeded generator."""

    @pytest.mark.parametrize("build,place", [
        (lambda: pair_groupoid_maps(2), lambda p, rest: np.concatenate([p, rest])),
        (lambda: vb_groupoid_maps(2, 2), lambda p, rest: np.concatenate([rest, p])),
        (lambda: gauge_groupoid_maps(1), lambda p, rest: np.concatenate([p, rest])),
    ], ids=["pair", "vb", "gauge"])
    def test_draws_and_their_order(self, build, place):
        gd = build()
        n, m = gd.space.dim, gd.base.dim
        p = np.array([0.25, -1.5])[:m]
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(2):
            assert np.array_equal(gd.sample_arrow(rng), ref.uniform(-2, 2, n))
            assert np.array_equal(gd.sample_object(rng), ref.uniform(-2, 2, m))
            g = gd.sample_arrow_to(rng, p)
            assert np.array_equal(g, place(p, ref.uniform(-2, 2, n - m)))
            assert np.array_equal(gd.tgt(g), p)


class TestTangentMul:
    def test_pair_formula(self, pair2):
        # (m,n; u,v) * (n,p; v,w) = (m,p; u,w)
        m, n, p = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
        u, v, w = np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])
        g, h = np.concatenate([m, n]), np.concatenate([n, p])
        out = lg.tangent_mul(pair2, g, np.concatenate([u, v]), h, np.concatenate([v, w]))
        assert np.allclose(pair2.compose(g, h), np.concatenate([m, p]))
        assert np.allclose(out, np.concatenate([u, w]))

    def test_zero_vectors(self, pair2):
        g, h = pair2.composable_pair(RNG)
        assert np.allclose(lg.tangent_mul(pair2, g, np.zeros(4), h, np.zeros(4)), 0)

    def test_vb_fiberwise_addition(self, vb22):
        # (x, v, v_m) * (y, w, v_m) = (x+y, v+w, v_m) in fiber/base tangent split
        x, y, m = np.array([1.0, 0.0]), np.array([0.5, 2.0]), np.array([3.0, 4.0])
        v, w, vm = np.array([0.1, 0.2]), np.array([0.3, -0.1]), np.array([0.7, 0.8])
        g, h = np.concatenate([x, m]), np.concatenate([y, m])
        out = lg.tangent_mul(vb22, g, np.concatenate([v, vm]), h, np.concatenate([w, vm]))
        assert np.allclose(vb22.compose(g, h), np.concatenate([x + y, m]))
        assert np.allclose(out, np.concatenate([v + w, vm]))

    def test_base_and_tangent_composability_errors_distinct(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h_bad = np.array([9.0, 9.0, 0.0, 0.0])
        with pytest.raises(NotComposable):
            lg.tangent_mul(pair2, g, np.zeros(4), h_bad, np.zeros(4))
        h = np.array([3.0, 4.0, 0.0, 0.0])
        with pytest.raises(TangentNotComposable):
            lg.tangent_mul(pair2, g, np.array([0.0, 0.0, 1.0, 0.0]), h, np.zeros(4))

    def test_associativity_and_units_on_tangent_triples(self, pair2):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g, h, l = pair2.composable_triple(rng)
            constraint = np.zeros((4, 12))
            constraint[:2, :4] = pair2.src.jacobian(g)
            constraint[:2, 4:8] = -pair2.tgt.jacobian(h)
            constraint[2:, 4:8] = pair2.src.jacobian(h)
            constraint[2:, 8:] = -pair2.tgt.jacobian(l)
            triple = linalg.null_basis(constraint) @ rng.standard_normal(8)
            v_g, v_h, v_l = triple[:4], triple[4:8], triple[8:]
            gh, hl = pair2.compose(g, h), pair2.compose(h, l)
            left = lg.tangent_mul(pair2, gh, lg.tangent_mul(pair2, g, v_g, h, v_h), l, v_l)
            right = lg.tangent_mul(pair2, g, v_g, hl, lg.tangent_mul(pair2, h, v_h, l, v_l))
            assert np.abs(left - right).max() <= 1e-6

            # unit of the prolongation over a base tangent: Tu(v_p) at the unit over p
            p, vp = pair2.src(g), pair2.src.jacobian(g) @ v_g
            prod = lg.tangent_mul(pair2, g, v_g, pair2.unit(p), pair2.unit.jacobian(p) @ vp)
            assert np.abs(prod - v_g).max() <= 1e-6


class TestTranslations:
    def test_pair_left_translation(self, pair2):
        # TL_{(m,n)} sends (0, w) at (n, p) to (0, w) at (m, p), column by column
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([3.0, 4.0, 5.0, 6.0])
        w = np.array([[0.0, 0.0], [0.0, 0.0], [0.7, 1.5], [-0.3, 0.2]])
        out = lg.translate(pair2, g, h, w, "left")
        assert np.allclose(pair2.compose(g, h), [1.0, 2.0, 5.0, 6.0])
        assert np.allclose(out, w)
        assert np.allclose(lg.translate(pair2, g, h, w[:, 0], "left"), w[:, 0])

    def test_unit_translation_is_identity(self, pair2):
        h = np.array([3.0, 4.0, 5.0, 6.0])
        e = pair2.unit(pair2.tgt(h))
        w = np.array([[0.0, 0.0], [0.0, 0.0], [0.2, -1.0], [0.9, 0.4]])
        assert np.allclose(pair2.compose(e, h), h)
        assert np.allclose(lg.translate(pair2, e, h, w, "left"), w)
        # on the other side: TR_e is the identity on ker Ts at h
        v = w[[2, 3, 0, 1]]
        assert np.allclose(lg.translate(pair2, pair2.unit(pair2.src(h)), h, v, "right"), v)

    def test_vb_left_translation(self, vb22):
        # TL_{(x,m)} adds the fiber offset and keeps fiber tangents
        g = np.array([1.0, 0.5, 3.0, 4.0])
        h = np.array([0.2, 0.7, 3.0, 4.0])
        w = np.array([[0.4, 0.0], [-0.1, 2.0], [0.0, 0.0], [0.0, 0.0]])
        out = lg.translate(vb22, g, h, w, "left")
        assert np.allclose(vb22.compose(g, h), [1.2, 1.2, 3.0, 4.0])
        assert np.allclose(out, w)

    def test_rejects_non_fiber_tangent(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([3.0, 4.0, 5.0, 6.0])
        with pytest.raises(TangentNotComposable):
            lg.translate(pair2, g, h, np.array([1.0, 0.0, 0.0, 0.0]), "left")
        # one bad column among good ones rejects the whole call
        with pytest.raises(TangentNotComposable):
            lg.translate(pair2, g, h, np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
                         "left")
        # right translation by h's source unit wants ker Ts: the source slot moves it
        with pytest.raises(TangentNotComposable):
            lg.translate(pair2, pair2.unit(pair2.src(h)), h, np.array([0.0, 0.0, 1.0, 0.0]),
                         "right")
        with pytest.raises(ValueError):
            lg.translate(pair2, g, h, np.zeros(4), "up")

    def test_inverse_translation_roundtrip(self, pair2):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g, h = pair2.composable_pair(rng)
            kernel = linalg.null_basis(pair2.tgt.jacobian(h))
            u = kernel @ rng.standard_normal((kernel.shape[1], 3))
            once = lg.translate(pair2, g, h, u, "left")
            back = lg.translate(pair2, pair2.inv(g), pair2.compose(g, h), once, "left")
            assert np.abs(back - u).max() <= 1e-6
            assert np.abs(pair2.compose(pair2.inv(g), pair2.compose(g, h)) - h).max() <= 1e-9

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("build", [
        lambda: pair_groupoid_maps(2), lambda: vb_groupoid_maps(2, 2),
        lambda: gauge_groupoid_maps(2)], ids=["pair", "vb", "gauge"])
    def test_matches_tangent_mul_per_column(self, build, side):
        # the Jacobian block against the product with a zero tangent, one
        # column at a time, at a non-unit h and three columns
        gd = build()
        rng = np.random.default_rng(31)
        first, second = gd.composable_pair(rng)
        g, h = (first, second) if side == "left" else (second, first)
        proj = gd.tgt if side == "left" else gd.src
        kernel = linalg.null_basis(proj.jacobian(h))
        u = kernel @ rng.standard_normal((kernel.shape[1], 3))
        zero = np.zeros(gd.space.dim)
        factors = ((lambda col: (g, zero, h, col)) if side == "left"
                   else (lambda col: (h, col, g, zero)))
        want = np.column_stack([lg.tangent_mul(gd, *factors(col)) for col in u.T])
        got = lg.translate(gd, g, h, u, side)
        assert np.linalg.norm(h - gd.unit(gd.tgt(h))) > 0.1
        assert got.shape == (gd.space.dim, 3)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestAlgebroid:
    def test_pair_fiber_and_anchor_on_line(self):
        pair1 = pair_groupoid_maps(1)
        p = np.array([0.5])
        fiber = lg.algebroid_fiber(pair1, p)
        # ker Tt at a unit of the pair groupoid is the source-slot direction
        assert fiber.shape == (2, 1)
        assert abs(fiber[0, 0]) <= 1e-12
        anchor = algebroid_anchor(pair1, p, fiber)
        assert np.allclose(np.abs(anchor), [[1.0]])

    def test_vb_anchor_vanishes(self, vb22):
        p = np.array([1.0, 2.0])
        fiber = lg.algebroid_fiber(vb22, p)
        anchor = algebroid_anchor(vb22, p, fiber)
        assert fiber.shape[1] == 2
        assert np.abs(anchor).max() <= 1e-12

    @pytest.mark.parametrize("gd", [vb_groupoid_maps(0, 2), vb_groupoid_maps(0, 0)],
                             ids=["unit_groupoid", "point"])
    def test_etale_groupoid_has_an_empty_fiber(self, gd):
        # the target is a local diffeomorphism: ker Tt = 0
        fiber = lg.algebroid_fiber(gd, np.zeros(gd.base.dim))
        assert fiber.shape == (gd.space.dim, 0)

    def test_anchor_is_linear_in_the_fiber(self, pair2):
        p = np.array([0.0, 1.0])
        fiber = lg.algebroid_fiber(pair2, p)
        anchor = algebroid_anchor(pair2, p, fiber)
        assert np.allclose(anchor @ np.zeros(fiber.shape[1]), 0.0)


class TestCotangent:
    def test_zero_covector(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(cotangent_source(pair2, g, np.zeros(4)), 0)
        assert np.allclose(cotangent_target(pair2, g, np.zeros(4)), 0)

    def test_pair_line_source_pairs_second_slot(self):
        pair1 = pair_groupoid_maps(1)
        g = np.array([1.0, 3.0])
        alpha = np.array([0.7, -0.4])  # (a, b)
        fiber = lg.algebroid_fiber(pair1, pair1.src(g))
        value = cotangent_source(pair1, g, alpha, fiber)
        w = fiber[1, 0]  # the fiber vector is (0, w)
        assert abs(value[0] - (-0.4) * w) <= 1e-12

    def test_unit_arrow_base_annihilating_covector(self, pair2):
        p = np.array([0.3, -0.8])
        e = pair2.unit(p)
        # alpha annihilates T(units) = {(v, v)}: take (c, -c)
        alpha = np.array([0.5, -1.0, -0.5, 1.0])
        fiber = lg.algebroid_fiber(pair2, p)
        s_val = cotangent_source(pair2, e, alpha, fiber)
        t_val = cotangent_target(pair2, e, alpha, fiber)
        assert np.abs(s_val - t_val).max() <= 1e-9

    def test_pair_cotangent_mul_closed_form(self, pair2):
        # (alpha, beta) * (-beta, gamma) = (alpha, gamma) in slot covectors
        rng = np.random.default_rng(2)
        m, n, p = rng.uniform(-1, 1, (3, 2))
        alpha, beta, gamma = rng.uniform(-1, 1, (3, 2))
        g, h = np.concatenate([m, n]), np.concatenate([n, p])
        factors = (g, np.concatenate([alpha, beta]), h, np.concatenate([-beta, gamma]))
        out = lg.cotangent_mul(pair2, *factors)
        assert np.abs(out - np.concatenate([alpha, gamma])).max() <= 1e-9
        # the caller's translates of the algebroid fiber at s(g) give the same bytes
        fiber = lg.algebroid_fiber(pair2, n)
        given = lg.cotangent_mul(pair2, *factors, translates=(
            lg.source_translates(pair2, g, fiber), lg.target_translates(pair2, h, fiber)))
        assert np.array_equal(given, out)
        # three covector columns at the same pair go through one solve
        alpha, beta, gamma = rng.uniform(-1, 1, (3, 2, 3))
        out = lg.cotangent_mul(pair2, g, np.vstack([alpha, beta]), h, np.vstack([-beta, gamma]))
        assert out.shape == (4, 3)
        assert np.abs(out - np.vstack([alpha, gamma])).max() <= 1e-9

    def test_zero_times_zero(self, pair2):
        g, h = pair2.composable_pair(RNG)
        out = lg.cotangent_mul(pair2, g, np.zeros(4), h, np.zeros(4))
        assert np.abs(out).max() <= 1e-12

    def test_non_composable_covectors_rejected(self, pair2):
        rng = np.random.default_rng(4)
        g, h = pair2.composable_pair(rng)
        with pytest.raises(NotComposable):
            lg.cotangent_mul(pair2, g, np.array([0.0, 0.0, 1.0, 1.0]), h, np.zeros(4))
        # one non-composable column among composable ones rejects the whole call
        with pytest.raises(NotComposable):
            lg.cotangent_mul(pair2, g, np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                             h, np.zeros((4, 2)))

    @pytest.mark.parametrize("family, seed", [("pair", 1), ("vb", 2)], ids=["pair", "vb"])
    def test_defining_identity_recovered(self, pair2, vb22, family, seed):
        # pairing of the product against v_g * v_h reproduces the sum,
        # on 50 random composable covector pairs per scenario
        gd = pair2 if family == "pair" else vb22
        rng = np.random.default_rng(seed)
        n = gd.space.dim
        for _ in range(50):
            g, h = gd.composable_pair(rng)
            alpha_g = rng.uniform(-1, 1, n)
            fiber = lg.algebroid_fiber(gd, gd.src(g))
            target_matrix = np.column_stack([
                cotangent_target(gd, h, e, fiber) for e in np.eye(n)])
            want = cotangent_source(gd, g, alpha_g, fiber)
            alpha_h, resid = linalg.solve_min_norm(target_matrix, want)
            assert resid <= 1e-9
            product = lg.cotangent_mul(gd, g, alpha_g, h, alpha_h)
            pairs = lg.composable_tangent_basis(gd, g, h)
            combo = pairs @ rng.standard_normal(pairs.shape[1])
            v_g, v_h = combo[:n], combo[n:]
            lhs = float(product @ lg.tangent_mul(gd, g, v_g, h, v_h))
            rhs = float(alpha_g @ v_g + alpha_h @ v_h)
            assert abs(lhs - rhs) <= 1e-7


SKEWED_MUL = np.zeros((4, 8))
SKEWED_MUL[:2, :2] = np.eye(2)
SKEWED_MUL[1, 2] = 1.0  # (a, b)(b, c) = (a + b0 e1, c)
SKEWED_MUL[2:, 6:] = np.eye(2)


class TestStackedValidation:
    """The stacked validation reports exactly what a sample-by-sample pass does."""

    @pytest.mark.parametrize("mul", [None, SKEWED_MUL], ids=["cubic", "skewed"])
    def test_report_equals_the_per_point_pass(self, mul):
        gd, _ = cubic_pair_groupoid(mul)
        got = lg.validate_smooth_groupoid(gd, 25, np.random.default_rng(5)).to_json()
        want = per_point_validate_smooth_groupoid(gd, 25, np.random.default_rng(5)).to_json()
        assert got == want
        assert got["pass"] == (mul is None)
        if mul is not None:
            assert {"kind", "at"} <= set(got["witness"])

    def test_cubic_distribution_is_multiplicative(self):
        gd, dist = cubic_pair_groupoid()
        assert md.check_multiplicative(gd, dist, 10, np.random.default_rng(6)).passed

    def test_affine_report_equals_the_per_point_pass(self, pair2):
        got = lg.validate_smooth_groupoid(pair2, 30, np.random.default_rng(3)).to_json()
        want = per_point_validate_smooth_groupoid(pair2, 30, np.random.default_rng(3))
        assert got == want.to_json()

    def test_blowup_on_a_stack_raises(self, pair2):
        gd = dataclasses.replace(pair2, inv=SmoothMap(
            pair2.space, pair2.space, lambda y: y if y[0] > 0.0 else np.full(4, np.nan)))
        with pytest.raises(NumericalBlowup, match="non-finite at"):
            lg.validate_smooth_groupoid(gd, 40, np.random.default_rng(0))

import numpy as np
import pytest

from folioid import linalg
from folioid import liegroupoid as lg
from folioid.errors import NotComposable, TangentNotComposable
from folioid.geomcore import SmoothMap
from folioid.scenarios import gauge_groupoid_maps, pair_groupoid_maps, vb_groupoid_maps
from helpers import algebroid_anchor, cotangent_source, cotangent_target, tangent_unit

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


class TestSamplers:
    """The builtin samplers' draws, rebuilt from an identically seeded generator."""

    @pytest.mark.parametrize("build,place", [
        (lambda: pair_groupoid_maps(2), lambda p, rest: np.concatenate([p, rest])),
        (lambda: vb_groupoid_maps(2, 2), lambda p, rest: np.concatenate([rest, p])),
        (lambda: gauge_groupoid_maps(1), lambda p, rest: np.concatenate([p, rest])),
    ], ids=["pair", "vb", "gauge"])
    def test_draws_and_their_order(self, build, place):
        gd = build()
        n, m = gd.dim_space, gd.dim_base
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
        out = lg.tangent_mul(pair2,
                             lg.TangentArrow(np.concatenate([m, n]), np.concatenate([u, v])),
                             lg.TangentArrow(np.concatenate([n, p]), np.concatenate([v, w])))
        assert np.allclose(out.base, np.concatenate([m, p]))
        assert np.allclose(out.v, np.concatenate([u, w]))

    def test_zero_vectors(self, pair2):
        g, h = pair2.composable_pair(RNG)
        out = lg.tangent_mul(pair2, lg.TangentArrow(g, np.zeros(4)),
                             lg.TangentArrow(h, np.zeros(4)))
        assert np.allclose(out.v, 0)

    def test_vb_fiberwise_addition(self, vb22):
        # (x, v, v_m) * (y, w, v_m) = (x+y, v+w, v_m) in fiber/base tangent split
        x, y, m = np.array([1.0, 0.0]), np.array([0.5, 2.0]), np.array([3.0, 4.0])
        v, w, vm = np.array([0.1, 0.2]), np.array([0.3, -0.1]), np.array([0.7, 0.8])
        out = lg.tangent_mul(vb22,
                             lg.TangentArrow(np.concatenate([x, m]), np.concatenate([v, vm])),
                             lg.TangentArrow(np.concatenate([y, m]), np.concatenate([w, vm])))
        assert np.allclose(out.base, np.concatenate([x + y, m]))
        assert np.allclose(out.v, np.concatenate([v + w, vm]))

    def test_base_and_tangent_composability_errors_distinct(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h_bad = np.array([9.0, 9.0, 0.0, 0.0])
        with pytest.raises(NotComposable):
            lg.tangent_mul(pair2, lg.TangentArrow(g, np.zeros(4)),
                           lg.TangentArrow(h_bad, np.zeros(4)))
        h = np.array([3.0, 4.0, 0.0, 0.0])
        with pytest.raises(TangentNotComposable):
            lg.tangent_mul(pair2, lg.TangentArrow(g, np.array([0.0, 0.0, 1.0, 0.0])),
                           lg.TangentArrow(h, np.zeros(4)))

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
            tg = lg.TangentArrow(g, triple[:4])
            th = lg.TangentArrow(h, triple[4:8])
            tl = lg.TangentArrow(l, triple[8:])
            left = lg.tangent_mul(pair2, lg.tangent_mul(pair2, tg, th), tl)
            right = lg.tangent_mul(pair2, tg, lg.tangent_mul(pair2, th, tl))
            assert np.abs(left.v - right.v).max() <= 1e-6

            # unit of the prolongation over a base tangent
            p, vp = pair2.src(g), pair2.src.jacobian(g) @ tg.v
            unit = tangent_unit(pair2, p, vp)
            prod = lg.tangent_mul(pair2, tg, unit)
            assert np.abs(prod.v - tg.v).max() <= 1e-6


class TestTranslations:
    def test_pair_left_translation(self, pair2):
        # TL_{(m,n)} sends (0, w) at (n, p) to (0, w) at (m, p)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([3.0, 4.0, 5.0, 6.0])
        w = np.array([0.0, 0.0, 0.7, -0.3])
        out = lg.left_translation_tangent(pair2, g, h, w)
        assert np.allclose(out.base, [1.0, 2.0, 5.0, 6.0])
        assert np.allclose(out.v, w)

    def test_unit_translation_is_identity(self, pair2):
        h = np.array([3.0, 4.0, 5.0, 6.0])
        e = pair2.unit(pair2.tgt(h))
        w = np.array([0.0, 0.0, 0.2, 0.9])
        out = lg.left_translation_tangent(pair2, e, h, w)
        assert np.allclose(out.base, h) and np.allclose(out.v, w)

    def test_vb_left_translation(self, vb22):
        # TL_{(x,m)} adds the fiber offset and keeps fiber tangents
        g = np.array([1.0, 0.5, 3.0, 4.0])
        h = np.array([0.2, 0.7, 3.0, 4.0])
        w = np.array([0.4, -0.1, 0.0, 0.0])
        out = lg.left_translation_tangent(vb22, g, h, w)
        assert np.allclose(out.base, [1.2, 1.2, 3.0, 4.0])
        assert np.allclose(out.v, w)

    def test_rejects_non_fiber_tangent(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([3.0, 4.0, 5.0, 6.0])
        with pytest.raises(TangentNotComposable):
            lg.left_translation_tangent(pair2, g, h, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_inverse_translation_roundtrip(self, pair2):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g, h = pair2.composable_pair(rng)
            kernel = linalg.null_basis(pair2.tgt.jacobian(h))
            u = kernel @ rng.standard_normal(kernel.shape[1])
            once = lg.left_translation_tangent(pair2, g, h, u)
            back = lg.left_translation_tangent(pair2, pair2.inv(g), once.base, once.v)
            assert np.abs(back.v - u).max() <= 1e-6
            assert np.abs(back.base - h).max() <= 1e-9


class TestAlgebroid:
    def test_pair_fiber_and_anchor_on_line(self):
        pair1 = pair_groupoid_maps(1)
        fiber = lg.algebroid_fiber(pair1, np.array([0.5]))
        # ker Tt at a unit of the pair groupoid is the source-slot direction
        assert fiber.basis.shape == (2, 1)
        assert abs(fiber.basis[0, 0]) <= 1e-12
        anchor = algebroid_anchor(pair1, fiber)
        assert np.allclose(np.abs(anchor), [[1.0]])

    def test_vb_anchor_vanishes(self, vb22):
        fiber = lg.algebroid_fiber(vb22, np.array([1.0, 2.0]))
        anchor = algebroid_anchor(vb22, fiber)
        assert fiber.basis.shape[1] == 2
        assert np.abs(anchor).max() <= 1e-12

    def test_anchor_is_linear_in_the_fiber(self, pair2):
        fiber = lg.algebroid_fiber(pair2, np.array([0.0, 1.0]))
        anchor = algebroid_anchor(pair2, fiber)
        assert np.allclose(anchor @ np.zeros(fiber.basis.shape[1]), 0.0)


class TestCotangent:
    def test_zero_covector(self, pair2):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(cotangent_source(pair2, lg.CotangentArrow(g, np.zeros(4))), 0)
        assert np.allclose(cotangent_target(pair2, lg.CotangentArrow(g, np.zeros(4))), 0)

    def test_pair_line_source_pairs_second_slot(self):
        pair1 = pair_groupoid_maps(1)
        g = np.array([1.0, 3.0])
        alpha = np.array([0.7, -0.4])  # (a, b)
        fiber = lg.algebroid_fiber(pair1, pair1.src(g))
        value = cotangent_source(pair1, lg.CotangentArrow(g, alpha), fiber)
        w = fiber.basis[1, 0]  # the fiber vector is (0, w)
        assert abs(value[0] - (-0.4) * w) <= 1e-12

    def test_unit_arrow_base_annihilating_covector(self, pair2):
        p = np.array([0.3, -0.8])
        e = pair2.unit(p)
        # alpha annihilates T(units) = {(v, v)}: take (c, -c)
        alpha = np.array([0.5, -1.0, -0.5, 1.0])
        fiber = lg.algebroid_fiber(pair2, p)
        s_val = cotangent_source(pair2, lg.CotangentArrow(e, alpha), fiber)
        t_val = cotangent_target(pair2, lg.CotangentArrow(e, alpha), fiber)
        assert np.abs(s_val - t_val).max() <= 1e-9

    def test_pair_cotangent_mul_closed_form(self, pair2):
        # (alpha, beta) * (-beta, gamma) = (alpha, gamma) in slot covectors
        rng = np.random.default_rng(2)
        m, n, p = rng.uniform(-1, 1, (3, 2))
        alpha, beta, gamma = rng.uniform(-1, 1, (3, 2))
        ca_g = lg.CotangentArrow(np.concatenate([m, n]), np.concatenate([alpha, beta]))
        ca_h = lg.CotangentArrow(np.concatenate([n, p]), np.concatenate([-beta, gamma]))
        out = lg.cotangent_mul(pair2, ca_g, ca_h)
        assert np.abs(out.alpha - np.concatenate([alpha, gamma])).max() <= 1e-9
        # the caller's translates of the algebroid fiber at s(g) give the same bytes
        fiber = lg.algebroid_fiber(pair2, n)
        given = lg.cotangent_mul(pair2, ca_g, ca_h, translates=(
            lg.source_translates(pair2, ca_g.base, fiber),
            lg.target_translates(pair2, ca_h.base, fiber)))
        assert np.array_equal(given.alpha, out.alpha)

    def test_zero_times_zero(self, pair2):
        g, h = pair2.composable_pair(RNG)
        out = lg.cotangent_mul(pair2, lg.CotangentArrow(g, np.zeros(4)),
                               lg.CotangentArrow(h, np.zeros(4)))
        assert np.abs(out.alpha).max() <= 1e-12

    def test_non_composable_covectors_rejected(self, pair2):
        rng = np.random.default_rng(4)
        g, h = pair2.composable_pair(rng)
        with pytest.raises(NotComposable):
            lg.cotangent_mul(pair2, lg.CotangentArrow(g, np.array([0.0, 0.0, 1.0, 1.0])),
                             lg.CotangentArrow(h, np.zeros(4)))

    @pytest.mark.parametrize("family", ["pair", "vb"])
    def test_defining_identity_recovered(self, pair2, vb22, family):
        # pairing of the product against v_g * v_h reproduces the sum,
        # on 50 random composable covector pairs per scenario
        gd = pair2 if family == "pair" else vb22
        rng = np.random.default_rng(hash(family) % 2 ** 16)
        n = gd.dim_space
        for _ in range(50):
            g, h = gd.composable_pair(rng)
            alpha_g = rng.uniform(-1, 1, n)
            fiber = lg.algebroid_fiber(gd, gd.src(g))
            target_matrix = np.column_stack([
                cotangent_target(gd, lg.CotangentArrow(h, e), fiber)
                for e in np.eye(n)])
            want = cotangent_source(gd, lg.CotangentArrow(g, alpha_g), fiber)
            alpha_h, resid = linalg.solve_min_norm(target_matrix, want)
            assert resid <= 1e-9
            product = lg.cotangent_mul(gd, lg.CotangentArrow(g, alpha_g),
                                       lg.CotangentArrow(h, alpha_h))
            pairs = lg.composable_tangent_basis(gd, g, h)
            combo = pairs @ rng.standard_normal(pairs.shape[1])
            v_g, v_h = combo[:n], combo[n:]
            prod_v = lg.tangent_mul(gd, lg.TangentArrow(g, v_g),
                                    lg.TangentArrow(h, v_h))
            lhs = float(product.alpha @ prod_v.v)
            rhs = float(alpha_g @ v_g + alpha_h @ v_h)
            assert abs(lhs - rhs) <= 1e-7

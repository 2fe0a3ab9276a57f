import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folioid import linalg
from folioid.report import Worst
from helpers import stacked_projector_intersection


@pytest.mark.parametrize("angle", [0.0, 1e-7, 0.3, 1.2, math.pi / 2])
def test_largest_principal_angle_of_planes_in_r3(angle):
    # span{e1, e3} against span{(cos a, sin a, 0), e3}: the angles are a and 0
    b1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    b2 = np.array([[math.cos(angle), 0.0], [math.sin(angle), 0.0], [0.0, 1.0]])
    assert abs(linalg.subspace_max_angle(b1, b2) - angle) <= 1e-7
    assert abs(linalg.subspace_max_angle(b2, b1) - angle) <= 1e-7


def test_principal_angle_of_unequal_dimensions_is_right():
    assert linalg.subspace_max_angle(np.eye(3)[:, :1], np.eye(3)[:, :2]) == math.pi / 2


def test_principal_angle_of_empty_subspaces_is_zero():
    assert linalg.subspace_max_angle(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0


@st.composite
def planted_pairs(draw):
    """(a, b, k): a of full column rank and b orthonormal, sharing exactly k directions.

    In a random orthonormal frame, a spans k common and p own directions,
    mixed by a well-conditioned matrix and scaled by 10^e.  b spans the k
    common directions and q more, each at an angle of at least 0.05 to
    span(a): its j-th leans on a's j-th own direction where there is one.
    """
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, n - 1))
    p = draw(st.integers(1 if k == 0 else 0, n - k))
    q = draw(st.integers(0, n - k - p))
    angles = draw(st.lists(st.floats(0.05, math.pi / 2), min_size=q, max_size=q))
    exponent = draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame, _ = np.linalg.qr(rng.standard_normal((n, n)))
    common, own, outside = frame[:, :k], frame[:, k:k + p], frame[:, k + p:]
    left, _ = np.linalg.qr(rng.standard_normal((k + p, k + p)))
    right, _ = np.linalg.qr(rng.standard_normal((k + p, k + p)))
    mixing = left @ np.diag(rng.uniform(0.3, 3.0, k + p)) @ right
    a = 10.0 ** exponent * np.hstack([common, own]) @ mixing
    leaning = [math.cos(phi) * own[:, j] + math.sin(phi) * outside[:, j] if j < p
               else outside[:, j] for j, phi in enumerate(angles)]
    b, _ = np.linalg.qr(np.column_stack([common, *leaning]) if k + q else np.zeros((n, 0)))
    return a, b, k


@settings(max_examples=80, deadline=None)
@given(planted_pairs())
def test_one_svd_intersection_matches_stacked_projectors(case):
    a, b, k = case
    coeffs = linalg.intersect_subspaces(a, b)
    assert coeffs.shape[0] == a.shape[1]
    assert np.allclose(coeffs.T @ coeffs, np.eye(coeffs.shape[1]), atol=1e-12)
    got = linalg.orth_basis(a @ coeffs)
    want = stacked_projector_intersection(a, b)
    assert got.shape[1] == want.shape[1] == k
    assert linalg.subspace_max_angle(got, want) <= 1e-10


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2)])
def test_sup_norm_of_an_empty_array_is_zero(shape):
    assert linalg.sup_norm(np.zeros(shape)) == 0.0


def test_sup_norm_of_a_nan_entry_is_nan_and_fails_the_verdict():
    value = linalg.sup_norm(np.array([1.0, math.nan, -2.0]))
    assert math.isnan(value)
    worst = Worst()
    worst.see(value)
    assert not worst.report("nan", 1.0).passed


@pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["nan_second", "nan_first"])
def test_max_span_residual_keeps_a_nan_column_wherever_it_falls(order):
    # e1 is at residual 1.0 from span(e0); a NaN column beside it must not be dropped
    basis = np.array([[1.0], [0.0]])
    assert linalg.max_span_residual(np.array([[0.0, 0.0], [1.0, 0.0]])[:, order], basis) == 1.0
    vectors = np.array([[0.0, math.nan], [1.0, math.nan]])[:, order]
    assert math.isnan(linalg.max_span_residual(vectors, basis))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False), st.just(-0.0)), min_size=1, max_size=12),
       st.sampled_from([(-1,), (1, -1), (-1, 1)]))
def test_sup_norm_equals_the_largest_absolute_entry_bitwise(entries, shape):
    a = np.array(entries).reshape(shape)
    assert struct.pack("d", linalg.sup_norm(a)) == struct.pack("d", float(np.max(np.abs(a))))


def test_span_residual_against_an_empty_basis_keeps_a_nan():
    # every nonzero finite vector is at residual 1.0 from the zero subspace; a NaN is not
    empty = np.zeros((2, 0))
    assert linalg.span_residuals([1.0, 2.0], empty).tolist() == [1.0]
    assert math.isnan(linalg.span_residuals([math.nan, 1.0], empty)[0])
    assert math.isnan(linalg.max_span_residual(np.array([[0.0, math.nan], [1.0, 1.0]]), empty))


@st.composite
def vectors_and_bases(draw):
    """(vectors, basis): columns of random scale, some below 1e-13 and some
    with a NaN or infinite entry, against an orthonormal basis, maybe empty."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, n))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    scales = draw(st.lists(st.sampled_from([0.0, 1e-300, 1e-15, 1e-13, 1.0, 1e8]),
                           min_size=k, max_size=k))
    vectors = rng.standard_normal((n, k)) * np.array(scales)
    for value in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2)):
        vectors[rng.integers(n), rng.integers(k)] = value
    return vectors, basis


@settings(max_examples=200, deadline=None)
@given(vectors_and_bases())
def test_stacked_span_residuals_equal_each_vector_alone_bitwise(case):
    vectors, basis = case
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = linalg.span_residuals(vectors, basis)
        alone = [linalg.span_residuals(vectors[:, j], basis)[0]
                 for j in range(vectors.shape[1])]
        largest = linalg.max_span_residual(vectors, basis)
    assert [struct.pack("d", r) for r in stacked] == [struct.pack("d", r) for r in alone]
    assert struct.pack("d", largest) == struct.pack("d", linalg.sup_norm(alone))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_matrix_right_hand_side_equals_column_solves_bitwise(n, extra_rows, deficient, seed):
    # systems of at most 4 rows, no fewer than columns: the square graph solve of
    # dirac._extract_bivector (quotients up to dimension 4) is one of them
    rows = min(n + extra_rows, 4)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n))
    if deficient and n > 1:
        a[:, -1] = a[:, 0]
    for b in (np.eye(rows), rng.standard_normal((rows, 3))):
        x, resids = linalg.solve_min_norm(a, b)
        assert x.shape == (n, b.shape[1]) and resids.shape == (b.shape[1],)
        for j in range(b.shape[1]):
            x_j, resid_j = linalg.solve_min_norm(a, b[:, j])
            assert x[:, j].tobytes() == x_j.tobytes()
            assert struct.pack("d", resids[j]) == struct.pack("d", resid_j)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_matrix_right_hand_side_of_any_shape_rounds_each_residual_alone(rows, n, seed):
    # with more than 4 rows LAPACK's multi-column solve may round the solution
    # differently from column solves, so dirac.is_forward_dirac solves per column;
    # each residual is still that column's own product and norm
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((rows, n)), rng.standard_normal((rows, 3))
    x, resids = linalg.solve_min_norm(a, b)
    for j in range(3):
        column = np.ascontiguousarray(x[:, j])
        assert resids[j] == float(np.linalg.norm(a @ column - b[:, j]))
        assert np.allclose(column, linalg.solve_min_norm(a, b[:, j])[0], rtol=1e-9, atol=1e-9)


class TestStacks:
    """A stack of matrices through one call equals the matrices one by one."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_stacked_helpers_equal_per_matrix_calls_bitwise(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        # each matrix a product of random factors of a random rank, some rank deficient
        stack = np.array([rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                          for r in rng.integers(0, min(m, n) + 1, k)])
        for fn in (linalg.orth_basis, linalg.null_basis):
            got = fn(stack)
            singles = [fn(a) for a in stack]
            width = max(b.shape[1] for b in singles)
            assert got.shape == (k, stack.shape[1] if fn is linalg.orth_basis else n, width)
            for g, b in zip(got, singles):
                kept = g[:, np.any(g != 0.0, axis=0)]
                assert kept.tobytes() == b.tobytes()
        assert linalg.numerical_rank(stack).tolist() == [linalg.numerical_rank(a) for a in stack]
        vectors = rng.standard_normal((k, m, 3))
        bases = linalg.orth_basis(rng.standard_normal((k, m, 2)))
        got = linalg.span_residuals(vectors, bases)
        assert got.tobytes() == np.array([linalg.span_residuals(v, b)
                                          for v, b in zip(vectors, bases)]).tobytes()

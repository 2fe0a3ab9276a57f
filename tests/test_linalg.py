import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folioid import linalg
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

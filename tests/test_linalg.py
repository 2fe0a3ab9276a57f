import math

import numpy as np
import pytest

from folioid import linalg


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

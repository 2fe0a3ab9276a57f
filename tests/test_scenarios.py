import numpy as np
import pytest

from folioid.scenarios import (group_action_pair_scenario, pair_scenario,
                               presymplectic_pair_dirac_scenario, vb_scenario)
from helpers import SMOOTH_EXPECTED

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: pair_scenario(2, [[INF, 0.0]]), r"^d_basis must be finite"),
    (lambda: vb_scenario(2, [[1.0, 0.0]], 2, [[0.0, INF]]), r"^f_basis must be finite"),
    (lambda: vb_scenario(2, [[NAN, 1.0]]), r"^w_basis must be finite"),
    (lambda: presymplectic_pair_dirac_scenario([[0.0, NAN, 0.0], [-1.0, 0.0, 0.0],
                                                [0.0, 0.0, 0.0]]), r"^omega must be finite"),
    (lambda: group_action_pair_scenario(2, [INF, 0.0]), r"^direction must be finite"),
    (lambda: pair_scenario(3, [[1.0, 0.0]]), r"^d_basis must have rows of 3 entries"),
    (lambda: vb_scenario(2, [[1.0, 0.0, 0.0]]), r"^w_basis must have rows of 2 entries"),
    (lambda: group_action_pair_scenario(3, [1.0, 0.0]),
     r"^direction must have rows of 3 entries"),
], ids=["infinite_d_basis", "infinite_f_basis", "nan_w_basis", "nan_omega",
        "infinite_direction", "short_d_basis", "long_w_basis", "short_direction"])
def test_malformed_parameter_is_named(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", list(SMOOTH_EXPECTED))
def test_section_is_a_right_inverse_of_the_labels(build):
    s = build()
    rng = np.random.default_rng(23)
    for _ in range(5):
        y = rng.uniform(-2.0, 2.0, size=s.chart.lambda_g.codomain.dim)
        assert np.allclose(s.chart.lambda_g(s.quotient_section(y)), y, rtol=0.0, atol=1e-12)

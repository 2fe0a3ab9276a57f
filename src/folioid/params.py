"""Numerical knobs, with one shared default set.

Every tolerance used by the smooth-side checks lives here so a scenario
config can override them in one place.  The base-level composability gap
is not a knob: samplers build composable pairs exactly, and
``liegroupoid.TOL_COMP`` bounds the gap they may leave.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericParams:
    # finite differences and integration
    h_fd: float = 1e-5
    rk4_steps_per_unit: int = 200
    # rank decisions (relative singular-value cutoff)
    tol_rank: float = 1e-6
    # subspace membership / equality (sine of angle)
    tol_member: float = 1e-6
    # leaf label comparisons
    tol_leaf: float = 1e-6
    # groupoid axiom residuals at sampled points
    tol_axiom: float = 1e-8
    # composability of sampled tangent pairs
    tol_tangent_comp: float = 1e-6
    # cotangent composability and products
    tol_cot: float = 1e-6
    # descending-section lift residuals
    tol_desc: float = 1e-6
    # leafwise transport endpoint residual
    tol_target: float = 1e-6
    # first-integral annihilation residuals
    tol_fi: float = 1e-6
    # tangent/cotangent lifted-structure identities
    tol_lift: float = 1e-6
    # Dirac membership and forward-map residuals
    tol_dirac: float = 1e-6
    # Lagrangian pairing residual
    tol_lag: float = 1e-6
    # Jacobi identity residual for extracted bivectors
    tol_jac_poisson: float = 1e-6
    # flow time used when probing leaves and completeness
    flow_time: float = 1.0

    def override(self, **kwargs) -> "NumericParams":
        """Copy with the given fields replaced; rejects unknown names."""
        return replace(self, **kwargs)


DEFAULT_PARAMS = NumericParams()

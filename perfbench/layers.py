"""Per-layer metrics of one traced pass, derived from its spans.

Counts are calls per pass and repeat exactly for a given seed; times are
seconds per pass measured with the tracer on.  Each layer is a folioid
module; ``DRIVES`` records which workload each counter is meant to move and
``ZERO_ON`` where it must read 0.
"""

from __future__ import annotations

SVD = ("linalg.orth_basis", "linalg.null_basis", "linalg.numerical_rank")
FD_JACOBIANS = ("geomcore.SmoothMap.jacobian_fd", "geomcore.VectorField.jacobian",
                "geomcore.OneForm.jacobian")
FIELD_CALL = "geomcore.VectorField.__call__"

# every pipeline entry of the two smooth workloads, for cli.check.<name>_s
PIPELINE_CHECKS = (
    "validate_groupoid", "check_multiplicative", "check_rank_structure",
    "check_ts_surjectivity", "check_involutive", "lift_section",
    "spot_check_completeness", "check_leaf_chart", "transport_to_target",
    "check_condition6", "validate_quotient_groupoid", "check_lifted_structures",
    "check_ideal_system", "check_lagrangian", "check_integrable",
    "check_multiplicative_dirac", "pushforward_dirac", "is_forward_dirac",
)

# instances of the finite workload that carry a normal subgroupoid system
NSS_INSTANCES = 2


def span_metrics(st, workload: str) -> dict:
    """Counts and times of one traced pass."""
    steps, rest = divmod(st.direct_children("geomcore.flow", FIELD_CALL), 4)
    if rest:
        raise ValueError("field evaluations inside flow are not a multiple of 4")
    svd_in_flow = st.descendants_of("geomcore.flow", SVD)
    nss_calls = st.calls("fingroupoid.validate_nss")
    return {
        "linalg.svd_calls": st.calls(*SVD),
        "linalg.lstsq_calls": st.calls("linalg.solve_min_norm"),
        "linalg.intersect_subspaces.calls": st.calls("linalg.intersect_subspaces"),
        "linalg.subspace_max_angle.calls": st.calls("linalg.subspace_max_angle"),
        "linalg.self_s": st.layer_self_s("linalg"),
        "linalg.svd_calls_in_flow": svd_in_flow,
        "linalg.svd_per_rk4_step": svd_in_flow / steps if steps else 0.0,
        "geomcore.flow.calls": st.calls("geomcore.flow"),
        "geomcore.rk4_steps": steps,
        "geomcore.field_evals": st.calls(FIELD_CALL),
        "geomcore.map_evals": st.calls("geomcore.SmoothMap.__call__"),
        "geomcore.fd_jacobians": st.calls(*FD_JACOBIANS),
        "geomcore.flow_s": st.inclusive_s("geomcore.flow"),
        "geomcore.self_s": st.layer_self_s("geomcore"),
        "multdist.fiber_basis.calls": st.calls("multdist.Distribution.fiber_basis"),
        "multdist.fiber_kernel_intersection.calls":
            st.calls("multdist.fiber_kernel_intersection"),
        "multdist.lift_at_point.calls": st.calls("multdist.lift_at_point"),
        "multdist.self_s": st.layer_self_s("multdist"),
        "liegroupoid.compose.calls": st.calls("liegroupoid.SmoothGroupoid.compose"),
        "liegroupoid.tangent_mul.calls": st.calls("liegroupoid.tangent_mul"),
        "liegroupoid.cotangent_mul.calls": st.calls("liegroupoid.cotangent_mul"),
        "liegroupoid.algebroid_fiber.calls": st.calls("liegroupoid.algebroid_fiber"),
        "liegroupoid.self_s": st.layer_self_s("liegroupoid"),
        "leafspace.random_t_fiber_point.calls": st.calls("leafspace.random_t_fiber_point"),
        "leafspace.random_t_fiber_point_s": st.inclusive_s("leafspace.random_t_fiber_point"),
        "leafspace.random_leaf_point.calls": st.calls("leafspace.random_leaf_point"),
        "leafspace.transport_to_target.calls": st.calls("leafspace.transport_to_target"),
        "leafspace.transport_to_target_s": st.inclusive_s("leafspace.transport_to_target"),
        "leafspace.quotient_mul.calls": st.calls("leafspace.quotient_mul"),
        "leafspace.self_s": st.layer_self_s("leafspace"),
        "dirac.courant_bracket.calls": st.calls("dirac.courant_bracket"),
        "dirac.pushforward_fiber.calls": st.calls("dirac.pushforward_fiber"),
        "dirac.pushforward_dirac.calls": st.calls("dirac.pushforward_dirac"),
        "dirac.self_s": st.layer_self_s("dirac"),
        "fingroupoid.validate_groupoid_s": st.inclusive_s("fingroupoid.validate_groupoid"),
        "fingroupoid.validate_nss_s": st.inclusive_s("fingroupoid.validate_nss"),
        "fingroupoid.validate_nss.calls": nss_calls,
        "fingroupoid.validate_nss_per_instance":
            nss_calls / NSS_INSTANCES if workload == "finite_quotients" else 0.0,
        "fingroupoid.quotient_by_normal_subgroupoid_s":
            st.inclusive_s("fingroupoid.quotient_by_normal_subgroupoid"),
        "fingroupoid.quotient_by_nss_s": st.inclusive_s("fingroupoid.quotient_by_nss"),
        "fingroupoid.find_isomorphism_s": st.inclusive_s("fingroupoid.find_isomorphism"),
        "fingroupoid.coset.calls": st.calls("fingroupoid.coset"),
        "fingroupoid.self_s": st.layer_self_s("fingroupoid"),
        "scenarios.build_scenario_s": st.inclusive_s("scenarios.build_scenario"),
    }


def check_time_metrics(times: dict) -> dict:
    """cli.check.<name>_s from one report's wall times; 0 for absent entries."""
    return {f"cli.check.{name}_s": float(times.get(name, 0.0)) for name in PIPELINE_CHECKS}


# counters and the workload meant to drive each one (nonzero there)
DRIVES = {
    "linalg.svd_calls": "pair_leafspace",
    "linalg.lstsq_calls": "pair_leafspace",
    "linalg.intersect_subspaces.calls": "pair_leafspace",
    "linalg.subspace_max_angle.calls": "dirac_pushforward",
    "linalg.svd_calls_in_flow": "pair_leafspace",
    "linalg.svd_per_rk4_step": "pair_leafspace",
    "geomcore.flow.calls": "pair_leafspace",
    "geomcore.rk4_steps": "pair_leafspace",
    "geomcore.field_evals": "pair_leafspace",
    "geomcore.map_evals": "pair_leafspace",
    "geomcore.fd_jacobians": "dirac_pushforward",
    "multdist.fiber_basis.calls": "pair_leafspace",
    "multdist.fiber_kernel_intersection.calls": "pair_leafspace",
    "multdist.lift_at_point.calls": "pair_leafspace",
    "liegroupoid.compose.calls": "pair_leafspace",
    "liegroupoid.tangent_mul.calls": "dirac_pushforward",
    "liegroupoid.cotangent_mul.calls": "dirac_pushforward",
    "liegroupoid.algebroid_fiber.calls": "dirac_pushforward",
    "leafspace.random_t_fiber_point.calls": "pair_leafspace",
    "leafspace.random_leaf_point.calls": "pair_leafspace",
    "leafspace.transport_to_target.calls": "pair_leafspace",
    "leafspace.quotient_mul.calls": "pair_leafspace",
    "dirac.courant_bracket.calls": "dirac_pushforward",
    "dirac.pushforward_fiber.calls": "dirac_pushforward",
    "dirac.pushforward_dirac.calls": "dirac_pushforward",
    "fingroupoid.validate_nss.calls": "finite_quotients",
    "fingroupoid.validate_nss_per_instance": "finite_quotients",
    "fingroupoid.coset.calls": "finite_quotients",
}

_LINALG = ("linalg.svd_calls", "linalg.lstsq_calls", "linalg.intersect_subspaces.calls",
           "linalg.subspace_max_angle.calls", "linalg.svd_calls_in_flow",
           "linalg.svd_per_rk4_step")
_FLOWS = ("geomcore.flow.calls", "geomcore.rk4_steps", "linalg.svd_calls_in_flow",
          "linalg.svd_per_rk4_step")
_LEAFSPACE = ("leafspace.random_t_fiber_point.calls", "leafspace.random_leaf_point.calls",
              "leafspace.transport_to_target.calls", "leafspace.quotient_mul.calls")
_FINGROUPOID = ("fingroupoid.validate_nss.calls", "fingroupoid.validate_nss_per_instance",
                "fingroupoid.coset.calls")

# counters that must read 0 on a workload
ZERO_ON = {
    "pair_leafspace": _FINGROUPOID + ("dirac.courant_bracket.calls",
                                      "dirac.pushforward_fiber.calls",
                                      "dirac.pushforward_dirac.calls"),
    "dirac_pushforward": _FLOWS + _LEAFSPACE + _FINGROUPOID,
    "finite_quotients": _LINALG + _FLOWS + _LEAFSPACE + (
        "geomcore.field_evals", "geomcore.map_evals", "geomcore.fd_jacobians",
        "multdist.fiber_basis.calls", "liegroupoid.compose.calls",
        "dirac.pushforward_dirac.calls"),
}

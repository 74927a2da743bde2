"""Geometry of the first jet space of maps between two manifolds: jet
coordinate changes, distinguished tensor fields, temporal and spatial
sprays, nonlinear connections with their adapted frames, second-order map
PDEs with solvers, prolongation of vector fields, and a randomized
verification harness for every transformation law."""

__version__ = "0.1.0"

from .exprlang import Expr, ExprError, diff, evaluate, free_vars, parse, subst, to_str
from .numdiff import (ChangeMap, ChartError, change_catalog, identity_change,
                      jacobian_blocks, random_change, spatial_names,
                      temporal_names)
from .geometry import (GeometryError, Metric, energy_density, metric_from_name,
                       pullback_metric)
from .jetspace import (JetPoint, JetTable, frame_size, jet_pullback,
                       natural_coframe_change, natural_frame_change, random_jet,
                       transform_jet, vert_index)
from .dtensor import (DTensorField, IndexSignature, SignatureError, Verdict,
                      is_dtensor, lagrangian_metric_field, law_check,
                      liouville_c_field, liouville_l_field,
                      normalization_j_field, transform_components)
from .sprays import (Spray, SprayError, SprayPair, canonical_pair,
                     canonical_spatial, canonical_temporal, combine_sprays,
                     decompose_spray, h_trace, spray_coefficient_field,
                     spray_difference_field, spray_from_hspray,
                     spray_law_error, transform_spray, zero_spray)
from .connection import (NonlinearConnection, adapted_coframe, adapted_frame,
                         adapted_frame_blocks, canonical_connection,
                         connection_from_sprays, connection_law_error,
                         sprays_from_connection)
from .maps import (GridSolution, MapError, OdeSolution, SmoothMap,
                   affine_residual, harmonic_residual, metric_laplacian,
                   poisson_residual, solve_affine_ode, solve_harmonic_grid,
                   spray_source)
from .prolong import (BaseVectorField, JetVectorField, ProlongError,
                      flow_transport, horizontal_lift, olver_prolong,
                      prolongation_flow_error, pushforward, total_derivative,
                      vertical_gap_field)
from .scenario import Scenario, ScenarioError, load_scenario
from .verify import run_suite, run_verify

__all__ = [
    "__version__",
    # expressions
    "Expr", "ExprError", "parse", "to_str", "evaluate", "diff", "subst", "free_vars",
    # charts
    "ChangeMap", "ChartError", "identity_change", "random_change",
    "change_catalog", "jacobian_blocks", "temporal_names", "spatial_names",
    # metrics
    "Metric", "GeometryError", "metric_from_name", "pullback_metric",
    "energy_density",
    # jet space
    "JetPoint", "JetTable", "transform_jet", "natural_frame_change", "natural_coframe_change",
    "jet_pullback", "random_jet", "frame_size", "vert_index",
    # d-tensors
    "DTensorField", "IndexSignature", "SignatureError", "Verdict", "law_check",
    "is_dtensor",
    "transform_components", "liouville_c_field", "liouville_l_field",
    "normalization_j_field", "lagrangian_metric_field",
    # sprays
    "Spray", "SprayPair", "SprayError",
    "canonical_temporal", "canonical_spatial", "canonical_pair", "zero_spray",
    "transform_spray", "spray_law_error", "h_trace", "spray_from_hspray",
    "combine_sprays", "spray_difference_field", "spray_coefficient_field",
    "decompose_spray",
    # connections
    "NonlinearConnection", "canonical_connection", "connection_law_error",
    "adapted_frame", "adapted_coframe", "adapted_frame_blocks",
    "connection_from_sprays", "sprays_from_connection",
    # maps and solvers
    "SmoothMap", "MapError", "affine_residual", "harmonic_residual",
    "metric_laplacian", "spray_source", "poisson_residual",
    "OdeSolution", "solve_affine_ode", "GridSolution", "solve_harmonic_grid",
    # prolongation
    "BaseVectorField", "JetVectorField", "ProlongError", "total_derivative",
    "olver_prolong", "pushforward", "flow_transport", "prolongation_flow_error",
    "horizontal_lift", "vertical_gap_field",
    # scenarios and verification
    "Scenario", "ScenarioError", "load_scenario", "run_suite", "run_verify",
]

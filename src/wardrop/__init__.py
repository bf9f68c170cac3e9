"""Multi-population Nash equilibria on road networks.

Model road networks shared by several traveler populations with distinct
origins, destinations, and (possibly unbounded) congestion costs; compute
verified global Nash equilibria by fixed-point iteration; and analyze
uniqueness and Braess-paradox effects.
"""

from .analysis import (
    BraessReport,
    HSampler,
    OracleResult,
    SegmentMatrices,
    UniquenessReport,
    brute_force_equilibria,
    check_defpos,
    check_hypothesis_coupling,
    check_pair_orthogonality,
    check_uniqueness,
    compare_scenarios,
    segment_matrices,
)
from .costs import (
    Affine,
    CongestionRational,
    Constant,
    CostClassReport,
    CostExpr,
    ExtReal,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
    classify_cost,
    eval_cost,
    eval_partial,
)
from .equilibrium import (
    Assignment,
    EquilibriumReport,
    MultistartParams,
    RouteTimes,
    SolveParams,
    SolveResult,
    check_conditional_optimality,
    compress_time,
    fixed_point_map,
    fixed_point_residual,
    is_eps_nash,
    is_equilibrium,
    is_nash,
    mean_times,
    route_times,
    solve_fixed_point,
    solve_multistart,
    solve_starts,
    uniform_assignment,
    verify,
    vertex_assignment,
)
from .netcore import (
    IncidenceMatrix,
    Junction,
    Network,
    PopulationSpec,
    Road,
    RouteSpec,
    ValidationReport,
    build_incidence,
    check_condition_gamma,
    enumerate_routes,
    flows_on_roads,
    validate_network,
)

__version__ = "0.1.0"

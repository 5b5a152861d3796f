"""Computing in CAT(0) (Hadamard) spaces.

Space models with closed-form geodesics, the quasilinearization pairing,
a calculus of firmly nonexpansive operators, weighted barycenters,
projection algorithms with Fejer/shadow diagnostics, and a randomized
certifier for the underlying metric inequalities.
"""

from .errors import (
    CheckSpecError,
    ConstructionError,
    ConvergenceFailureError,
    DomainError,
    EdgeListError,
    HadamardError,
    InvalidPointError,
    NotAFixedPointError,
    ScenarioError,
    SpaceMismatchError,
)
from .geometry import (
    Euclidean,
    Hyperboloid,
    Point,
    ProductSpace,
    SpaceModel,
    cat0_defect,
    distance,
    geodesic_point,
    minkowski,
    quasilinearization,
)
from .metric_tree import MetricTree, TreeEdge, TreeLocation, parse_edge_list

__version__ = "0.1.0"

from .barycenter import (
    WeightedPoints,
    frechet_mean,
    frechet_objective,
    inductive_mean_sweeps,
    variance_defect,
)
from .convex_sets import (
    ConvexSet,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    HyperbolicHalfspace,
    ProductSet,
    Subtree,
    halfspace_residual,
    projection_defect,
)
from .operators import (
    Composition,
    Constant,
    ConvexCombination,
    Identity,
    Operator,
    Pointwise,
    Projection,
    alpha_firm_defect,
    combination_alpha,
    composition_alpha,
    discrepancy,
    fold_composition_alpha,
    quasi_firm_defect,
)
from .iterations import (
    IterationTrace,
    StopRule,
    approximate_shadows,
    averaged_projections,
    cyclic_projections,
    fixed_point_iterate,
    project_to_segment,
    shadow_cauchy_worst_defect,
    technical_condition_gaps,
)
from .certifier import (
    CertificateReport,
    CheckResult,
    CheckSpec,
    default_suite,
    reevaluate_witness,
    run_check,
    run_suite,
    space_suite,
)
from .scenario import Scenario, parse_scenario, point_spec
from .cli import run_scenario

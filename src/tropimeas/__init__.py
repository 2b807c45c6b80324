"""Max-plus (idempotent) probability measures on finite metric spaces:
algebra, Lipschitz-dual metrization, convex geometry, and the bridge to
the probability simplex."""

from .bridge import (
    DeltaPoint,
    GammaPoint,
    delta_to_gamma,
    gamma_to_delta,
    measure_to_gamma,
)
from .geometry import (
    CStructureQuery,
    DapReport,
    dap_demo,
    discretize_g1,
    f_set_element,
    homotopy_H,
    max_of,
    random_measure,
    saturate_g2,
)
from .measure import (
    IdempotentMeasure,
    MetaMeasure,
    canonicalize,
    combine,
    dirac,
    dirac_lift,
    flatten,
    in_basic_neighborhood,
    integrate,
    meta_measure,
    pushforward,
    support,
    uniform_j,
)
from .metric import (
    FiniteMetricSpace,
    LipFunction,
    PointMap,
    build_space,
    covering_radius,
    nearest_net_retraction,
    tighten,
)
from .pseudometric import (
    DistanceReport,
    aggregate_d,
    hat_d,
    hat_d_meta,
    hausdorff_support_distance,
    oracle_sup,
    separates,
    tilde_d,
)
from .rmax import BOTTOM, odot, oplus, rho

__version__ = "0.1.0"

__all__ = [
    "BOTTOM", "oplus", "odot", "rho",
    "FiniteMetricSpace", "LipFunction", "PointMap", "build_space",
    "tighten", "nearest_net_retraction", "covering_radius",
    "IdempotentMeasure", "MetaMeasure", "canonicalize", "dirac",
    "uniform_j", "integrate", "combine", "pushforward", "support",
    "meta_measure", "flatten", "dirac_lift", "in_basic_neighborhood",
    "DistanceReport", "hat_d", "tilde_d", "aggregate_d", "oracle_sup",
    "hat_d_meta", "separates", "hausdorff_support_distance",
    "CStructureQuery", "DapReport", "f_set_element", "homotopy_H",
    "max_of", "saturate_g2", "discretize_g1", "dap_demo", "random_measure",
    "GammaPoint", "DeltaPoint", "measure_to_gamma", "gamma_to_delta",
    "delta_to_gamma",
]

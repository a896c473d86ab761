"""certquad: certified quadrature for vector-valued functions.

Approximates the integral of ``f: [a, b] -> X`` (X a finite-dimensional
normed space) by convex combinations of point values and returns rigorous
error certificates at three tightness levels, stated against the L1, Lp or
sup norm of the derivative.
"""

from .bounds import (
    ErrorCertificate,
    bound_level1,
    bound_level2,
    bound_level3,
    level2_certificate,
    level3_factor,
)
from .engine import (
    QuadratureResult,
    apply_rule,
    integrate_adaptive,
    integrate_composite,
    oracle_integral,
)
from .functions import FUNCTION_NAMES, SPACES, make_function, space_by_label
from .geometry import (
    INF,
    L1,
    LINF,
    Interval,
    NormRegime,
    Partition,
    conjugate_exponent,
    lp,
    mu,
    uniform_partition,
)
from .rules import (
    PRESET_NAMES,
    CumulativeWeights,
    QuadratureRule,
    cumulative,
    make_rule,
    nodes_abs,
    preset,
)
from .seminorms import (
    DEFAULT_RESOLUTION,
    SeminormEstimate,
    SeminormProfile,
    seminorm,
    seminorm_profile,
)
from .spaces import (
    ComplexEuclideanSpace,
    EuclideanSpace,
    MatrixSpace,
    MaxNormSpace,
    NormedSpace,
    ScalarSpace,
    VectorFunction,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "L1",
    "LINF",
    "Interval",
    "NormRegime",
    "Partition",
    "conjugate_exponent",
    "lp",
    "mu",
    "uniform_partition",
    "NormedSpace",
    "ScalarSpace",
    "EuclideanSpace",
    "MaxNormSpace",
    "ComplexEuclideanSpace",
    "MatrixSpace",
    "VectorFunction",
    "QuadratureRule",
    "CumulativeWeights",
    "PRESET_NAMES",
    "make_rule",
    "nodes_abs",
    "cumulative",
    "preset",
    "DEFAULT_RESOLUTION",
    "SeminormEstimate",
    "SeminormProfile",
    "seminorm",
    "seminorm_profile",
    "ErrorCertificate",
    "bound_level1",
    "bound_level2",
    "bound_level3",
    "level2_certificate",
    "level3_factor",
    "QuadratureResult",
    "apply_rule",
    "oracle_integral",
    "integrate_composite",
    "integrate_adaptive",
    "SPACES",
    "FUNCTION_NAMES",
    "make_function",
    "space_by_label",
    "__version__",
]

"""k-means solvers paired with a quasilinear certificate of global optimality.

The pipeline: sample (or load) points, run a fast solver, then certify the
returned partition by testing whether the all-ones vector spans the unique
leading eigenspace of an implicitly applied certificate operator.
"""

from .model import (
    BallModelConfig,
    Dataset,
    DISTRIBUTIONS,
    Partition,
    PointSet,
    TWO_POINT_SYM,
    UNIFORM_BALL,
    UNIFORM_SPHERE,
    kmeans_objective,
    partitions_equal,
    read_dataset_csv,
    sample_stochastic_ball_model,
    standard_centers,
    write_dataset_csv,
)
from .certificate import (
    CertificateUndefinedError,
    CertifyDecision,
    CertifyOutcome,
    certify_partition,
)
from .detector import (
    DetectorDecision,
    DetectorOutcome,
    EigenvectorMismatchError,
    default_epsilon,
    power_iteration_detect,
)
from .solvers import (
    SolveResult,
    ThresholdScan,
    exact_kmeans_bruteforce,
    lloyd,
    optimal_threshold_split,
    spectral_two_means,
)

# the imports above also bind the submodules, which are not exported names
_SUBMODULES = ("certificate", "detector", "model", "solvers")
__all__ = [name for name in dir() if not name.startswith("_") and name not in _SUBMODULES]

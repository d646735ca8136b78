"""Score-based kernel calibration tests for probabilistic predictive models.

The library tests whether a predictive model's distribution matches the
conditional law of its targets. The primary statistic weighs Stein-type
score terms by a positive definite kernel between the predicted densities,
so it needs no expectations against the models; the classic kernel
calibration error is included as a baseline with pluggable expectation
strategies. Null quantiles come from a Rademacher wild bootstrap.
"""

from .kernels import (
    DegenerateBandwidthError,
    DistributionKernel,
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    GaussianKernel,
    IMQKernel,
    ScalarKernel,
    UnsupportedKernelError,
    median_heuristic,
    scalar_kernel,
    second_order_median_heuristic,
)
from .models import (
    Dataset,
    GaussianBatch,
    ModelBatch,
    NumericalError,
    ScoredBatch,
    ScoredDensity,
    ScoreShapeError,
    SyntheticSetup,
    sample_setup,
)
from .sampling import (
    CapabilityError,
    MalaConfig,
    MalaRun,
    RandomStream,
    run_mala,
)
from .statistics import (
    KCCSD,
    SKCE,
    ClosedFormGaussian,
    ExactSampler,
    MalaSampler,
    TestResult,
    kccsd_stat_matrix,
    run_calibration_test,
    skce_stat_matrix,
    u_statistic,
    wild_bootstrap,
)
from .harness import (
    ConfigError,
    DatasetFormatError,
    DistKernelSpec,
    ExperimentConfig,
    ResultRow,
    TargetKernelSpec,
    TestConfig,
    read_csv,
    read_dataset,
    rejection_rates,
    run_experiment,
    run_test_on_dataset,
    write_csv,
    write_dataset,
)

__version__ = "0.1.0"

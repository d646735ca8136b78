"""Score-based kernel calibration tests for probabilistic predictive models.

The library tests whether a predictive model's distribution matches the
conditional law of its targets. The primary statistic weighs Stein-type
score terms by a positive definite kernel between the predicted densities,
so it needs no expectations against the models; the classic kernel
calibration error is included as a baseline with pluggable expectation
strategies. Null quantiles come from a Rademacher wild bootstrap.
"""

from .kernels import (
    BaseMeasure,
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
    exp_gfd,
    exp_kgfd,
    exp_mmd,
    exp_wasserstein,
    gaussian_kernel_double_expectation,
    gaussian_kernel_single_expectation,
    gfd_estimate,
    gfd_gaussian_closed,
    gram,
    kgfd_estimate,
    median_heuristic,
    scalar_bundle,
    scalar_kernel,
    second_order_median_heuristic,
)
from .models import (
    DiagonalGaussian,
    NumericalError,
    ScoredDensity,
    ScoreShapeError,
    SyntheticSetup,
    as_scored,
    chi_square_quantile,
    coverage_rate,
    gaussian_score,
    hdr_contains,
    row_density,
    sample_setup,
)
from .sampling import (
    CapabilityError,
    MalaConfig,
    MalaRun,
    RandomStream,
    rademacher,
    run_mala,
    sample_gaussian,
)
from .statistics import (
    KCCSD,
    SKCE,
    ClosedFormGaussian,
    ExactSampler,
    MalaSampler,
    StatMatrix,
    TestResult,
    h_matrix,
    h_term,
    kccsd_stat_matrix,
    run_calibration_test,
    skce_g_term,
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
    StatisticConfig,
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

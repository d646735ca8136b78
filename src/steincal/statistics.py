"""Stein-type and calibration-error U-statistics, wild bootstrap, test runner.

Both statistics share one shape: a symmetric matrix of pairwise kernel terms
whose off-diagonal average is the test statistic, with null quantiles from a
Rademacher wild bootstrap of the same matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .kernels import (
    DistributionKernel,
    GaussianKernel,
    ScalarKernel,
    UnsupportedKernelError,
    double_expectation_gram,
    gaussian_kernel_double_expectation,
    gaussian_kernel_single_expectation,
    single_expectation_gram,
)
from .models import (
    DiagonalGaussian,
    as_scored,
    dataset_models,
    dataset_targets,
    gaussian_rows,
    is_gaussian_models,
    row_density,
    score_matrix,
    stack_gaussians,
)
from .sampling import CapabilityError, MalaConfig, RandomStream, run_mala

Dataset = Sequence[tuple]


@dataclass(frozen=True, eq=False)
class StatMatrix:
    """Symmetric matrix of pairwise statistic terms; the diagonal is unused
    by the U-statistic and stored as zero."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("statistic matrix contains non-finite entries")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# Stein-type pairwise terms
# ---------------------------------------------------------------------------

def h_matrix_between(l: ScalarKernel, scores1: np.ndarray, targets1: np.ndarray,
                     scores2: np.ndarray, targets2: np.ndarray) -> np.ndarray:
    """Pairwise Stein terms between two stacks of (score, target) rows.

    Entry [i, j] is
    ``l(y_i, y'_j) <s_i, s'_j> + trace + <s_i, grad_y' l> + <s'_j, grad_y l>``.
    """
    value, grad_y, grad_y2, trace = l.bundle_matrices(targets1, targets2)
    inner = scores1 @ scores2.T
    cross1 = np.einsum("ia,ija->ij", scores1, grad_y2)
    cross2 = np.einsum("ja,ija->ij", scores2, grad_y)
    return value * inner + trace + cross1 + cross2


def h_term(l: ScalarKernel, p, y: np.ndarray, p2, y2: np.ndarray) -> float:
    """Single Stein term between (p, y) and (p', y')."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    s1 = score_matrix([p], y[None, :])
    s2 = score_matrix([p2], y2[None, :])
    return float(h_matrix_between(l, s1, y[None, :], s2, y2[None, :])[0, 0])


def h_matrix(l: ScalarKernel, pairs: Dataset) -> np.ndarray:
    """Full symmetric matrix of Stein terms for a dataset (diagonal included)."""
    targets = dataset_targets(pairs)
    scores = score_matrix(dataset_models(pairs), targets)
    return h_matrix_between(l, scores, targets, scores, targets)


def kccsd_stat_matrix(k_gram: np.ndarray, l: ScalarKernel, pairs: Dataset) -> StatMatrix:
    """Distribution-kernel-weighted Stein terms: entries k(p_i, p_j) h_ij."""
    k_gram = np.asarray(k_gram, dtype=float)
    n = len(pairs)
    if k_gram.shape != (n, n):
        raise ValueError(f"gram matrix shape {k_gram.shape} does not match {n} pairs")
    entries = k_gram * h_matrix(l, pairs)
    np.fill_diagonal(entries, 0.0)
    return StatMatrix(entries)


def u_statistic(matrix: Union[StatMatrix, np.ndarray]) -> float:
    """Unbiased off-diagonal average 2/(n(n-1)) sum_{i<j} M_ij."""
    entries = matrix.entries if isinstance(matrix, StatMatrix) else np.asarray(matrix, dtype=float)
    n = entries.shape[0]
    if n < 2:
        raise ValueError("the U-statistic needs at least two samples")
    iu = np.triu_indices(n, k=1)
    return float(2.0 * np.sum(entries[iu]) / (n * (n - 1)))


# ---------------------------------------------------------------------------
# Calibration-error terms with pluggable expectation strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormGaussian:
    """Exact expectations; needs Gaussian target kernel and Gaussian models."""


@dataclass(frozen=True)
class ExactSampler:
    """Plug-in sample means with a fresh batch per expectation term."""

    num_samples: int

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")


@dataclass(frozen=True)
class MalaSampler:
    """Expectations from short MALA chains, one chain per model and batch.

    The chains of one batch run in lock step as a single (n, d) state. They
    start at the model mean plus unit noise (at the origin plus unit noise for
    score-only densities). Untuned step sizes and short chains are allowed on
    purpose; they are the failure mode this strategy exists to exhibit.
    """

    num_samples: int
    config: MalaConfig

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")


ExpectationStrategy = Union[ClosedFormGaussian, ExactSampler, MalaSampler]

_BATCH_LABELS = ("batch-a", "batch-b", "batch-c", "batch-d")


def _draw_exact(model, m: int, stream: RandomStream) -> np.ndarray:
    scored = as_scored(model)
    if scored.sampler is None:
        raise CapabilityError("the exact-sampler strategy needs a sampler on every model")
    return np.asarray(scored.sampler(m, stream), dtype=float)


def _mala_batches(models, strategy: MalaSampler, stream: RandomStream) -> list[np.ndarray]:
    """One lock-step run per batch label; chain i targets models[i]."""
    if is_gaussian_models(models):
        centers, variances = stack_gaussians(models)
        target = gaussian_rows(centers, variances)
    else:
        target = row_density(models)
        centers = np.stack([m.mean if isinstance(m, DiagonalGaussian) else np.zeros(target.dim)
                            for m in models])
    batches = []
    for label in _BATCH_LABELS:
        child = stream.derive(label)
        init = centers + child.derive("init").generator().standard_normal(centers.shape)
        run = run_mala(target, strategy.config, init, strategy.num_samples, child.derive("chain"))
        batches.append(run.samples)
    return batches


def _strategy_batches(models, strategy, stream: RandomStream) -> list[np.ndarray]:
    """Four independent (n, m, d) sample batches per model, one per term."""
    if isinstance(strategy, MalaSampler):
        return _mala_batches(models, strategy, stream)
    return [np.stack([_draw_exact(model, strategy.num_samples, stream.derive(label, i))
                      for i, model in enumerate(models)])
            for label in _BATCH_LABELS]


def _closed_form_bracket(l: ScalarKernel, pairs: Dataset) -> np.ndarray:
    if not isinstance(l, GaussianKernel):
        raise UnsupportedKernelError("closed-form expectations need a Gaussian target kernel")
    models = dataset_models(pairs)
    if not is_gaussian_models(models):
        raise CapabilityError("closed-form expectations need diagonal Gaussian models")
    targets = dataset_targets(pairs)
    means, variances = stack_gaussians(models)
    value = l.gram(targets)
    single = single_expectation_gram(means, variances, targets, l.bandwidth)
    double = double_expectation_gram(means, variances, l.bandwidth)
    return value - single - single.T + double


def _sampled_bracket(l: ScalarKernel, pairs: Dataset, strategy, stream: RandomStream) -> np.ndarray:
    models = dataset_models(pairs)
    targets = dataset_targets(pairs)
    batch_a, batch_b, batch_c, batch_d = _strategy_batches(models, strategy, stream)
    n, m, d = batch_a.shape
    value = l.gram(targets)
    # term2[i, j] = mean_k l(A_i^k, y_j); term3[i, j] = mean_k l(y_i, B_j^k)
    term2 = l.gram(batch_a.reshape(n * m, d), targets).reshape(n, m, n).mean(axis=1)
    term3 = l.gram(batch_b.reshape(n * m, d), targets).reshape(n, m, n).mean(axis=1).T
    cross = l.gram(batch_c.reshape(n * m, d), batch_d.reshape(n * m, d))
    term4 = cross.reshape(n, m, n, m).mean(axis=(1, 3))
    return value - term2 - term3 + term4


def skce_stat_matrix(k_gram: np.ndarray, l: ScalarKernel, pairs: Dataset,
                     strategy: ExpectationStrategy,
                     stream: Optional[RandomStream] = None) -> StatMatrix:
    """Calibration-error terms k(p_i, p_j) [l - E l - E l + E E l] per pair.

    Sampled strategies evaluate each unordered pair once (the upper triangle)
    and mirror it, so the matrix stays symmetric and each term unbiased.
    """
    k_gram = np.asarray(k_gram, dtype=float)
    n = len(pairs)
    if k_gram.shape != (n, n):
        raise ValueError(f"gram matrix shape {k_gram.shape} does not match {n} pairs")
    if isinstance(strategy, ClosedFormGaussian):
        bracket = _closed_form_bracket(l, pairs)
    else:
        if stream is None:
            raise ValueError("sampled expectation strategies need a random stream")
        bracket = _sampled_bracket(l, pairs, strategy, stream)
    entries = k_gram * bracket
    upper = np.triu(entries, k=1)
    return StatMatrix(upper + upper.T)


def skce_g_term(k_dist: float, l: ScalarKernel, p, y: np.ndarray, p2, y2: np.ndarray,
                strategy: ExpectationStrategy,
                stream: Optional[RandomStream] = None) -> float:
    """Single calibration-error term for the tensor-product kernel k_dist * l."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    if isinstance(strategy, ClosedFormGaussian):
        if not isinstance(l, GaussianKernel):
            raise UnsupportedKernelError("closed-form expectations need a Gaussian target kernel")
        if not (isinstance(p, DiagonalGaussian) and isinstance(p2, DiagonalGaussian)):
            raise CapabilityError("closed-form expectations need diagonal Gaussian models")
        bracket = (l(y, y2)
                   - gaussian_kernel_single_expectation(p, y2, l.bandwidth)
                   - gaussian_kernel_single_expectation(p2, y, l.bandwidth)
                   + gaussian_kernel_double_expectation(p, p2, l.bandwidth))
        return float(k_dist) * bracket
    if stream is None:
        raise ValueError("sampled expectation strategies need a random stream")
    matrix = skce_stat_matrix(np.full((2, 2), float(k_dist)), l, [(p, y), (p2, y2)],
                              strategy, stream)
    return float(matrix.entries[0, 1])


# ---------------------------------------------------------------------------
# Wild bootstrap and the full test
# ---------------------------------------------------------------------------

def wild_bootstrap(matrix: Union[StatMatrix, np.ndarray], n_bootstrap: int, alpha: float,
                   stream: RandomStream) -> tuple[float, float]:
    """Rademacher wild bootstrap of the degenerate U-statistic.

    Returns the empirical (1 - alpha) quantile (order statistic at the
    1-based index ceil((1 - alpha) B)) and the p-value
    (1 + #{b : B_b >= statistic}) / (B + 1).
    """
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    entries = matrix.entries if isinstance(matrix, StatMatrix) else np.asarray(matrix, dtype=float)
    entries = entries.copy()
    np.fill_diagonal(entries, 0.0)
    n = entries.shape[0]
    statistic = u_statistic(entries)

    rng = stream.generator()
    signs = np.where(rng.random((n_bootstrap, n)) < 0.5, -1.0, 1.0)
    replicates = np.einsum("bi,bi->b", signs @ entries, signs) / (n * (n - 1))

    order = np.sort(replicates)
    rank = min(n_bootstrap, max(1, math.ceil((1.0 - alpha) * n_bootstrap)))
    quantile = float(order[rank - 1])
    p_value = float((1 + np.count_nonzero(replicates >= statistic)) / (n_bootstrap + 1))
    return quantile, p_value


@dataclass(frozen=True)
class TestResult:
    statistic: float
    quantile: float
    p_value: float
    reject: bool
    alpha: float
    bootstrap_count: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "quantile": self.quantile,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "bootstrap_count": self.bootstrap_count,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class KCCSD:
    """Score-based calibration statistic; no expectations against the models."""

    name = "kccsd"


@dataclass(frozen=True)
class SKCE:
    """Kernel calibration error with a pluggable expectation strategy."""

    strategy: ExpectationStrategy

    name = "skce"


StatisticSpec = Union[KCCSD, SKCE]


def run_calibration_test(pairs: Dataset, dist_kernel: DistributionKernel,
                         target_kernel: ScalarKernel, statistic: StatisticSpec,
                         alpha: float, n_bootstrap: int,
                         stream: RandomStream) -> TestResult:
    """Run one calibration test: Gram matrix, pairwise terms, bootstrap verdict.

    Base samples for the distribution kernel are drawn once and shared by all
    Gram entries. Rejects when the statistic reaches the bootstrap quantile.
    """
    if len(pairs) < 2:
        raise ValueError("the calibration test needs at least two pairs")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    models = dataset_models(pairs)
    k_gram = dist_kernel.gram(models, stream.derive("base"))
    if isinstance(statistic, KCCSD):
        matrix = kccsd_stat_matrix(k_gram, target_kernel, pairs)
    elif isinstance(statistic, SKCE):
        label = "mala" if isinstance(statistic.strategy, MalaSampler) else "sampler"
        matrix = skce_stat_matrix(k_gram, target_kernel, pairs, statistic.strategy,
                                  stream.derive(label))
    else:
        raise TypeError(f"unknown statistic spec {statistic!r}")
    value = u_statistic(matrix)
    quantile, p_value = wild_bootstrap(matrix, n_bootstrap, alpha, stream.derive("bootstrap"))
    return TestResult(
        statistic=value,
        quantile=quantile,
        p_value=p_value,
        reject=bool(value >= quantile),
        alpha=alpha,
        bootstrap_count=n_bootstrap,
        seed=stream.seed,
    )

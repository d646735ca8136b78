"""Stein-type and calibration-error U-statistics, wild bootstrap, test runner.

Both statistics share one shape: a symmetric matrix of pairwise kernel terms
whose off-diagonal average is the test statistic, with null quantiles from a
Rademacher wild bootstrap of the same matrix.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .kernels import (
    DistanceBlocks,
    DistributionKernel,
    GaussianKernel,
    ScalarKernel,
    UnsupportedKernelError,
    distance_weights,
    expectation_tiles,
    mirrored_rows,
    row_blocks,
    squared_distance_rows,
)
from .models import Dataset, GaussianBatch, ModelBatch, require_finite
from .sampling import CapabilityError, MalaConfig, RandomStream, run_mala


# ---------------------------------------------------------------------------
# Stein-type pairwise terms
# ---------------------------------------------------------------------------

def _stein_rows(l: ScalarKernel, scores: np.ndarray, targets: np.ndarray):
    """The pairwise Stein terms of one stack of (score, target) rows above the diagonal
    on demand: a function ``rows(start, stop)`` that forms the (stop - start, n - start)
    block of rows [start, stop) and columns [start, n), as :func:`_bracket_rows` does for
    SKCE.

    Entry [i, j] is ``l(y_i, y_j) <s_i, s_j> + trace + <s_i, grad_{y_j} l>
    + <s_j, grad_{y_i} l>``, where ``trace`` is the trace of the mixed second derivative
    of l. For l = f(||y - y'||^2) that is ``f <s_i, s_j> - 4 ||y_i - y_j||^2 f''
    + 2 f' (<s_j, y_i> - <s_j, y_j> - <s_i, y_i> + <s_i, y_j> - d)``, so every term is a
    product of the block's rows and columns and no (rows, n, d) tensor is formed. The
    bracket is invariant to a shift of the targets; they are centred first.

    Each block temporary goes as soon as it is used up. The score product is a plain
    matrix product: its right operand is a copy of the scores, so numpy never runs it
    as a symmetric rank-k update.
    """
    scores, targets = np.asarray(scores, dtype=float), np.asarray(targets, dtype=float)
    other = scores.copy()
    n, d = targets.shape
    sq_rows = squared_distance_rows(targets)
    y = targets - targets.mean(axis=0)
    # 2 (<s_i, y_j> + <y_i, s_j> - <s_i, y_i> - d - <s_j, y_j>) as one product
    inner = np.einsum("ia,ia->i", scores, y)[:, None]
    left = 2.0 * np.hstack([scores, y, -(inner + d), np.ones((n, 1))])
    right = np.hstack([y, scores, np.ones((n, 1)), -inner])

    def rows(start, stop):
        # ordered so that between steps at most three block-sized arrays are alive
        sq = sq_rows(start, stop, start)
        value = l._f(sq)
        f2 = l._f2(value)
        f2 *= sq
        f2 *= 4.0
        del sq
        block = scores[start:stop] @ other[start:].T
        block *= value
        block -= f2
        del f2
        f1 = l._f1(value)
        del value
        bracket = left[start:stop] @ right[start:].T
        bracket *= f1
        del f1
        block += bracket
        return block
    return rows


def _statistic_matrix(k_gram: np.ndarray, data: Dataset, pair_rows) -> np.ndarray:
    """The (n, n) statistic matrix of entries k(p_i, p_j) t_ij, with a zero diagonal,
    from the row blocks above the diagonal that a test streams, mirrored
    (:func:`steincal.kernels.mirrored_rows`): so each unordered pair is formed once and
    the matrix is exactly symmetric.
    ``pair_rows(data)`` makes the pair-row function of the pair terms t once the
    Gram's shape is checked, so a mismatch raises before any sampling."""
    n = len(data)
    k_gram = np.asarray(k_gram, dtype=float)
    if k_gram.shape != (n, n):
        raise ValueError(f"gram matrix shape {k_gram.shape} does not match {n} pairs")
    rows = pair_rows(data)
    return mirrored_rows(n, lambda start, stop, out: np.multiply(
        k_gram[start:stop, start:], rows(start, stop), out=out))


def kccsd_stat_matrix(k_gram: np.ndarray, l: ScalarKernel, data: Dataset) -> np.ndarray:
    """Distribution-kernel-weighted Stein terms: the (n, n) matrix of entries
    k(p_i, p_j) h_ij, with a zero diagonal (see :func:`_statistic_matrix`)."""
    return _statistic_matrix(k_gram, data, lambda data: _stein_rows(
        l, data.models.rows().score_batch(data.targets), data.targets))


def _statistic_entries(matrix) -> np.ndarray:
    """A statistic matrix as a float array, checked where it is read: square,
    at least 2 x 2 and finite."""
    entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("the statistic matrix must be square")
    if entries.shape[0] < 2:
        raise ValueError("the U-statistic needs at least two samples")
    return require_finite(entries, "statistic matrix")


def u_statistic(matrix: np.ndarray) -> float:
    """Unbiased off-diagonal average 1/(n(n-1)) sum_{i != j} M_ij."""
    entries = _statistic_entries(matrix)
    n = entries.shape[0]
    return float((np.sum(entries) - np.trace(entries)) / (n * (n - 1)))


# ---------------------------------------------------------------------------
# Calibration-error terms with pluggable expectation strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormGaussian:
    """Exact expectations; needs Gaussian target kernel and Gaussian models."""


@dataclass(frozen=True)
class ExactSampler:
    """Plug-in sample means with a fresh batch per expectation term: one
    (n, num_samples, d) draw per batch label from ``stream.derive(label)``."""

    num_samples: int

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")


@dataclass(frozen=True)
class MalaSampler:
    """Expectations from short MALA chains, one chain per model and batch.

    The chains of all four batches run in lock step as a single (4n, d) state, a
    group of n chains per batch with its own stream (see :func:`run_mala`). They
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


def _strategy_batches(models: ModelBatch, strategy, stream: RandomStream) -> list[np.ndarray]:
    """Four independent (n, m, d) sample batches, one per term and batch label. MALA
    runs the four batches as one lock-step state of 4n chains against
    ``models.copies(4)``: chain c n + i targets model i, and its group c draws from
    the stream of label c, so each batch holds the bytes of its own run."""
    if not isinstance(strategy, MalaSampler):
        return [models.sample(strategy.num_samples, stream.derive(label))
                for label in _BATCH_LABELS]
    children = [stream.derive(label) for label in _BATCH_LABELS]
    centers = models.centers()
    init = np.concatenate([centers + child.derive("init").generator().standard_normal(
        centers.shape) for child in children])
    run = run_mala(models.copies(len(children)).rows(), strategy.config, init,
                   strategy.num_samples, [child.derive("chain") for child in children])
    return list(run.samples.reshape(len(children), len(models), *run.samples.shape[1:]))


def _bracket_rows(l: ScalarKernel, data: Dataset, strategy,
                  stream: Optional[RandomStream]):
    """Rows of the calibration-error bracket l - E l - E l + E E l above the diagonal on
    demand: a function ``rows(start, stop)`` that forms the (stop - start, n - start)
    block of rows [start, stop) and columns [start, n). Entries on and below the
    diagonal are finite but hold no pair's bracket.

    The sample batches, or the models' parameters, are fixed once. Each expectation
    term is a tile source (:meth:`~steincal.kernels.ScalarKernel.mean_gram_tiles` of the
    batches, or :func:`steincal.kernels.expectation_tiles` in closed form, where terms 2
    and 3 are both E l(z, y)), formed a tile at a time for the block's pairs only: each
    run of rows of a term forms its columns on its side of the diagonal only (``upper``,
    or ``lower`` for the term formed with B's models as rows), and each tile is combined
    into the block in the order of the bracket as soon as it is formed.
    """
    targets = data.targets
    n = len(targets)
    target_rows = squared_distance_rows(targets)
    if isinstance(strategy, ClosedFormGaussian):
        if not isinstance(l, GaussianKernel):
            raise UnsupportedKernelError("closed-form expectations need a Gaussian target kernel")
        models = data.models
        if not isinstance(models, GaussianBatch):
            raise CapabilityError("closed-form expectations need diagonal Gaussian models")
        means, variances = models.means, models.variances
        term2 = term3 = expectation_tiles(means, variances, l.bandwidth, targets)
        term4 = expectation_tiles(means, variances, l.bandwidth, means, variances)
    else:
        if stream is None:
            raise ValueError("sampled expectation strategies need a random stream")
        batch_a, batch_b, batch_c, batch_d = _strategy_batches(data.models, strategy, stream)
        m, d = batch_a.shape[1:]
        term2 = l.mean_gram_tiles(batch_a.reshape(n * m, d), m, targets, 1)
        term3 = l.mean_gram_tiles(batch_b.reshape(n * m, d), m, targets, 1)
        term4 = l.mean_gram_tiles(batch_c.reshape(n * m, d), m, batch_d.reshape(n * m, d), m)

    def bracket(start, stop):
        sq = target_rows(start, stop, start)
        value = l._f(sq, out=sq)
        # term2[i, j] = E l(z_i, y_j); term3[i, j] = E l(y_i, z'_j), formed with B's
        # models as rows, through value.T
        for rows, columns, term in term2(start, stop, start, upper=True):
            value[rows, columns] -= term
        for rows, columns, term in term3(start, n, start, stop, lower=True):
            value.T[rows, columns] -= term
        for rows, columns, term in term4(start, stop, start, upper=True):
            value[rows, columns] += term
        return value
    return bracket


def skce_stat_matrix(k_gram: np.ndarray, l: ScalarKernel, data: Dataset,
                     strategy: ExpectationStrategy,
                     stream: Optional[RandomStream] = None) -> np.ndarray:
    """Calibration-error terms k(p_i, p_j) [l - E l - E l + E E l] per pair, with a
    zero diagonal (see :func:`_statistic_matrix`); each pair's sampled terms are drawn
    once, so each is unbiased."""
    return _statistic_matrix(k_gram, data,
                             lambda data: _bracket_rows(l, data, strategy, stream))


# ---------------------------------------------------------------------------
# Wild bootstrap and the full test
# ---------------------------------------------------------------------------

def _check_bootstrap(n_bootstrap: int, alpha: float) -> None:
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _upper_bootstrap(n: int, blocks, n_bootstrap: int, alpha: float,
                     stream: RandomStream) -> tuple[float, float, float]:
    """The wild bootstrap of :func:`wild_bootstrap` on a statistic matrix given by its
    row blocks above the diagonal: ``(start, stop, block)`` for the cuts of
    ``row_blocks(n, n)``, with ``block`` the rows [start, stop) and columns [start, n),
    zero on and below the diagonal.

    Each block adds its share ``2 sum_{i<j} s_i s_j M_ij`` to the B + 1 sums as one
    (B + 1, n - start) x (n - start, rows) product and a row dot. The signs and the
    products share one allocation, made once the first block is formed, so that the
    first block's temporaries and the signs are never held together; the uniforms
    are drawn straight into the sign rows.
    """
    widest = max(stop - start for start, stop in row_blocks(n, n))
    signs = None
    sums = np.zeros(n_bootstrap + 1)
    for start, stop, block in blocks:
        if signs is None:
            work = np.empty((n_bootstrap + 1) * (n + widest))
            signs = work[:(n_bootstrap + 1) * n].reshape(n_bootstrap + 1, n)
            signs[0] = 1.0
            draws = signs[1:]
            stream.generator().random(out=draws)
            # -1 where u < 0.5; u = 0.5 gives +0.0 and so +1
            draws -= 0.5
            np.copysign(1.0, draws, out=draws)
            products = work[signs.size:]
        part = products[:(n_bootstrap + 1) * (stop - start)].reshape(n_bootstrap + 1, -1)
        np.matmul(signs[:, start:], block.T, out=part)
        del block  # before the next block is formed
        sums += np.einsum("bi,bi->b", part, signs[:, start:stop])
    values = 2.0 * sums / (n * (n - 1))
    statistic, replicates = float(values[0]), values[1:]

    rank = min(n_bootstrap, max(1, math.ceil((1.0 - alpha) * n_bootstrap)))
    quantile = float(np.partition(replicates, rank - 1)[rank - 1])
    p_value = float((1 + np.count_nonzero(replicates >= statistic)) / (n_bootstrap + 1))
    return statistic, quantile, p_value


def _zero_lower(block: np.ndarray) -> np.ndarray:
    """A row block [start, stop) x [start, n) with its entries on and below the diagonal
    set to 0; the block is returned."""
    rows = len(block)
    block[:, :rows][np.tri(rows, dtype=bool)] = 0.0
    return block


def wild_bootstrap(matrix: np.ndarray, n_bootstrap: int, alpha: float,
                   stream: RandomStream) -> tuple[float, float, float]:
    """Rademacher wild bootstrap of the degenerate U-statistic.

    Returns the statistic (the off-diagonal average), the empirical
    (1 - alpha) quantile (order statistic at the 1-based index
    ceil((1 - alpha) B)) and the p-value (1 + #{b : B_b >= statistic}) / (B + 1).
    The statistic is the replicate of the all-ones sign vector, computed in
    the same products as the B replicates, so a replicate whose signs are all
    equal ties with it exactly and counts towards the p-value.

    The matrix is read a row block at a time above the diagonal, as
    ``(M_ij + M_ji) / 2``: that is M itself for a symmetric matrix, and the same
    quadratic forms for any square one.
    """
    _check_bootstrap(n_bootstrap, alpha)
    entries = _statistic_entries(matrix)
    n = entries.shape[0]

    def blocks():
        for start, stop in row_blocks(n, n):
            block = entries[start:stop, start:] + entries[start:, start:stop].T
            block *= 0.5
            yield start, stop, _zero_lower(block)
    return _upper_bootstrap(n, blocks(), n_bootstrap, alpha, stream)


def _statistic_blocks(distances: DistanceBlocks, sigma: float, pair_rows):
    """Row blocks of a statistic matrix k(p_i, p_j) t_ij above the diagonal, as
    :func:`_upper_bootstrap` reads them. ``pair_rows(start, stop)`` forms the pair terms
    t of rows [start, stop) and columns [start, n): the Stein terms of KCCSD or the
    bracket of SKCE. Each unordered pair is formed once, from its term and the weight
    of its squared distance (:func:`steincal.kernels.distance_weights`), and nothing
    larger than a row block is held."""
    for start, stop in row_blocks(distances.n, distances.n):
        block = pair_rows(start, stop)
        block *= distance_weights(distances.block(start, stop), sigma)
        yield start, stop, require_finite(_zero_lower(block), "statistic matrix")
        del block  # before the next block is formed


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest test class

    statistic: float
    quantile: float
    p_value: float
    reject: bool
    alpha: float
    bootstrap_count: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def run_calibration_test(data: Dataset, dist_kernel: DistributionKernel,
                         target_kernel: ScalarKernel, statistic: StatisticSpec,
                         alpha: float, n_bootstrap: int,
                         stream: RandomStream) -> TestResult:
    """Run one calibration test: Gram entries, pairwise terms, bootstrap verdict.

    Base samples for the distribution kernel are drawn once and shared by all
    Gram entries. Rejects when the statistic reaches the bootstrap quantile.
    A test holds no (n, n) array beyond one row block: its Gram entries, pair terms
    (Stein terms or calibration brackets) and bootstrap sums are formed together, a
    row block above the diagonal at a time, after a first pass over the distances
    when ``sigma`` is the median.
    """
    if len(data) < 2:
        raise ValueError("the calibration test needs at least two pairs")
    _check_bootstrap(n_bootstrap, alpha)
    if not isinstance(statistic, (KCCSD, SKCE)):
        raise TypeError(f"unknown statistic spec {statistic!r}")
    distances = dist_kernel.distance_blocks(data.models, stream.derive("base"))
    sigma = dist_kernel.bandwidth(distances)
    if isinstance(statistic, KCCSD):
        pair_rows = _stein_rows(target_kernel, data.models.rows().score_batch(data.targets),
                                data.targets)
    else:
        label = "mala" if isinstance(statistic.strategy, MalaSampler) else "sampler"
        pair_rows = _bracket_rows(target_kernel, data, statistic.strategy, stream.derive(label))
    value, quantile, p_value = _upper_bootstrap(
        len(data), _statistic_blocks(distances, sigma, pair_rows), n_bootstrap, alpha,
        stream.derive("bootstrap"))
    return TestResult(
        statistic=value,
        quantile=quantile,
        p_value=p_value,
        reject=bool(value >= quantile),
        alpha=alpha,
        bootstrap_count=n_bootstrap,
        seed=stream.seed,
    )

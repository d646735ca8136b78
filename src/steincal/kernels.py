"""Kernels on the target space and on probability densities.

The scalar kernels carry the analytic derivative bundle (value, both
gradients, mixed-derivative trace) that the Stein-type statistic consumes.
The distribution kernels are exponentiated Hilbertian metrics; their Gram
matrices stay positive semi-definite because every pairwise distance within
one matrix is estimated against a single shared set of base samples.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import (
    DiagonalGaussian,
    is_gaussian_models,
    require_finite,
    score_tensor,
    stack_gaussians,
)
from .sampling import CapabilityError, RandomStream

_PAIR_CHUNK = 8192


class DegenerateBandwidthError(ValueError):
    """A bandwidth heuristic collapsed to zero."""


class UnsupportedKernelError(ValueError):
    """The requested kernel/model combination has no implementation."""


# ---------------------------------------------------------------------------
# Scalar kernels on the target space
# ---------------------------------------------------------------------------

class ScalarKernel(ABC):
    """Radial kernel l(y, y') = f(||y - y'||^2) with analytic derivatives."""

    name: str

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.bandwidth = float(bandwidth)

    @abstractmethod
    def _f(self, sq: np.ndarray) -> np.ndarray:
        """Kernel profile as a function of the squared distance."""

    @abstractmethod
    def _f1(self, sq: np.ndarray) -> np.ndarray:
        """First derivative of the profile."""

    @abstractmethod
    def _f2(self, sq: np.ndarray) -> np.ndarray:
        """Second derivative of the profile."""

    def __call__(self, y: np.ndarray, y2: np.ndarray) -> float:
        y, y2 = _check_pair(y, y2)
        return float(self._f(np.sum((y - y2) ** 2)))

    def gram(self, points: np.ndarray, points2: Optional[np.ndarray] = None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        points2 = points if points2 is None else np.atleast_2d(np.asarray(points2, dtype=float))
        diff = points[:, None, :] - points2[None, :, :]
        return self._f(np.sum(diff ** 2, axis=-1))

    def bundle(self, y: np.ndarray, y2: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        """Value, grad wrt y, grad wrt y', and the mixed-derivative trace at (y, y')."""
        y, y2 = _check_pair(y, y2)
        value, g1, g2, tr = self.bundle_matrices(y[None, :], y2[None, :])
        return float(value[0, 0]), g1[0, 0], g2[0, 0], float(tr[0, 0])

    def bundle_matrices(self, points: np.ndarray, points2: np.ndarray):
        """Pairwise bundle between two stacks of points.

        Returns (value (n1,n2), grad_y (n1,n2,d), grad_y' (n1,n2,d),
        mixed_trace (n1,n2)) where entry [i, j] is evaluated at
        (points[i], points2[j]).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        points2 = np.atleast_2d(np.asarray(points2, dtype=float))
        if points.shape[1] != points2.shape[1]:
            raise ValueError("point stacks have mismatched dimensions")
        d = points.shape[1]
        diff = points[:, None, :] - points2[None, :, :]
        sq = np.sum(diff ** 2, axis=-1)
        value = self._f(sq)
        f1 = self._f1(sq)
        f2 = self._f2(sq)
        # l = f(||y - y'||^2): grad_y = 2 f' diff, grad_y' = -grad_y,
        # sum_a d^2 l / dy_a dy'_a = -2 d f' - 4 ||y - y'||^2 f''
        grad_y = 2.0 * f1[..., None] * diff
        grad_y2 = -grad_y
        mixed_trace = -2.0 * d * f1 - 4.0 * sq * f2
        return value, grad_y, grad_y2, mixed_trace


class GaussianKernel(ScalarKernel):
    """l(y, y') = exp(-||y - y'||^2 / (2 gamma^2))."""

    name = "gaussian"

    def _f(self, sq):
        return np.exp(-sq / (2.0 * self.bandwidth ** 2))

    def _f1(self, sq):
        return -self._f(sq) / (2.0 * self.bandwidth ** 2)

    def _f2(self, sq):
        return self._f(sq) / (4.0 * self.bandwidth ** 4)


class IMQKernel(ScalarKernel):
    """l(y, y') = (1 + ||y - y'||^2 / gamma^2)^(-1)."""

    name = "imq"

    def _f(self, sq):
        return 1.0 / (1.0 + sq / self.bandwidth ** 2)

    def _f1(self, sq):
        return -self._f(sq) ** 2 / self.bandwidth ** 2

    def _f2(self, sq):
        return 2.0 * self._f(sq) ** 3 / self.bandwidth ** 4


def scalar_bundle(l: ScalarKernel, y: np.ndarray, y2: np.ndarray):
    return l.bundle(y, y2)


def scalar_kernel(family: str, bandwidth: float) -> ScalarKernel:
    if family == "gaussian":
        return GaussianKernel(bandwidth)
    if family == "imq":
        return IMQKernel(bandwidth)
    raise UnsupportedKernelError(f"unknown scalar kernel family {family!r}")


def _check_pair(y, y2):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    if y.shape != y2.shape:
        raise ValueError(f"points have mismatched dimensions {y.shape} vs {y2.shape}")
    return y, y2


# ---------------------------------------------------------------------------
# Closed-form Gaussian expectations of the Gaussian kernel
# ---------------------------------------------------------------------------

def gaussian_kernel_single_expectation(g: DiagonalGaussian, y: np.ndarray, gamma: float) -> float:
    """E_{z ~ g} exp(-||z - y||^2 / (2 gamma^2)) for a diagonal Gaussian g."""
    y = g._check_point(y)
    return float(_smoothed_values(g.mean[None, :], g.var[None, :], y[None, :], gamma)[0, 0])


def gaussian_kernel_double_expectation(g: DiagonalGaussian, g2: DiagonalGaussian, gamma: float) -> float:
    """E_{z ~ g, z' ~ g2} exp(-||z - z'||^2 / (2 gamma^2))."""
    if g.dim != g2.dim:
        raise ValueError("models have mismatched dimensions")
    return float(_smoothed_values(g.mean[None, :], g.var[None, :] + g2.var[None, :],
                                  g2.mean[None, :], gamma)[0, 0])


def _smoothed_values(means: np.ndarray, variances: np.ndarray, points: np.ndarray, gamma: float) -> np.ndarray:
    # exp of sum_a [ -log(1 + v_a/g^2)/2 - (mu_a - y_a)^2 / (2 (g^2 + v_a)) ], broadcast (n, m)
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    g2 = gamma ** 2
    denom = g2 + variances  # (n, d)
    quad = (means[:, None, :] - points[None, :, :]) ** 2 / (2.0 * denom[:, None, :])
    logs = 0.5 * np.log1p(variances / g2)
    return np.exp(-np.sum(quad, axis=-1) - np.sum(logs, axis=-1)[:, None])


def single_expectation_gram(means, variances, points, gamma) -> np.ndarray:
    """Matrix [i, j] = E_{z ~ N(means[i], variances[i])} l(z, points[j]) for Gaussian l."""
    return _smoothed_values(np.asarray(means, float), np.asarray(variances, float),
                            np.asarray(points, float), gamma)


def double_expectation_gram(means, variances, gamma) -> np.ndarray:
    """Matrix [i, j] = E_{z ~ model i, z' ~ model j} l(z, z') for Gaussian l."""
    means = np.asarray(means, float)
    variances = np.asarray(variances, float)
    g2 = gamma ** 2
    denom = g2 + variances[:, None, :] + variances[None, :, :]
    quad = (means[:, None, :] - means[None, :, :]) ** 2 / (2.0 * denom)
    logs = 0.5 * np.log(denom / g2)
    return np.exp(-np.sum(quad + logs, axis=-1))


# ---------------------------------------------------------------------------
# Score-difference divergences
# ---------------------------------------------------------------------------

def _scores_at(model, points: np.ndarray) -> np.ndarray:
    return score_tensor([model], points)[0]


def gfd_estimate(p, q, base_samples: np.ndarray) -> float:
    """Mean squared norm of the score difference over the base samples."""
    base_samples = np.atleast_2d(np.asarray(base_samples, dtype=float))
    diff = _scores_at(p, base_samples) - _scores_at(q, base_samples)
    return float(np.mean(np.sum(diff ** 2, axis=1)))


def gfd_gaussian_closed(p: DiagonalGaussian, q: DiagonalGaussian) -> float:
    """Closed form of the score divergence under a standard Gaussian base measure.

    With A = diag(1/var_q - 1/var_p) and b = mu_p/var_p - mu_q/var_q the score
    difference is A x + b, so the expectation over x ~ N(0, I) is
    ||A||_F^2 + ||b||^2.
    """
    if p.dim != q.dim:
        raise ValueError("models have mismatched dimensions")
    a = 1.0 / q.var - 1.0 / p.var
    b = p.mean / p.var - q.mean / q.var
    return float(np.sum(a ** 2) + np.sum(b ** 2))


def kgfd_estimate(p, q, base_samples: np.ndarray, ground: ScalarKernel) -> float:
    """Kernel-smoothed score divergence estimate over shared base samples."""
    base_samples = np.atleast_2d(np.asarray(base_samples, dtype=float))
    m = base_samples.shape[0]
    diff = _scores_at(p, base_samples) - _scores_at(q, base_samples)
    w = ground.gram(base_samples)
    return float(np.sum(w * (diff @ diff.T)) / m ** 2)


# ---------------------------------------------------------------------------
# Distribution kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseMeasure:
    """Base measure for the score divergences: standard Gaussian or frozen samples."""

    dim: int
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.samples is not None:
            samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
            if samples.shape[0] < 1 or samples.shape[1] != self.dim:
                raise ValueError("frozen base samples must be a nonempty (m, dim) array")
            object.__setattr__(self, "samples", samples)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @classmethod
    def standard_gaussian(cls, dim: int) -> "BaseMeasure":
        return cls(dim=dim)

    @classmethod
    def frozen(cls, samples: np.ndarray) -> "BaseMeasure":
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return cls(dim=samples.shape[1], samples=samples)

    def draw(self, m: int, stream: RandomStream) -> np.ndarray:
        """Frozen samples if present, otherwise m fresh standard-normal points."""
        if self.samples is not None:
            return self.samples
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return stream.generator().standard_normal((m, self.dim))


class DistributionKernel(ABC):
    """Exponentiated Hilbertian metric on densities: exp(-d^2 / (2 sigma^2)).

    ``sigma`` may be None, in which case each Gram matrix picks it by the
    median heuristic on the pairwise Hilbertian distances it just estimated.
    """

    name: str

    def __init__(self, sigma: Optional[float]):
        if sigma is not None and sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.sigma = sigma

    @abstractmethod
    def squared_distances(self, models: Sequence, stream: Optional[RandomStream]) -> np.ndarray:
        """Symmetric matrix of estimated squared Hilbertian distances."""

    def gram(self, models: Sequence, stream: Optional[RandomStream] = None) -> np.ndarray:
        if len(models) == 1:
            return np.ones((1, 1))
        sq = require_finite(self.squared_distances(models, stream), "squared distance")
        sigma = self.sigma
        if sigma is None:
            sigma = _median_of_distances(np.sqrt(sq))
        out = np.exp(-sq / (2.0 * sigma ** 2))
        out = 0.5 * (out + out.T)
        np.fill_diagonal(out, 1.0)
        return out

    def _require_sigma(self) -> float:
        if self.sigma is None:
            raise ValueError("pairwise evaluation needs an explicit sigma; "
                             "the median policy is resolved per Gram matrix")
        return self.sigma


class ExpGFDKernel(DistributionKernel):
    """exp(-GFD/(2 sigma^2)) with the score divergence estimated on base samples."""

    name = "exp_gfd"

    def __init__(self, sigma: Optional[float], base: BaseMeasure, num_base_samples: int = 10):
        super().__init__(sigma)
        if num_base_samples < 1:
            raise ValueError(f"num_base_samples must be >= 1, got {num_base_samples}")
        self.base = base
        self.num_base_samples = num_base_samples

    def squared_distances(self, models, stream=None):
        z = self.base.draw(self.num_base_samples, _require_stream(self.base, stream))
        scores = score_tensor(models, z)
        n, m, d = scores.shape
        flat = scores.reshape(n, m * d)
        inner = flat @ flat.T
        diag = np.diag(inner)
        return np.maximum(diag[:, None] + diag[None, :] - 2.0 * inner, 0.0) / m


class ExpKGFDKernel(DistributionKernel):
    """exp(-KGFD/(2 sigma^2)); score differences smoothed by a ground kernel."""

    name = "exp_kgfd"

    def __init__(self, sigma: Optional[float], base: BaseMeasure, ground: ScalarKernel,
                 num_base_samples: int = 10):
        super().__init__(sigma)
        if num_base_samples < 1:
            raise ValueError(f"num_base_samples must be >= 1, got {num_base_samples}")
        self.base = base
        self.ground = ground
        self.num_base_samples = num_base_samples

    def squared_distances(self, models, stream=None):
        z = self.base.draw(self.num_base_samples, _require_stream(self.base, stream))
        m = z.shape[0]
        scores = score_tensor(models, z)
        w = self.ground.gram(z)
        smoothed = np.einsum("ikd,kl->ild", scores, w)
        inner = np.einsum("ild,jld->ij", smoothed, scores)
        inner = 0.5 * (inner + inner.T)
        diag = np.diag(inner)
        return np.maximum(diag[:, None] + diag[None, :] - 2.0 * inner, 0.0) / m ** 2


class ExpMMDKernel(DistributionKernel):
    """exp(-MMD^2/(2 sigma^2)) with a Gaussian ground kernel.

    ``mode="closed_form"`` needs diagonal-Gaussian inputs; ``mode="sampled"``
    draws ``num_samples`` points per density once per Gram matrix and uses the
    V-statistic between the empirical measures, which keeps the matrix PSD.
    """

    name = "exp_mmd"

    def __init__(self, sigma: Optional[float], ground: ScalarKernel,
                 mode: str = "closed_form", num_samples: int = 10):
        super().__init__(sigma)
        if mode not in ("closed_form", "sampled"):
            raise ValueError(f"mode must be 'closed_form' or 'sampled', got {mode!r}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.ground = ground
        self.mode = mode
        self.num_samples = num_samples

    def squared_distances(self, models, stream=None):
        if self.mode == "closed_form":
            return self._closed_form(models)
        return self._sampled(models, stream)

    def _closed_form(self, models):
        if not isinstance(self.ground, GaussianKernel):
            raise UnsupportedKernelError("closed-form MMD needs a Gaussian ground kernel")
        if not is_gaussian_models(models):
            raise UnsupportedKernelError("closed-form MMD needs diagonal Gaussian models")
        means, variances = stack_gaussians(models)
        cross = double_expectation_gram(means, variances, self.ground.bandwidth)
        diag = np.diag(cross)
        return np.maximum(diag[:, None] + diag[None, :] - 2.0 * cross, 0.0)

    def _sampled(self, models, stream):
        if stream is None:
            raise ValueError("sampled MMD needs a random stream")
        m = self.num_samples
        draws = []
        for i, model in enumerate(models):
            sampler = getattr(model, "sample", None) or getattr(model, "sampler", None)
            if sampler is None:
                raise CapabilityError("sampled MMD needs a sampler on every model")
            draws.append(np.asarray(sampler(m, stream.derive("mmd-samples", i)), dtype=float))
        stacked = np.concatenate(draws, axis=0)
        big = self.ground.gram(stacked)
        n = len(models)
        blocks = big.reshape(n, m, n, m).mean(axis=(1, 3))
        diag = np.diag(blocks)
        return np.maximum(diag[:, None] + diag[None, :] - 2.0 * blocks, 0.0)


class ExpWassersteinKernel(DistributionKernel):
    """Closed-form exponentiated Wasserstein kernel for isotropic Gaussians.

    Uses the squared 2-Wasserstein distance ||mu - mu'||^2 + d (s - s')^2
    between N(mu, s^2 I) and N(mu', s'^2 I).
    """

    name = "exp_wasserstein"

    def squared_distances(self, models, stream=None):
        if not is_gaussian_models(models):
            raise UnsupportedKernelError("the Wasserstein kernel needs diagonal Gaussian models")
        for g in models:
            if not g.is_isotropic:
                raise UnsupportedKernelError("the Wasserstein kernel needs isotropic models")
        means, variances = stack_gaussians(models)
        d = means.shape[1]
        sd = np.sqrt(variances[:, 0])
        mean_sq = np.sum((means[:, None, :] - means[None, :, :]) ** 2, axis=-1)
        return mean_sq + d * (sd[:, None] - sd[None, :]) ** 2


def exp_gfd(kernel: ExpGFDKernel, p, q) -> float:
    """Pairwise exponentiated-GFD value; needs frozen base samples."""
    if kernel.base.samples is None:
        raise ValueError("pairwise evaluation needs a frozen base sample set")
    sigma = kernel._require_sigma()
    return float(np.exp(-gfd_estimate(p, q, kernel.base.samples) / (2.0 * sigma ** 2)))


def exp_kgfd(kernel: ExpKGFDKernel, p, q) -> float:
    """Pairwise exponentiated-KGFD value; needs frozen base samples."""
    if kernel.base.samples is None:
        raise ValueError("pairwise evaluation needs a frozen base sample set")
    sigma = kernel._require_sigma()
    value = kgfd_estimate(p, q, kernel.base.samples, kernel.ground)
    return float(np.exp(-value / (2.0 * sigma ** 2)))


def exp_mmd(kernel: ExpMMDKernel, p, q, stream: Optional[RandomStream] = None) -> float:
    """Pairwise exponentiated-MMD value."""
    sigma = kernel._require_sigma()
    sq = kernel.squared_distances([p, q], stream)
    return float(np.exp(-sq[0, 1] / (2.0 * sigma ** 2)))


def exp_wasserstein(p: DiagonalGaussian, q: DiagonalGaussian, ell: float) -> float:
    """Pairwise exponentiated-Wasserstein value for isotropic Gaussians."""
    kernel = ExpWassersteinKernel(ell)
    sq = kernel.squared_distances([p, q])
    return float(np.exp(-sq[0, 1] / (2.0 * ell ** 2)))


def gram(kernel: DistributionKernel, models: Sequence, stream: Optional[RandomStream] = None) -> np.ndarray:
    """Gram matrix of a distribution kernel; base samples are drawn once."""
    return kernel.gram(models, stream)


def _require_stream(base: BaseMeasure, stream: Optional[RandomStream]) -> Optional[RandomStream]:
    if base.samples is None and stream is None:
        raise ValueError("drawing base samples needs a random stream")
    return stream


# ---------------------------------------------------------------------------
# Bandwidth heuristics
# ---------------------------------------------------------------------------

def _lower_median(values: np.ndarray) -> float:
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if values.size == 0:
        raise ValueError("cannot take the median of an empty set")
    return float(values[(values.size - 1) // 2])


def _median_of_distances(dist: np.ndarray) -> float:
    n = dist.shape[0]
    if n < 2:
        raise ValueError("need at least two items for the median heuristic")
    iu = np.triu_indices(n, k=1)
    value = _lower_median(dist[iu])
    if value <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return value


def median_heuristic(points: np.ndarray) -> float:
    """Lower median of the pairwise Euclidean distances of a point set.

    Accepts an (n, d) stack of vectors or a flat length-n array of scalars.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    return _median_of_distances(dist)


def second_order_median_heuristic(models: Sequence[DiagonalGaussian],
                                  samples_per_pair: int = 10,
                                  stream: Optional[RandomStream] = None) -> float:
    """Median over model pairs of the median sample distance in their mixture.

    For every unordered model pair, draws ``samples_per_pair`` points from the
    equal-weight two-component mixture, takes the lower median of their
    pairwise distances, and returns the lower median over all pairs.
    """
    if len(models) < 2:
        raise ValueError("second-order heuristic needs at least two models")
    if samples_per_pair < 2:
        raise ValueError("samples_per_pair must be >= 2")
    if stream is None:
        raise ValueError("second-order heuristic needs a random stream")
    means, variances = stack_gaussians(models)
    n, d = means.shape
    idx_i, idx_j = np.triu_indices(n, k=1)
    rng = stream.generator()
    s = samples_per_pair
    a_idx, b_idx = np.triu_indices(s, k=1)
    med_col = (a_idx.size - 1) // 2

    per_pair = np.empty(idx_i.size)
    for start in range(0, idx_i.size, _PAIR_CHUNK):
        ii = idx_i[start:start + _PAIR_CHUNK]
        jj = idx_j[start:start + _PAIR_CHUNK]
        count = ii.size
        pick_first = rng.random((count, s)) < 0.5
        xi = rng.standard_normal((count, s, d))
        mean_sel = np.where(pick_first[..., None], means[ii][:, None, :], means[jj][:, None, :])
        var_sel = np.where(pick_first[..., None], variances[ii][:, None, :], variances[jj][:, None, :])
        pts = mean_sel + np.sqrt(var_sel) * xi
        diff = pts[:, a_idx, :] - pts[:, b_idx, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=-1))
        dist.sort(axis=1)
        per_pair[start:start + count] = dist[:, med_col]

    value = _lower_median(per_pair)
    if value <= 0.0:
        raise DegenerateBandwidthError("second-order median distance is zero")
    return value

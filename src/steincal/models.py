"""Predictive densities with scores, model batches and datasets, and synthetic
generative setups."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sampling import CapabilityError, RandomStream

MGM_SHIFT_ALL = "all"
MGM_SHIFT_FIRST = "first"
FAMILIES = ("mgm", "lgm", "hgm", "qgm")

_LGM_COEFFS = np.arange(1.0, 6.0)  # mean weights 1..5 on the five inputs
_HGM_CENTER = np.full(3, 2.0 / 3.0)
_HGM_WIDTH_SQ = 0.8 ** 2


class NumericalError(ArithmeticError):
    """A computed score, log density or distance is not finite."""


class ScoreShapeError(ValueError):
    """A density's score or log density returned a batch of the wrong shape."""


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Return ``values`` unchanged, or raise :class:`NumericalError` naming ``what``."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} is not finite")
    return values


@dataclass(frozen=True, eq=False)
class ScoredDensity:
    """Capability record for a (possibly unnormalised) density.

    Both callables are batched. ``score`` maps an (m, dim) array of points to
    the (m, dim) gradients of the log density there; ``log_unnorm`` maps it to
    the (m,) unnormalised log densities, which may be -inf where the density
    vanishes. ``log_unnorm`` and ``sampler`` are optional capabilities;
    operations that need them declare it and raise :class:`CapabilityError`
    otherwise. The library calls the callables only through
    :meth:`score_batch` and :meth:`log_unnorm_batch`, which check what they
    return.
    """

    dim: int
    score: Callable[[np.ndarray], np.ndarray]
    log_unnorm: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[int, RandomStream], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def score_batch(self, points: np.ndarray) -> np.ndarray:
        """Scores at an (m, dim) batch. Raises :class:`ScoreShapeError` for a
        result of the wrong shape and :class:`NumericalError` for a non-finite one."""
        points = _check_points(points, self.dim)
        out = _batch_of_shape(self.score(points), points.shape, "score")
        return require_finite(out, "score")

    def log_unnorm_batch(self, points: np.ndarray) -> np.ndarray:
        """Unnormalised log densities at an (m, dim) batch; -inf is allowed,
        NaN and +inf raise :class:`NumericalError`."""
        points = _check_points(points, self.dim)
        out = _batch_of_shape(self.log_unnorm(points), points.shape[:1], "log_unnorm")
        if np.any(np.isnan(out) | (out == np.inf)):
            raise NumericalError("log density is NaN or +inf")
        return out


def _check_points(points, dim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must be an (m, {dim}) array, got shape {points.shape}")
    return points


def _batch_of_shape(values, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ScoreShapeError(f"{what} returned shape {values.shape}, expected {shape}")
    return values


class ModelBatch:
    """n predictive densities on R^dim as whole arrays; row i of every (n, ...)
    array belongs to model i. Besides ``len``, ``dim`` and :meth:`score_tensor`
    a batch offers ``rows()``, itself as one :class:`ScoredDensity` on (n, dim)
    arrays whose row i is scored under model i; ``sample(m, stream)``, an
    (n, m, dim) array or :class:`CapabilityError`; ``centers()``, the
    (n, dim) points MALA chains start around; and ``copies(k)``, the batch of k
    stacked copies, whose model c n + i is model i."""

    def score_tensor(self, points: np.ndarray) -> np.ndarray:
        """Scores of every model at every point of one shared (m, dim) set. Shape (n, m, dim)."""
        return require_finite(self._score_tensor(_check_points(points, self.dim)), "score")


@dataclass(frozen=True, eq=False)
class GaussianBatch(ModelBatch):
    """n diagonal Gaussians N(means[i], diag(variances[i])), given as (n, d)
    arrays of finite means and finite, strictly positive variances. The batch
    keeps read-only copies, so a later write to the caller's arrays does not
    reach it."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=float)
        variances = np.array(self.variances, dtype=float)
        if means.ndim != 2 or means.shape != variances.shape or min(means.shape) < 1:
            raise ValueError("means and variances must be (n, d) arrays of one shape, "
                             "n >= 1 and d >= 1")
        if not (np.all(np.isfinite(means)) and np.all((variances > 0) & (variances < np.inf))):
            raise ValueError("means must be finite, variances finite and strictly positive")
        means.flags.writeable = False
        variances.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def score(self, points: np.ndarray) -> np.ndarray:
        """Row-wise scores (means - points) / variances."""
        self._check_last_axis(points)
        return (self.means - points) / self.variances

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Row-wise log densities: entry i is model i's log density at points[i]."""
        self._check_last_axis(points)
        norms = np.sum(np.log(2.0 * np.pi * self.variances), axis=1)
        return -0.5 * (np.sum((points - self.means) ** 2 / self.variances, axis=1) + norms)

    def rows(self) -> ScoredDensity:
        return ScoredDensity(dim=self.dim, score=self.score, log_unnorm=self.log_density)

    def _check_last_axis(self, points) -> None:
        """Points broadcast against the rows, but their last axis must be ``dim``."""
        if np.shape(points)[-1:] != (self.dim,):
            raise ValueError(f"points must have a last axis of {self.dim}, "
                             f"got shape {np.shape(points)}")

    def _score_tensor(self, points):
        return (self.means[:, None, :] - points[None, :, :]) / self.variances[:, None, :]

    def sample(self, m: int, stream: RandomStream) -> np.ndarray:
        """means + sqrt(variances) * xi with one (n, m, d) normal draw from the stream."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        xi = stream.generator().standard_normal((len(self), m, self.dim))
        return self.means[:, None, :] + np.sqrt(self.variances)[:, None, :] * xi

    def centers(self) -> np.ndarray:
        return self.means

    def copies(self, k: int) -> "GaussianBatch":
        return GaussianBatch(np.tile(self.means, (k, 1)), np.tile(self.variances, (k, 1)))


@dataclass(frozen=True, eq=False)
class ScoredBatch(ModelBatch):
    """:class:`ScoredDensity` objects of one dimension as a batch: the one place
    that calls models one at a time, each result checked by its density.
    Model i samples from ``stream.derive("model", i)``. The batch keeps the
    densities as a tuple; it must hold at least one."""

    densities: tuple

    def __post_init__(self):
        densities = tuple(self.densities)
        if not densities:
            raise ValueError("a model batch needs at least one model")
        for s in densities:
            if not isinstance(s, ScoredDensity):
                raise TypeError(f"cannot interpret {type(s).__name__} as a scored density")
            if s.dim != densities[0].dim:
                raise ValueError(f"a batch holds models of one dimension, got dimensions "
                                 f"{densities[0].dim} and {s.dim}")
        object.__setattr__(self, "densities", densities)

    def __len__(self) -> int:
        return len(self.densities)

    @property
    def dim(self) -> int:
        return self.densities[0].dim

    def rows(self) -> ScoredDensity:
        def score(points):
            return np.concatenate([s.score_batch(p[None]) for s, p in zip(self.densities, points)])

        def log_unnorm(points):
            return np.concatenate([s.log_unnorm_batch(p[None])
                                   for s, p in zip(self.densities, points)])

        has_log_unnorm = all(s.log_unnorm is not None for s in self.densities)
        return ScoredDensity(dim=self.dim, score=score,
                             log_unnorm=log_unnorm if has_log_unnorm else None)

    def _score_tensor(self, points):
        return np.stack([s.score_batch(points) for s in self.densities])

    def sample(self, m: int, stream: RandomStream) -> np.ndarray:
        if any(s.sampler is None for s in self.densities):
            raise CapabilityError("drawing samples needs a sampler on every model")
        return np.stack([np.asarray(s.sampler(m, stream.derive("model", i)), dtype=float)
                         for i, s in enumerate(self.densities)])

    def centers(self) -> np.ndarray:
        return np.zeros((len(self), self.dim))

    def copies(self, k: int) -> "ScoredBatch":
        return ScoredBatch(self.densities * k)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A validation set: model i of the batch predicted the law of targets[i]."""

    models: ModelBatch
    targets: np.ndarray

    def __post_init__(self):
        if not isinstance(self.models, ModelBatch):
            raise TypeError(f"models must be a ModelBatch, got {type(self.models).__name__}")
        targets = np.asarray(self.targets, dtype=float)
        if targets.shape != (len(self.models), self.models.dim):
            raise ValueError(f"targets have shape {targets.shape}, not (n, dim) of the models")
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class SyntheticSetup:
    """One of the four synthetic prediction/target generators.

    ``delta`` >= 0 is the degree of miscalibration; every family is calibrated
    at delta = 0. ``mgm_shift`` selects the shift direction for the mean
    model: "all" shifts every coordinate, "first" only the first.
    """

    family: str
    delta: float = 0.0
    mgm_shift: str = MGM_SHIFT_ALL

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family: must be one of {FAMILIES}, got {self.family!r}")
        if self.delta < 0:
            raise ValueError(f"delta: must be >= 0, got {self.delta}")
        if self.mgm_shift not in (MGM_SHIFT_ALL, MGM_SHIFT_FIRST):
            raise ValueError(f"mgm_shift: must be 'all' or 'first', got {self.mgm_shift!r}")


def sample_setup(setup: SyntheticSetup, n: int, stream: RandomStream) -> Dataset:
    """Draw n i.i.d. (predictive model, target) pairs from a synthetic setup."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = stream.generator()
    delta = setup.delta

    if setup.family == "mgm":
        x = rng.standard_normal((n, 5))
        y = x + rng.standard_normal((n, 5))
        c = np.ones(5) if setup.mgm_shift == MGM_SHIFT_ALL else np.eye(5)[0]
        means = x + delta * c
        variances = np.ones((n, 5))
    elif setup.family == "lgm":
        x = rng.standard_normal((n, 5))
        true_mean = x @ _LGM_COEFFS
        y = (true_mean + rng.standard_normal(n))[:, None]
        means = (delta + true_mean)[:, None]
        variances = np.ones((n, 1))
    elif setup.family == "hgm":
        x = rng.standard_normal((n, 3))
        m = x.sum(axis=1)
        y = (m + rng.standard_normal(n))[:, None]
        means = m[:, None]
        bump = np.exp(-np.sum((x - _HGM_CENTER) ** 2, axis=1) / (2.0 * _HGM_WIDTH_SQ))
        variances = (1.0 + 10.0 * delta * bump)[:, None]
    else:  # qgm
        x = rng.uniform(-2.0, 2.0, size=n)
        y = (0.1 * x ** 2 + x + 1.0 + rng.standard_normal(n))[:, None]
        means = (0.1 * (1.0 - delta) * x ** 2 + x + 1.0)[:, None]
        variances = np.ones((n, 1))

    return Dataset(GaussianBatch(means, variances), y)


"""Predictive densities with scores, synthetic generative setups, and HDR coverage."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .sampling import RandomStream, sample_gaussian

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
class DiagonalGaussian:
    """Gaussian with diagonal covariance, the predictive density of every setup."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if mean.ndim != 1 or var.ndim != 1 or mean.shape != var.shape:
            raise ValueError("mean and var must be 1-d arrays of equal length")
        if mean.size < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(var > 0):
            raise ValueError("var must be strictly positive elementwise")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def is_isotropic(self) -> bool:
        return bool(np.all(self.var == self.var[0]))

    def score(self, y: np.ndarray) -> np.ndarray:
        """Gradient of the log density, (mean - y) / var, at a point (d,) or
        row-wise on a batch (m, d)."""
        y = self._check_point(y)
        return (self.mean - y) / self.var

    def log_density(self, y: np.ndarray):
        """Log density at a point (a float) or row-wise on a batch (an (m,) array)."""
        y = self._check_point(y)
        quad = np.sum((y - self.mean) ** 2 / self.var, axis=-1)
        norm = np.sum(np.log(2.0 * np.pi * self.var))
        out = -0.5 * (quad + norm)
        return float(out) if y.ndim == 1 else out

    def sample(self, n: int, stream: RandomStream) -> np.ndarray:
        return sample_gaussian(self, n, stream)

    def _check_point(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.ndim > 2 or y.shape[-1] != self.dim:
            raise ValueError(f"points have shape {y.shape}, model has dimension {self.dim}")
        return y

    def to_json_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "var": self.var.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DiagonalGaussian":
        return cls(np.asarray(obj["mean"], dtype=float), np.asarray(obj["var"], dtype=float))


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
        points = self._check_batch(points)
        out = _batch_of_shape(self.score(points), points.shape, "score")
        return require_finite(out, "score")

    def log_unnorm_batch(self, points: np.ndarray) -> np.ndarray:
        """Unnormalised log densities at an (m, dim) batch; -inf is allowed,
        NaN and +inf raise :class:`NumericalError`."""
        points = self._check_batch(points)
        out = _batch_of_shape(self.log_unnorm(points), points.shape[:1], "log_unnorm")
        if np.any(np.isnan(out) | (out == np.inf)):
            raise NumericalError("log density is NaN or +inf")
        return out

    def _check_batch(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must be an (m, {self.dim}) array, got shape {points.shape}")
        return points


def _batch_of_shape(values, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ScoreShapeError(f"{what} returned shape {values.shape}, expected {shape}")
    return values


def as_scored(model) -> ScoredDensity:
    """View a model as a ScoredDensity; diagonal Gaussians get all capabilities."""
    if isinstance(model, ScoredDensity):
        return model
    if isinstance(model, DiagonalGaussian):
        return ScoredDensity(
            dim=model.dim,
            score=model.score,
            log_unnorm=model.log_density,
            sampler=model.sample,
        )
    raise TypeError(f"cannot interpret {type(model).__name__} as a scored density")


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
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.mgm_shift not in (MGM_SHIFT_ALL, MGM_SHIFT_FIRST):
            raise ValueError(f"mgm_shift must be 'all' or 'first', got {self.mgm_shift!r}")

    @property
    def input_dim(self) -> int:
        return {"mgm": 5, "lgm": 5, "hgm": 3, "qgm": 1}[self.family]

    @property
    def target_dim(self) -> int:
        return {"mgm": 5, "lgm": 1, "hgm": 1, "qgm": 1}[self.family]


def sample_setup(setup: SyntheticSetup, n: int, stream: RandomStream) -> list[tuple[DiagonalGaussian, np.ndarray]]:
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

    return [(DiagonalGaussian(means[i], variances[i]), y[i]) for i in range(n)]


def chi_square_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square law via the inverse regularised incomplete gamma."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    return 2.0 * float(special.gammaincinv(dof / 2.0, prob))


def hdr_contains(g: DiagonalGaussian, y: np.ndarray, alpha: float) -> bool:
    """Whether y lies in the (1 - alpha) highest-density region of g.

    For a Gaussian the HDR is the ellipsoid where the squared Mahalanobis
    distance is below the (1 - alpha) chi-square quantile with dim degrees
    of freedom.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    y = g._check_point(y)
    mahal = float(np.sum((y - g.mean) ** 2 / g.var))
    return mahal <= chi_square_quantile(g.dim, 1.0 - alpha)


def coverage_rate(pairs: Sequence[tuple[DiagonalGaussian, np.ndarray]], alpha: float) -> float:
    """Fraction of (model, target) pairs whose target falls in the model HDR."""
    if len(pairs) == 0:
        raise ValueError("coverage_rate needs a nonempty list of pairs")
    hits = sum(1 for g, y in pairs if hdr_contains(g, y, alpha))
    return hits / len(pairs)


def dataset_targets(pairs) -> np.ndarray:
    """Stack the targets of a dataset into an (n, d) array."""
    return np.stack([np.atleast_1d(np.asarray(y, dtype=float)) for _, y in pairs])


def dataset_models(pairs) -> list:
    return [g for g, _ in pairs]


def is_gaussian_models(models) -> bool:
    return all(isinstance(g, DiagonalGaussian) for g in models)


def stack_gaussians(models) -> tuple[np.ndarray, np.ndarray]:
    """Means and variances of a list of same-dimension diagonal Gaussians."""
    if not is_gaussian_models(models):
        raise TypeError("expected a list of DiagonalGaussian models")
    means = np.stack([g.mean for g in models])
    variances = np.stack([g.var for g in models])
    return means, variances


def gaussian_rows(means: np.ndarray, variances: np.ndarray) -> ScoredDensity:
    """Stacked diagonal Gaussians as one density on (n, d) arrays whose row i
    is scored under the Gaussian (means[i], variances[i])."""
    norms = np.sum(np.log(2.0 * np.pi * variances), axis=1)

    def log_unnorm(points):
        return -0.5 * (np.sum((points - means) ** 2 / variances, axis=1) + norms)

    return ScoredDensity(dim=means.shape[1], score=lambda points: (means - points) / variances,
                         log_unnorm=log_unnorm)


def row_density(models) -> ScoredDensity:
    """The models as one density on (n, d) arrays: row i is scored under models[i].

    Diagonal Gaussians are stacked once and evaluated as whole arrays; any
    other model list calls each model on its own row.
    """
    if is_gaussian_models(models):
        return gaussian_rows(*stack_gaussians(models))
    scored = [as_scored(m) for m in models]

    def score(points):
        return np.concatenate([s.score_batch(points[i:i + 1]) for i, s in enumerate(scored)])

    def log_unnorm(points):
        return np.concatenate([s.log_unnorm_batch(points[i:i + 1]) for i, s in enumerate(scored)])

    has_log_unnorm = all(s.log_unnorm is not None for s in scored)
    return ScoredDensity(dim=scored[0].dim, score=score,
                         log_unnorm=log_unnorm if has_log_unnorm else None)


def score_tensor(models, points: np.ndarray) -> np.ndarray:
    """Scores of every model at every shared point. Shape (n, m, d)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (m, d) array")
    if is_gaussian_models(models):
        means, variances = stack_gaussians(models)
        if means.shape[1] != points.shape[1]:
            raise ValueError("base-sample dimension does not match the models")
        scores = (means[:, None, :] - points[None, :, :]) / variances[:, None, :]
        return require_finite(scores, "score")
    return np.stack([as_scored(m).score_batch(points) for m in models])

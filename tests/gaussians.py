"""Diagonal Gaussians for the tests: one model's parameters, and the library's
batches and datasets stacked from them in order."""
from typing import NamedTuple

import numpy as np

from steincal.models import Dataset, GaussianBatch


class Gaussian(NamedTuple):
    """The parameters of one diagonal Gaussian N(mean, diag(var)), as 1-d arrays.
    The closed-form oracles read ``mean``, ``var`` and ``dim``; the library reads
    :attr:`batch`."""

    mean: np.ndarray
    var: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def batch(self) -> GaussianBatch:
        """The model as a one-row batch: ``batch.score(y)[0]`` is its score at a point."""
        return stack([self])


def g1(mean, var) -> Gaussian:
    """A diagonal Gaussian; a scalar mean or var is a one-entry array."""
    return Gaussian(np.atleast_1d(np.asarray(mean, float)), np.atleast_1d(np.asarray(var, float)))


def stack(models) -> GaussianBatch:
    """Gaussians stacked in order into one batch."""
    return GaussianBatch(np.stack([g.mean for g in models]), np.stack([g.var for g in models]))


def dataset(pairs) -> Dataset:
    """(Gaussian, target) pairs as a dataset, in order."""
    models, targets = zip(*pairs)
    return Dataset(stack(models), np.stack([np.atleast_1d(np.asarray(y, float)) for y in targets]))

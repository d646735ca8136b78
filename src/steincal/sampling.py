"""Seeded, splittable randomness and a Metropolis-adjusted Langevin sampler.

Streams are value-like: deriving a child never mutates the parent, and the
draws produced by a stream are a pure function of (seed, derivation path).
This makes parallel sweeps reproducible independent of scheduling.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .models import ScoredDensity


class CapabilityError(ValueError):
    """An operation needs a capability (sampler, log density) the input lacks."""


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream identified by a seed and a derivation path.

    ``derive(label, index)`` is pure: the same (seed, path) always yields the
    same draws, and distinct paths yield statistically independent Philox keys.
    A stream instance should feed exactly one consumer; callers that need
    several independent draw sequences derive labelled children.
    """

    seed: int
    path: tuple[tuple[str, int], ...] = ()

    def derive(self, label: str, index: int = 0) -> "RandomStream":
        return RandomStream(self.seed, self.path + ((label, int(index)),))

    def generator(self) -> np.random.Generator:
        """Fresh generator keyed by (seed, path). Same stream, same draws."""
        h = hashlib.blake2b(digest_size=16)
        h.update(str(int(self.seed)).encode())
        for label, index in self.path:
            h.update(b"\x00")
            h.update(label.encode())
            h.update(index.to_bytes(8, "little", signed=True))
        key = int.from_bytes(h.digest(), "little")
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MalaConfig:
    """MALA tuning knobs.

    ``n_steps`` is the thinning interval: one state is retained after every
    ``n_steps`` chain steps once ``burn_in`` steps have been discarded.
    """

    step_size: float
    n_steps: int = 1
    burn_in: int = 0

    def __post_init__(self):
        if not 0 < self.step_size < float("inf"):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


@dataclass(frozen=True)
class MalaRun:
    samples: np.ndarray
    acceptance_rate: float


def run_mala(target: "ScoredDensity", cfg: MalaConfig, init: np.ndarray,
             n_samples: int,
             stream: Union[RandomStream, Sequence[RandomStream]]) -> MalaRun:
    """Run MALA chains in lock step against an unnormalised density and thin them.

    ``init`` is one start point (d,) or a (c, d) stack of them; row i of the
    (c, d) state is chain i, and ``target`` is called on the whole state, so a
    model batch's ``rows()`` view runs chain i against model i.
    ``stream`` is one stream, or a sequence of g streams of which stream k drives
    the k-th group of c / g consecutive chains; g must divide c. Each step draws,
    from each group's generator, one (c / g, d) normal and then one (c / g,)
    uniform array, so a group's samples are the bytes of its own run on its rows.
    Proposal: y* = y + tau * score(y) + sqrt(2 tau) * xi,
    Metropolis-corrected with the unnormalised log density, which the target
    must provide. Samples are (c, n_samples, d), or (n_samples, d) for a 1-d
    ``init``; ``acceptance_rate`` is accepted over proposed moves, all chains
    together.
    """
    if target.log_unnorm is None:
        raise CapabilityError("MALA requires a log unnormalised density")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")

    init = np.asarray(init, dtype=float)
    y = np.atleast_2d(init)
    chains = y.shape[0]
    streams = [stream] if isinstance(stream, RandomStream) else list(stream)
    if not streams or chains % len(streams):
        raise ValueError(f"{len(streams)} streams do not split {chains} chains "
                         "into groups of one size")
    size = chains // len(streams)
    groups = [(slice(k * size, (k + 1) * size), s.generator()) for k, s in enumerate(streams)]
    tau = cfg.step_size
    log_f = target.log_unnorm_batch(y)
    if not np.all(np.isfinite(log_f)):
        raise ValueError("log density is not finite at the chain initialisation")
    score = target.score_batch(y)

    total_steps = cfg.burn_in + cfg.n_steps * n_samples
    out = np.empty((chains, n_samples, y.shape[1]))
    xi = np.empty(y.shape)
    u = np.empty(chains)
    kept = 0
    accepted = 0
    for step in range(total_steps):
        for rows, rng in groups:
            rng.standard_normal(out=xi[rows])
        proposal = y + tau * score + math.sqrt(2.0 * tau) * xi
        log_f_prop = target.log_unnorm_batch(proposal)
        score_prop = target.score_batch(proposal)
        # log q(y | y*) - log q(y* | y) for the Langevin proposal N(. + tau s, 2 tau I)
        backward = y - proposal - tau * score_prop
        forward = proposal - y - tau * score
        log_alpha = (log_f_prop - log_f
                     + (np.sum(forward ** 2, axis=1) - np.sum(backward ** 2, axis=1)) / (4.0 * tau))
        for rows, rng in groups:
            rng.random(out=u[rows])
        accept = np.log(u, out=u) < log_alpha
        y = np.where(accept[:, None], proposal, y)
        log_f = np.where(accept, log_f_prop, log_f)
        score = np.where(accept[:, None], score_prop, score)
        accepted += int(np.count_nonzero(accept))
        if step >= cfg.burn_in and (step - cfg.burn_in + 1) % cfg.n_steps == 0:
            out[:, kept] = y
            kept += 1
    rate = accepted / (total_steps * chains)
    return MalaRun(samples=out[0] if init.ndim == 1 else out, acceptance_rate=rate)

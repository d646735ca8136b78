import numpy as np
import pytest

from steincal.models import DiagonalGaussian, ScoredDensity, as_scored, row_density
from steincal.sampling import (
    CapabilityError,
    MalaConfig,
    RandomStream,
    rademacher,
    run_mala,
    sample_gaussian,
)


def test_stream_is_a_pure_function_of_seed_and_path():
    a = RandomStream(3).derive("x", 1)
    b = RandomStream(3).derive("x", 1)
    assert np.array_equal(a.generator().standard_normal(100), b.generator().standard_normal(100))


def test_stream_children_differ():
    root = RandomStream(3)
    draws = {
        label: root.derive(*label).generator().standard_normal(8).tobytes()
        for label in [("x", 0), ("x", 1), ("y", 0), ("y", 1)]
    }
    assert len(set(draws.values())) == 4


def test_derive_does_not_mutate_parent():
    root = RandomStream(5)
    before = root.generator().standard_normal(16)
    root.derive("child")
    assert np.array_equal(before, root.generator().standard_normal(16))


def test_sibling_streams_pass_independence_smoke_test():
    root = RandomStream(123)
    a = root.derive("a", 1).generator().standard_normal(10_000)
    b = root.derive("a", 2).generator().standard_normal(10_000)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.05


def test_sample_gaussian_moments_and_determinism():
    g = DiagonalGaussian(np.array([3.0]), np.array([1.0]))
    stream = RandomStream(7).derive("draws")
    x = sample_gaussian(g, 100_000, stream)
    assert x.shape == (100_000, 1)
    assert abs(x.mean() - 3.0) < 0.01
    assert np.array_equal(x, sample_gaussian(g, 100_000, stream))


def test_sample_gaussian_rejects_nonpositive_count():
    g = DiagonalGaussian(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        sample_gaussian(g, 0, RandomStream(0))


def test_rademacher_values_mean_and_determinism():
    stream = RandomStream(11).derive("signs")
    s = rademacher(100_000, stream)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.01
    assert np.array_equal(s, rademacher(100_000, stream))


def test_mala_config_validation():
    with pytest.raises(ValueError):
        MalaConfig(step_size=0.0)
    with pytest.raises(ValueError):
        MalaConfig(step_size=0.1, n_steps=0)
    with pytest.raises(ValueError):
        MalaConfig(step_size=0.1, burn_in=-1)


def _standard_normal_density():
    return as_scored(DiagonalGaussian(np.array([0.0]), np.array([1.0])))


def test_mala_matches_exact_sampling_in_first_two_moments():
    target = _standard_normal_density()
    cfg = MalaConfig(step_size=0.5, n_steps=1, burn_in=200)
    run = run_mala(target, cfg, np.array([0.3]), 10_000, RandomStream(21).derive("mala"))
    assert abs(run.samples.mean()) < 0.05
    assert abs(run.samples.var() - 1.0) < 0.1
    # stationary acceptance for this proposal at tau=0.5 is 0.921 (MC oracle)
    assert 0.85 < run.acceptance_rate < 0.97


def test_mala_acceptance_falls_with_larger_steps():
    target = _standard_normal_density()
    cfg = MalaConfig(step_size=1.5, n_steps=1, burn_in=200)
    run = run_mala(target, cfg, np.array([0.0]), 10_000, RandomStream(23).derive("mala"))
    # MC oracle puts the stationary acceptance at tau=1.5 near 0.63
    assert 0.4 < run.acceptance_rate < 0.9


def test_mala_vanishing_step_stays_near_init_with_full_acceptance():
    target = _standard_normal_density()
    cfg = MalaConfig(step_size=1e-6, n_steps=1, burn_in=0)
    run = run_mala(target, cfg, np.array([5.0]), 50, RandomStream(22).derive("mala"))
    assert np.all(np.abs(run.samples - 5.0) < 0.1)
    assert run.acceptance_rate >= 0.95


def test_mala_requires_log_density():
    target = ScoredDensity(dim=1, score=lambda y: -y)
    with pytest.raises(CapabilityError):
        run_mala(target, MalaConfig(step_size=0.5), np.array([0.0]), 10, RandomStream(0))


def test_mala_rejects_nonfinite_init():
    target = ScoredDensity(dim=1, score=lambda y: -y, log_unnorm=lambda y: np.full(len(y), -np.inf))
    with pytest.raises(ValueError):
        run_mala(target, MalaConfig(step_size=0.5), np.array([0.0]), 10, RandomStream(0))


def test_mala_is_deterministic_given_stream():
    target = _standard_normal_density()
    cfg = MalaConfig(step_size=0.5, n_steps=2, burn_in=5)
    stream = RandomStream(9).derive("mala")
    a = run_mala(target, cfg, np.array([1.0]), 20, stream).samples
    b = run_mala(target, cfg, np.array([1.0]), 20, stream).samples
    assert np.array_equal(a, b)


# Lock-step chains: row i of the (c, d) state is a chain against models[i].

def _heterogeneous_gaussians():
    means = np.array([[-3.0, 0.5], [0.0, 4.0], [2.5, -1.0], [10.0, 0.0]])
    variances = np.array([[0.5, 1.0], [2.0, 0.7], [1.0, 1.5], [0.6, 2.0]])
    return [DiagonalGaussian(m, v) for m, v in zip(means, variances)], means, variances


def test_lock_step_rows_match_their_own_moments():
    models, means, variances = _heterogeneous_gaussians()
    cfg = MalaConfig(step_size=0.3, n_steps=1, burn_in=200)
    run = run_mala(row_density(models), cfg, means, 20_000, RandomStream(31).derive("mala"))
    assert run.samples.shape == (4, 20_000, 2)
    # about 1500 effective samples per row: ~4 standard errors of each moment
    assert np.all(np.abs(run.samples.mean(axis=1) - means) < 0.1 * np.sqrt(variances))
    assert np.all(np.abs(run.samples.var(axis=1) / variances - 1.0) < 0.15)
    assert 0.0 < run.acceptance_rate < 1.0


def test_stacked_gaussian_and_generic_row_paths_agree():
    models, means, _ = _heterogeneous_gaussians()
    generic = [ScoredDensity(dim=2, score=g.score, log_unnorm=g.log_density) for g in models]
    cfg = MalaConfig(step_size=0.3, n_steps=3, burn_in=10)
    init = means + 0.5
    stream = RandomStream(32).derive("mala")
    fast = run_mala(row_density(models), cfg, init, 50, stream)
    slow = run_mala(row_density(generic), cfg, init, 50, stream)
    assert np.allclose(fast.samples, slow.samples, rtol=1e-12, atol=1e-12)
    assert fast.acceptance_rate == slow.acceptance_rate
    assert 0.0 < fast.acceptance_rate < 1.0


def test_acceptance_rate_pools_all_chains():
    # 4000 chains started from the target itself: the pooled rate is the
    # stationary acceptance, which an MC oracle puts near 0.63 at tau=1.5
    target = _standard_normal_density()
    init = RandomStream(33).derive("init").generator().standard_normal((4000, 1))
    run = run_mala(target, MalaConfig(step_size=1.5), init, 5, RandomStream(33).derive("mala"))
    assert run.samples.shape == (4000, 5, 1)
    assert 0.6 < run.acceptance_rate < 0.66

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is stated
inline; the experiment criteria use 100 repetitions at alpha = 0.05 with 500
bootstrap replicates and fixed master seeds, so the whole suite is
deterministic.
"""
import numpy as np

from steincal.cli import cli
from steincal.harness import (
    DistKernelSpec,
    ExperimentConfig,
    StatisticConfig,
    TargetKernelSpec,
    rejection_rates,
    run_experiment,
)
from steincal.kernels import (
    BaseMeasure,
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    GaussianKernel,
    IMQKernel,
    exp_mmd,
    gaussian_kernel_double_expectation,
    gaussian_kernel_single_expectation,
    gfd_estimate,
    gfd_gaussian_closed,
    median_heuristic,
    scalar_bundle,
)
from steincal.models import (
    DiagonalGaussian,
    SyntheticSetup,
    coverage_rate,
    dataset_targets,
    sample_setup,
)
from steincal.sampling import RandomStream
from steincal.statistics import (
    h_matrix_between,
    kccsd_stat_matrix,
    u_statistic,
)

from oracles import (
    fd_kernel_bundle,
    mc_gaussian_kernel_double,
    mc_gaussian_kernel_single,
)

ALPHA = 0.05
BOOTSTRAP = 500
REPETITIONS = 100
TYPE_I_BOUND = 0.11  # alpha + 3 binomial standard deviations at 100 repetitions


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def run_cells(family, delta, n_grid, statistic, dist_kernel, seed, *,
              repetitions=REPETITIONS, mgm_shift="all"):
    cfg = ExperimentConfig(
        setup=SyntheticSetup(family, delta, mgm_shift=mgm_shift),
        n_grid=tuple(n_grid),
        statistic=statistic,
        dist_kernel=dist_kernel,
        target_kernel=TargetKernelSpec("gaussian", "median"),
        repetitions=repetitions,
        alpha=ALPHA,
        bootstrap=BOOTSTRAP,
        master_seed=seed,
    )
    rates = rejection_rates(run_experiment(cfg))
    return {n: rates[(family, delta, n)] for n in n_grid}


def test_criterion_01_type_i_control():
    kccsd = StatisticConfig("kccsd")
    cells = {}
    for family, seed in (("lgm", 101), ("mgm", 102)):
        for variant in ("exp_gfd", "exp_kgfd"):
            rates = run_cells(family, 0.0, (64, 256), kccsd, DistKernelSpec(variant), seed)
            for n, rate in rates.items():
                cells[(family, variant, n)] = rate
    detail = "; ".join(f"{f}/{v}/n={n}: {r:.2f}" for (f, v, n), r in cells.items())
    report("criterion 1 type-I control <= 0.11", all(r <= TYPE_I_BOUND for r in cells.values()),
           detail)


def test_criterion_02_power_on_heteroscedastic_model():
    rates = run_cells("hgm", 1.0, (256,), StatisticConfig("kccsd"),
                      DistKernelSpec("exp_gfd"), 103)
    report("criterion 2 power on hgm delta=1 n=256 >= 0.9", rates[256] >= 0.9,
           f"rate {rates[256]:.2f}")


def _check_monotone(rates_by_n, label):
    values = [rates_by_n[n] for n in sorted(rates_by_n)]
    inversions = [max(0.0, values[k] - values[k + 1]) for k in range(len(values) - 1)]
    bad = [d for d in inversions if d > 1e-12]
    ok = len(bad) <= 1 and all(d <= 0.05 for d in bad)
    return ok, f"{label} rates {values}"


def test_criterion_03_power_monotonicity():
    grid = (64, 128, 256, 512)
    qgm = run_cells("qgm", 1.0, grid, StatisticConfig("kccsd"), DistKernelSpec("exp_gfd"), 104)
    mgm = run_cells("mgm", 0.1, grid, StatisticConfig("kccsd"), DistKernelSpec("exp_gfd"),
                    105, mgm_shift="all")
    ok_q, detail_q = _check_monotone(qgm, "qgm delta=1")
    ok_m, detail_m = _check_monotone(mgm, "mgm delta=0.1")
    report("criterion 3 power monotonicity", ok_q and ok_m, f"{detail_q}; {detail_m}")


def test_criterion_04_skce_parity_on_qgm():
    kccsd = run_cells("qgm", 1.0, (256,), StatisticConfig("kccsd"),
                      DistKernelSpec("exp_gfd"), 106)[256]
    skce = run_cells("qgm", 1.0, (256,), StatisticConfig("skce", strategy_mode="closed_form"),
                     DistKernelSpec("exp_mmd", mmd_mode="closed_form"), 106)[256]
    report("criterion 4 skce parity |diff| <= 0.15", abs(kccsd - skce) <= 0.15,
           f"kccsd {kccsd:.2f} vs skce {skce:.2f}")


def test_criterion_05_biased_mcmc_failure_mode():
    seed = 107
    mala = StatisticConfig("skce", strategy_mode="mala", strategy_samples=2,
                           mala_step_size=0.01, mala_steps=5, mala_burn_in=0)
    skce_rate = run_cells("lgm", 0.0, (200,), mala,
                          DistKernelSpec("exp_mmd", mmd_mode="closed_form"), seed)[200]
    kccsd_rate = run_cells("lgm", 0.0, (200,), StatisticConfig("kccsd"),
                           DistKernelSpec("exp_gfd"), seed)[200]
    ok = skce_rate >= 0.15 and kccsd_rate <= TYPE_I_BOUND
    report("criterion 5 short untuned MCMC breaks skce but not kccsd", ok,
           f"skce+mala {skce_rate:.2f} (needs >= 0.15), kccsd {kccsd_rate:.2f} (needs <= 0.11)")


def test_criterion_06_statistic_is_unbiased_under_the_null():
    values = []
    for rep in range(200):
        stream = RandomStream(108).derive("dataset", rep)
        pairs = sample_setup(SyntheticSetup("lgm", 0.0), 64, stream)
        targets = dataset_targets(pairs)
        l = GaussianKernel(median_heuristic(targets))
        kernel = ExpGFDKernel(None, BaseMeasure.standard_gaussian(1))
        k_gram = kernel.gram([g for g, _ in pairs], stream.derive("base"))
        values.append(u_statistic(kccsd_stat_matrix(k_gram, l, pairs)))
    values = np.asarray(values)
    bound = 4.0 * values.std() / np.sqrt(values.size)
    report("criterion 6 null statistic mean within 4 SE of 0", abs(values.mean()) <= bound,
           f"mean {values.mean():.2e}, 4 SE {bound:.2e}")


def test_criterion_07_score_terms_average_to_zero_under_the_model():
    draws = 100_000
    rng = np.random.default_rng(109)
    ok = True
    details = []
    for _ in range(5):
        d = int(rng.integers(1, 3))
        p = DiagonalGaussian(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
        q = DiagonalGaussian(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
        y2 = rng.normal(size=d)
        l = GaussianKernel(1.0)
        z = p.sample(draws, RandomStream(110).derive("stein", int(rng.integers(1 << 30))))
        scores = (p.mean[None, :] - z) / p.var[None, :]
        values = h_matrix_between(l, scores, z, q.score(y2)[None, :], y2[None, :])[:, 0]
        bound = 4.0 * values.std() / np.sqrt(draws)
        ok = ok and abs(values.mean()) <= bound
        details.append(f"|mean| {abs(values.mean()):.1e} <= {bound:.1e}")
    report("criterion 7 Stein mean-zero identity", ok, "; ".join(details))


def test_criterion_08_kernel_correctness_oracles():
    problems = []

    # score-divergence estimator vs closed form, 50 seeds, 3 sd / sqrt(m)
    m = 400
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        p = DiagonalGaussian(rng.normal(size=2), rng.uniform(0.5, 2.5, size=2))
        q = DiagonalGaussian(rng.normal(size=2), rng.uniform(0.5, 2.5, size=2))
        z = RandomStream(3000 + seed).derive("base").generator().standard_normal((m, 2))
        per_sample = np.sum((np.stack([p.score(x) for x in z])
                             - np.stack([q.score(x) for x in z])) ** 2, axis=1)
        tol = 3.0 * per_sample.std() / np.sqrt(m)
        if abs(gfd_estimate(p, q, z) - gfd_gaussian_closed(p, q)) > tol:
            problems.append(f"gfd seed {seed}")

    # closed-form Gaussian kernel expectations vs 1e6-sample MC, 3e-3
    rng = np.random.default_rng(111)
    g = DiagonalGaussian(np.array([0.4, -0.2]), np.array([1.1, 0.7]))
    h = DiagonalGaussian(np.array([-0.5, 0.1]), np.array([0.6, 1.8]))
    y = np.array([0.3, -0.8])
    single = gaussian_kernel_single_expectation(g, y, 1.0)
    if abs(single - mc_gaussian_kernel_single(g.mean, g.var, y, 1.0, 1_000_000, rng)) > 3e-3:
        problems.append("single expectation")
    double = gaussian_kernel_double_expectation(g, h, 1.0)
    if abs(double - mc_gaussian_kernel_double(g.mean, g.var, h.mean, h.var, 1.0,
                                              1_000_000, rng)) > 3e-3:
        problems.append("double expectation")

    # sampled vs closed-form exponentiated MMD, 3 / sqrt(m)
    m_mmd = 400
    p = DiagonalGaussian(np.array([0.0]), np.array([1.0]))
    q = DiagonalGaussian(np.array([1.2]), np.array([1.8]))
    closed = exp_mmd(ExpMMDKernel(1.0, GaussianKernel(1.0)), p, q)
    sampled = exp_mmd(ExpMMDKernel(1.0, GaussianKernel(1.0), mode="sampled",
                                   num_samples=m_mmd), p, q,
                      RandomStream(112).derive("mmd"))
    if abs(sampled - closed) > 3.0 / np.sqrt(m_mmd):
        problems.append("sampled mmd")

    # derivative bundles vs central finite differences, 1e-4 relative
    rng = np.random.default_rng(113)
    for kernel_cls in (GaussianKernel, IMQKernel):
        for _ in range(200):
            d = int(rng.integers(1, 4))
            kernel = kernel_cls(rng.uniform(0.5, 2.0))
            y1, y2 = rng.normal(size=d), rng.normal(size=d)
            got = scalar_bundle(kernel, y1, y2)
            want = fd_kernel_bundle(lambda a, b: kernel(a, b), y1, y2)
            for lhs, rhs in zip(got, want):
                err = np.abs(np.asarray(lhs) - np.asarray(rhs))
                if np.any(err > 1e-4 * np.maximum(np.abs(np.asarray(lhs)), 1.0)):
                    problems.append(f"bundle {kernel_cls.__name__}")
    report("criterion 8 kernel correctness oracles", not problems,
           "all oracles within tolerance" if not problems else "; ".join(problems))


def test_criterion_09_gram_matrices_are_psd():
    rng = np.random.default_rng(114)
    diagonal = [DiagonalGaussian(rng.normal(scale=2.0, size=2), rng.uniform(0.5, 2.0, size=2))
                for _ in range(20)]
    isotropic = [DiagonalGaussian(rng.normal(scale=2.0, size=2),
                                  np.full(2, rng.uniform(0.5, 2.0)))
                 for _ in range(20)]
    stream = RandomStream(115)
    kernels = {
        "exp_gfd": (ExpGFDKernel(None, BaseMeasure.standard_gaussian(2)), diagonal),
        "exp_kgfd": (ExpKGFDKernel(None, BaseMeasure.standard_gaussian(2),
                                   GaussianKernel(1.0)), diagonal),
        "exp_mmd": (ExpMMDKernel(None, GaussianKernel(1.0)), diagonal),
        "exp_wasserstein": (ExpWassersteinKernel(None), isotropic),
    }
    details = []
    ok = True
    for name, (kernel, models) in kernels.items():
        matrix = kernel.gram(models, stream.derive(name))
        eigs = np.linalg.eigvalsh(matrix)
        passed = eigs.min() >= -1e-8 * eigs.max()
        ok = ok and passed
        details.append(f"{name} min/max eig {eigs.min():.1e}/{eigs.max():.1e}")
    report("criterion 9 PSD Gram matrices", ok, "; ".join(details))


def test_criterion_10_calibrated_models_are_conservative():
    n = 2000
    pairs = sample_setup(SyntheticSetup("lgm", 0.0), n, RandomStream(116).derive("d"))
    details = []
    ok = True
    for alpha in (0.05, 0.1, 0.5):
        rate = coverage_rate(pairs, alpha)
        band = 3.0 * np.sqrt(alpha * (1.0 - alpha) / n)
        passed = abs(rate - (1.0 - alpha)) <= band
        ok = ok and passed
        details.append(f"alpha={alpha}: {rate:.3f} vs {1 - alpha} +- {band:.3f}")
    report("criterion 10 HDR coverage", ok, "; ".join(details))


def test_criterion_11_csv_bytes_identical_across_thread_counts(tmp_path):
    config = tmp_path / "repro.json"
    config.write_text("""
    {
      "setup": {"family": "lgm", "delta": 0.0},
      "n_grid": [16, 24],
      "repetitions": 4,
      "bootstrap": 100,
      "statistic": {"name": "kccsd"},
      "dist_kernel": {"variant": "exp_gfd"},
      "master_seed": 117
    }
    """)
    out1 = tmp_path / "threads1.csv"
    out8 = tmp_path / "threads8.csv"
    code1 = cli(["experiment", "--config", str(config), "--out", str(out1), "--threads", "1"])
    code8 = cli(["experiment", "--config", str(config), "--out", str(out8), "--threads", "8"])
    same = out1.read_bytes() == out8.read_bytes()
    report("criterion 11 byte-identical CSV across thread counts",
           code1 == 0 and code8 == 0 and same,
           f"exit codes {code1}/{code8}, bytes equal: {same}")


def test_skce_mala_csv_bytes_identical_across_thread_counts(tmp_path):
    # criterion 11 for the lock-step MALA strategy: one stream per batch label
    config = tmp_path / "mala.json"
    config.write_text("""
    {
      "setup": {"family": "lgm", "delta": 0.0},
      "n_grid": [16, 24],
      "repetitions": 3,
      "bootstrap": 100,
      "statistic": {"name": "skce", "strategy": {"mode": "mala", "samples": 2,
                    "step_size": 0.01, "steps": 5, "burn_in": 0}},
      "dist_kernel": {"variant": "exp_gfd"},
      "master_seed": 117
    }
    """)
    out1 = tmp_path / "threads1.csv"
    out2 = tmp_path / "threads2.csv"
    assert cli(["experiment", "--config", str(config), "--out", str(out1), "--threads", "1"]) == 0
    assert cli(["experiment", "--config", str(config), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


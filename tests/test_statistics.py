import math
import re
import tracemalloc

import numpy as np
import pytest

from steincal import kernels, statistics
from steincal.kernels import (
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    GaussianKernel,
    IMQKernel,
    UnsupportedKernelError,
    median_heuristic,
)
from steincal.models import (
    Dataset,
    NumericalError,
    ScoredBatch,
    ScoredDensity,
    SyntheticSetup,
    sample_setup,
)
from steincal.sampling import CapabilityError, MalaConfig, RandomStream, run_mala
from steincal.statistics import (
    KCCSD,
    SKCE,
    ClosedFormGaussian,
    ExactSampler,
    MalaSampler,
    _bracket_rows,
    _stein_rows,
    _strategy_batches,
    kccsd_stat_matrix,
    run_calibration_test,
    skce_stat_matrix,
    u_statistic,
    wild_bootstrap,
)

from gaussians import dataset, g1, stack
from oracles import (
    dense_closed_form_bracket,
    dense_mirrored_upper,
    dense_sampled_bracket,
    dense_stein_terms,
    dense_wild_bootstrap,
    fd_h_term,
    gaussian_kernel_expectation,
    stein_terms_by_differences,
)


def stein_blocks(l, scores, targets):
    """The Stein terms of one stack as a test streams them: ``(start, stop, block)`` for
    each cut of ``row_blocks(n, n)``, the block holding rows [start, stop) and columns
    [start, n)."""
    n = len(targets)
    rows = _stein_rows(l, scores, targets)
    return [(start, stop, rows(start, stop)) for start, stop in kernels.row_blocks(n, n)]


def stein_terms(l, scores, targets):
    """Stein terms of every ordered pair of one stack, diagonal included: the row blocks
    above the diagonal, mirrored."""
    n = len(targets)
    upper = np.zeros((n, n))
    for start, stop, block in stein_blocks(l, scores, targets):
        upper[start:stop, start:] = block
    return np.triu(upper) + np.triu(upper, 1).T


def stein_between(l, scores1, targets1, scores2, targets2):
    """Stein terms between two stacks: the off-diagonal block of the joined stack's."""
    n1 = len(targets1)
    return stein_terms(l, np.vstack([scores1, scores2]),
                       np.vstack([targets1, targets2]))[:n1, n1:]


def h_term(l, p, y, q, y2):
    """Stein term between (p, y) and (q, y2), read off the two-row stack."""
    y, y2 = np.atleast_1d(y), np.atleast_1d(y2)
    return _stein_rows(l, np.vstack([p.batch.score(y), q.batch.score(y2)]),
                       np.stack([y, y2]))(0, 1)[0, 1]


def stein_matrix(l, pairs):
    """Stein terms of every ordered pair of a dataset, diagonal included."""
    data = dataset(pairs)
    return stein_terms(l, data.models.rows().score_batch(data.targets), data.targets)


def stein_against(l, q, y2, p, z):
    """The Stein terms between draws z_i, scored under p, and one pair (q, y2): row 0 of
    the stack with (q, y2) first, which by symmetry holds them."""
    scores = np.vstack([q.batch.score(y2), (p.mean[None, :] - z) / p.var[None, :]])
    return _stein_rows(l, scores, np.vstack([y2[None, :], z]))(0, 1)[0, 1:]


def skce_pair(k, l, p, y, q, y2, strategy, stream=None):
    """Calibration-error term between (p, y) and (q, y2), read off a two-pair matrix;
    p and q are both Gaussians or both score-only densities."""
    if isinstance(p, ScoredDensity):
        data = Dataset(ScoredBatch([p, q]), np.stack([y, y2]))
    else:
        data = dataset([(p, y), (q, y2)])
    return skce_stat_matrix(np.full((2, 2), float(k)), l, data, strategy, stream)[0, 1]


def random_dataset(rng, count, dim):
    pairs = []
    for _ in range(count):
        g = g1(rng.normal(size=dim), rng.uniform(0.5, 2.0, size=dim))
        pairs.append((g, rng.normal(size=dim)))
    return pairs


class TestHTerm:
    def test_only_the_mixed_derivative_survives_at_the_mode(self):
        g = g1(0.0, 1.0)
        got = h_term(GaussianKernel(1.0), g, np.zeros(1), g, np.zeros(1))
        assert got == pytest.approx(1.0)

    def test_unit_distance_value(self):
        g = g1(0.0, 1.0)
        got = h_term(GaussianKernel(1.0), g, np.zeros(1), g, np.ones(1))
        assert got == pytest.approx(-np.exp(-0.5))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = g1(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
            q = g1(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
            y, y2 = rng.normal(size=2), rng.normal(size=2)
            l = GaussianKernel(1.2)
            assert h_term(l, p, y, q, y2) == pytest.approx(h_term(l, q, y2, p, y))

    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_matches_finite_difference_oracle(self, kernel_cls):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            l = kernel_cls(rng.uniform(0.7, 1.8))
            p = g1(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
            q = g1(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            got = h_term(l, p, y, q, y2)
            want = fd_h_term(lambda a, b: l(a, b), lambda x: p.batch.score(x)[0],
                             lambda x: q.batch.score(x)[0], y, y2)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_h_matrix_matches_per_pair_terms(self):
        rng = np.random.default_rng(3)
        pairs = random_dataset(rng, 3, 2)
        l = IMQKernel(1.0)
        matrix = stein_matrix(l, pairs)
        for i, (p, y) in enumerate(pairs):
            for j, (q, y2) in enumerate(pairs):
                assert matrix[i, j] == pytest.approx(h_term(l, p, y, q, y2))

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_matrix_equals_terms_assembled_from_the_bundle(self, d, kernel_cls):
        # the (n1, n2) product form against the (n1, n2, d) derivative bundle
        rng = np.random.default_rng(d)
        y1, y2 = 3.0 + rng.normal(size=(30, d)), 3.0 + rng.normal(size=(20, d))
        s1, s2 = rng.normal(size=(30, d)), rng.normal(size=(20, d))
        l = kernel_cls(0.9 * np.sqrt(d))
        for got, (sa, a, sb, b) in ((stein_between(l, s1, y1, s2, y2), (s1, y1, s2, y2)),
                                    (stein_terms(l, s1, y1), (s1, y1, s1, y1))):
            want = stein_terms_by_differences(l._f, l._f1, l._f2, sa, a, sb, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_row_blocks_match_the_whole_matrix(self, d, kernel_cls, monkeypatch):
        # 48-row blocks ending inside the matrix; the shapes keep every product small
        # enough that BLAS runs it on one thread (see kernels.row_blocks). The first
        # block holds whole rows, so it holds the whole matrix's bytes. A later block
        # holds the columns [start, n) only, and BLAS may round the last columns of that
        # narrower product otherwise (at n = 207 the last 7, by up to 1.5e-13 relative)
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)
        rng = np.random.default_rng(50 + d)
        y1, y2, y3 = (3.0 + rng.normal(size=(n, d)) for n in (130, 77, 110))
        s1, s2, s3 = (rng.normal(size=(n, d)) for n in (130, 77, 110))
        l = kernel_cls(0.9 * np.sqrt(d))
        for y, s in ((np.vstack([y1, y2]), np.vstack([s1, s2])),
                     (np.vstack([y3, y1]), np.vstack([s3, s1])), (y1, s1)):
            assert len(kernels.row_blocks(len(y), len(y))) > 1
            want = dense_stein_terms(l._f, l._f1, l._f2, s, y, s, y, same=True)
            blocks = stein_blocks(l, s, y)
            (_, first_stop, first), *_ = blocks
            assert np.array_equal(first, want[:first_stop])
            for start, stop, block in blocks:
                assert (np.max(np.abs(block - want[start:stop, start:]))
                        <= 1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_one_block_of_one_stack_is_a_plain_product(self, kernel_cls):
        # one block covers all rows, where numpy would run scores @ scores.T as a
        # symmetric rank-k update; at n = 130, d = 5 that moves the last bits
        rng = np.random.default_rng(57)
        y, s = 3.0 + rng.normal(size=(130, 5)), rng.normal(size=(130, 5))
        assert len(kernels.row_blocks(130, 130)) == 1
        l = kernel_cls(2.0)
        want = dense_stein_terms(l._f, l._f1, l._f2, s, y, s, y, same=True)
        assert np.array_equal(_stein_rows(l, s, y)(0, 130), want)

    def test_stein_identity_mean_zero(self):
        # expectation of the pairwise term over y ~ p vanishes for fixed (p', y')
        draws = 100_000
        rng_models = np.random.default_rng(4)
        p = g1(rng_models.normal(size=1), rng_models.uniform(0.5, 2.0, size=1))
        q = g1(rng_models.normal(size=1), rng_models.uniform(0.5, 2.0, size=1))
        y2 = rng_models.normal(size=1)
        l = GaussianKernel(1.0)
        z = p.batch.sample(draws, RandomStream(44).derive("stein"))[0]
        values = stein_against(l, q, y2, p, z)
        assert abs(values.mean()) <= 4.0 * values.std() / np.sqrt(draws)

    def test_correction_terms_vanish_for_the_weighted_kernel(self):
        # the weighted pairwise term k(p,p') h keeps the mean-zero property,
        # so the calibration-error correction terms for it are zero
        draws = 100_000
        p, q = g1(0.3, 1.4), g1(-0.5, 0.8)
        y2 = np.array([0.7])
        l = GaussianKernel(1.1)
        k_value = 0.6  # arbitrary fixed distribution-kernel value
        z = p.batch.sample(draws, RandomStream(45).derive("stein"))[0]
        values = k_value * stein_against(l, q, y2, p, z)
        assert abs(values.mean()) <= 4.0 * values.std() / np.sqrt(draws)


def _bootstrap(matrix):
    return wild_bootstrap(matrix, 10, 0.05, RandomStream(0))


_READERS = [pytest.param(u_statistic, id="u_statistic"),
            pytest.param(_bootstrap, id="wild_bootstrap")]


class TestStatMatrix:
    def test_validation(self):
        # the readers check the plain (n, n) arrays the producers return
        for read in (u_statistic, _bootstrap):
            for shape in [(2, 3), (4,), (2, 2, 2)]:
                with pytest.raises(ValueError, match="must be square"):
                    read(np.zeros(shape))
            for n in (0, 1):
                with pytest.raises(ValueError, match="at least two samples"):
                    read(np.zeros((n, n)))

    @pytest.mark.parametrize("read", _READERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_readers_reject_a_non_finite_matrix(self, read, bad):
        matrix = np.zeros((3, 3))
        matrix[0, 2] = matrix[2, 0] = bad
        with pytest.raises(NumericalError, match="statistic matrix is not finite"):
            read(matrix)

    def test_producers_return_plain_arrays(self):
        pairs = random_dataset(np.random.default_rng(9), 3, 1)
        l = GaussianKernel(1.0)
        for matrix in (kccsd_stat_matrix(np.ones((3, 3)), l, dataset(pairs)),
                       skce_stat_matrix(np.ones((3, 3)), l, dataset(pairs),
                                        ClosedFormGaussian())):
            assert type(matrix) is np.ndarray and matrix.shape == (3, 3)

    def test_kccsd_matrix_zeroes_the_diagonal(self):
        rng = np.random.default_rng(5)
        pairs = random_dataset(rng, 4, 1)
        matrix = kccsd_stat_matrix(np.ones((4, 4)), GaussianKernel(1.0), dataset(pairs))
        assert np.all(np.diag(matrix) == 0.0)

    def test_constant_distribution_kernel_recovers_plain_stein_matrix(self):
        rng = np.random.default_rng(6)
        pairs = random_dataset(rng, 5, 2)
        l = GaussianKernel(1.0)
        matrix = kccsd_stat_matrix(np.ones((5, 5)), l, dataset(pairs))
        want = stein_matrix(l, pairs)
        np.fill_diagonal(want, 0.0)
        assert matrix == pytest.approx(want)

    def test_entries_are_gram_times_stein_terms(self):
        rng = np.random.default_rng(7)
        pairs = random_dataset(rng, 3, 1)
        k_gram = ExpGFDKernel(1.0, base_samples=rng.normal(size=(5, 1))).gram(
            stack([g for g, _ in pairs]))
        l = GaussianKernel(0.9)
        matrix = kccsd_stat_matrix(k_gram, l, dataset(pairs))
        for i, (p, y) in enumerate(pairs):
            for j, (q, y2) in enumerate(pairs):
                if i != j:
                    assert matrix[i, j] == pytest.approx(
                        k_gram[i, j] * h_term(l, p, y, q, y2))

    def test_gram_shape_mismatch(self):
        pairs = random_dataset(np.random.default_rng(8), 3, 1)
        with pytest.raises(ValueError):
            kccsd_stat_matrix(np.ones((2, 2)), GaussianKernel(1.0), dataset(pairs))


class TestPeakMemory:
    """Traced peak memory of the statistic stage at n = 1024, d = 5, above its level on entry."""

    @staticmethod
    def traced_peak_floats(call) -> float:
        call()  # first call outside the trace: imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 8.0
        finally:
            tracemalloc.stop()

    def test_kccsd_matrix_holds_little_beyond_its_output(self):
        n = 1024
        data = sample_setup(SyntheticSetup("mgm", 0.0), n, RandomStream(60).derive("d"))
        k_gram = np.ones((n, n))
        peak = self.traced_peak_floats(
            lambda: kccsd_stat_matrix(k_gram, GaussianKernel(1.0), data))
        assert peak <= 1.5 * n * n

    def test_sampled_bracket_never_holds_the_cross_gram(self):
        n, m = 1024, 5
        data = sample_setup(SyntheticSetup("mgm", 0.0), n, RandomStream(61).derive("d"))

        def all_row_blocks():
            rows = _bracket_rows(GaussianKernel(1.0), data, ExactSampler(m), RandomStream(62))
            for start, stop in kernels.row_blocks(n, n):
                rows(start, stop)
        peak = self.traced_peak_floats(all_row_blocks)
        assert peak <= 0.5 * (n * m) ** 2

    @pytest.mark.parametrize("strategy", [ExactSampler(5), ClosedFormGaussian()],
                             ids=["exact_sampler", "closed_form"])
    def test_skce_test_holds_no_square_matrix(self, strategy):
        # the signs, a statistic block and tiles of the bracket's terms (each combined
        # into the block as it is formed) beside the sample batches' rows; the median
        # sigma's selection holds less
        n, b = 1024, 100
        data = sample_setup(SyntheticSetup("mgm", 0.0), n, RandomStream(65).derive("d"))
        kernel = ExpGFDKernel(None)
        peak = self.traced_peak_floats(lambda: run_calibration_test(
            data, kernel, GaussianKernel(1.0), SKCE(strategy), 0.05, b, RandomStream(66)))
        assert peak <= 0.6 * n * n


    @pytest.mark.parametrize("sigma", [None, 1.0], ids=["median_sigma", "fixed_sigma"])
    def test_kccsd_test_holds_no_square_matrix(self, sigma):
        # the (B + 1, n) signs, a statistic block and the Stein terms' temporaries (three
        # blocks), and the score features and per-row arrays (under one more block); the
        # median sigma's selection, freed before the bootstrap, holds less
        n, b = 1024, 100
        data = sample_setup(SyntheticSetup("mgm", 0.0), n, RandomStream(63).derive("d"))
        (start, stop), *_ = kernels.row_blocks(n, n)
        assert stop < n
        kernel = ExpGFDKernel(sigma)
        peak = self.traced_peak_floats(lambda: run_calibration_test(
            data, kernel, GaussianKernel(1.0), KCCSD(), 0.05, b, RandomStream(64)))
        assert peak <= (b + 1) * n + 5 * (stop - start) * n

    def test_kccsd_test_with_both_medians_holds_what_it_holds_with_both_fixed(self):
        # the medians of sigma and gamma are selected over tiles formed on demand, each
        # in a few row blocks' worth of floats; a packed upper triangle would hold
        # n(n - 1)/2 = 8.4M floats here, against the test's (B + 1) n signs and blocks
        n, b = 4096, 100
        data = sample_setup(SyntheticSetup("mgm", 0.0), n, RandomStream(67).derive("d"))

        def kccsd(sigma, gamma):
            def call():
                bandwidth = median_heuristic(data.targets) if gamma is None else gamma
                run_calibration_test(data, ExpGFDKernel(sigma), GaussianKernel(bandwidth),
                                     KCCSD(), 0.05, b, RandomStream(68))
            return call
        fixed = self.traced_peak_floats(kccsd(1.0, 1.0))
        assert self.traced_peak_floats(kccsd(None, None)) <= 1.5 * fixed


class TestStatMatrixOut:
    """The statistic matrices are the Gram times the pair-row blocks that a test streams,
    mirrored. Blocks of 48 rows end inside the matrices."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)

    @staticmethod
    def gram_and_data(n=130):
        data = sample_setup(SyntheticSetup("mgm", 0.2), n, RandomStream(70).derive("d"))
        kernel = ExpGFDKernel(None)
        return kernel.gram(data.models, RandomStream(71)), data

    def test_kccsd_matrix_mirrors_the_upper_triangle(self):
        k_gram, data = self.gram_and_data()
        l = GaussianKernel(2.0)
        n = len(data)
        assert len(kernels.row_blocks(n, n)) > 1
        rows = _stein_rows(l, data.models.rows().score_batch(data.targets), data.targets)
        stein = np.zeros((n, n))
        for start, stop in kernels.row_blocks(n, n):
            stein[start:stop, start:] = rows(start, stop)
        before = k_gram.copy()
        matrix = kccsd_stat_matrix(k_gram, l, data)
        assert np.array_equal(k_gram, before)  # the Gram is only read
        assert np.array_equal(matrix, dense_mirrored_upper(k_gram * stein))
        assert np.array_equal(matrix, matrix.T)

    def test_skce_matrix_mirrors_the_upper_triangle(self):
        k_gram, data = self.gram_and_data()
        l = GaussianKernel(2.0)
        n = len(data)
        rows = _bracket_rows(l, data, ClosedFormGaussian(), None)
        bracket = np.zeros((n, n))
        for start, stop in kernels.row_blocks(n, n):
            bracket[start:stop, start:] = rows(start, stop)
        want = dense_mirrored_upper(k_gram * bracket)
        assert np.array_equal(skce_stat_matrix(k_gram, l, data, ClosedFormGaussian()), want)


class TestUStatistic:
    def test_two_samples(self):
        m = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert u_statistic(m) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert u_statistic(np.zeros((5, 5))) == 0.0

    def test_equals_average_over_ordered_pairs(self):
        rng = np.random.default_rng(9)
        half = rng.normal(size=(4, 4))
        m = half + half.T
        np.fill_diagonal(m, 0.0)
        ordered = [m[i, j] for i in range(4) for j in range(4) if i != j]
        assert u_statistic(m) == pytest.approx(np.mean(ordered))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        half = rng.normal(size=(6, 6))
        m = half + half.T
        np.fill_diagonal(m, 0.0)
        perm = rng.permutation(6)
        assert u_statistic(m[np.ix_(perm, perm)]) == pytest.approx(u_statistic(m))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            u_statistic(np.zeros((1, 1)))

    def test_ignores_the_diagonal(self):
        m = np.array([[5.0, 1.0, 2.0], [1.0, -7.0, 3.0], [2.0, 3.0, 9.0]])
        assert u_statistic(m) == pytest.approx(2.0)


class TestSkceGTerm:
    def test_point_mass_bracket_vanishes(self):
        g = g1([0.5], [1e-14])
        got = skce_pair(1.0, GaussianKernel(1.0), g, g.mean, g, g.mean,
                          ClosedFormGaussian())
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_closed_form_standard_value(self):
        # 1 - 2 sqrt(1/2) + sqrt(1/3), from the Gaussian kernel integrals
        g = g1(0.0, 1.0)
        got = skce_pair(1.0, GaussianKernel(1.0), g, np.zeros(1), g, np.zeros(1),
                          ClosedFormGaussian())
        want = 1.0 - 2.0 * np.sqrt(0.5) + np.sqrt(1.0 / 3.0)
        assert got == pytest.approx(want)
        assert want == pytest.approx(0.163137, abs=1e-6)

    def test_closed_form_mc_cross_check(self):
        rng = np.random.default_rng(11)
        p, q = g1(0.4, 1.3), g1(-0.2, 0.6)
        y, y2 = np.array([0.1]), np.array([-0.7])
        l = GaussianKernel(1.0)
        got = skce_pair(2.0, l, p, y, q, y2, ClosedFormGaussian())
        n = 1_000_000
        zp = p.mean + np.sqrt(p.var) * rng.standard_normal((n, 1))
        zq = q.mean + np.sqrt(q.var) * rng.standard_normal((n, 1))
        bracket = (l(y, y2)
                   - np.exp(-(zp - y2) ** 2 / 2.0).mean()
                   - np.exp(-(zq - y) ** 2 / 2.0).mean()
                   + np.exp(-(zp - zq) ** 2 / 2.0).mean())
        assert got == pytest.approx(2.0 * bracket, abs=3e-3)

    def test_exact_sampler_converges_to_closed_form(self):
        p, q = g1(0.2, 1.0), g1(-0.4, 1.5)
        y, y2 = np.array([0.3]), np.array([-0.1])
        l = GaussianKernel(1.0)
        closed = skce_pair(1.0, l, p, y, q, y2, ClosedFormGaussian())
        m = 2048
        got = skce_pair(1.0, l, p, y, q, y2, ExactSampler(m),
                          RandomStream(12).derive("sampler"))
        assert abs(got - closed) <= 3.0 / np.sqrt(m)

    def test_closed_form_rejects_imq_kernel(self):
        g = g1(0.0, 1.0)
        with pytest.raises(UnsupportedKernelError):
            skce_pair(1.0, IMQKernel(1.0), g, np.zeros(1), g, np.zeros(1),
                        ClosedFormGaussian())

    def test_closed_form_rejects_non_gaussian_models(self):
        sd = ScoredDensity(dim=1, score=lambda y: -y)
        with pytest.raises(CapabilityError):
            skce_pair(1.0, GaussianKernel(1.0), sd, np.zeros(1), sd, np.zeros(1),
                        ClosedFormGaussian())

    @pytest.mark.parametrize("make", [
        pytest.param(ExactSampler, id="exact_sampler"),
        pytest.param(lambda m: MalaSampler(m, MalaConfig(step_size=0.1)), id="mala")])
    @pytest.mark.parametrize("num_samples", [0, 2.5, True, "3"],
                             ids=["zero", "float", "bool", "string"])
    def test_samples_must_be_a_count(self, make, num_samples):
        with pytest.raises(ValueError, match="num_samples must be a count >= 1, got "
                                             + re.escape(repr(num_samples))):
            make(num_samples)
        assert make(np.int64(3)).num_samples == 3

    def test_exact_sampler_requires_sampler(self):
        sd = ScoredDensity(dim=1, score=lambda y: -y)
        with pytest.raises(CapabilityError):
            skce_pair(1.0, GaussianKernel(1.0), sd, np.zeros(1), sd, np.zeros(1),
                        ExactSampler(4), RandomStream(0))

    def test_mala_requires_log_density(self):
        sd = ScoredDensity(dim=1, score=lambda y: -y)
        strategy = MalaSampler(2, MalaConfig(step_size=0.1))
        with pytest.raises(CapabilityError):
            skce_pair(1.0, GaussianKernel(1.0), sd, np.zeros(1), sd, np.zeros(1),
                        strategy, RandomStream(0))


class TestSkceMatrix:
    def test_closed_form_matches_per_pair_terms(self):
        rng = np.random.default_rng(13)
        pairs = random_dataset(rng, 4, 1)
        l = GaussianKernel(1.1)
        k_gram = np.exp(-0.1 * np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))))
        matrix = skce_stat_matrix(k_gram, l, dataset(pairs), ClosedFormGaussian())
        for i, (p, y) in enumerate(pairs):
            for j, (q, y2) in enumerate(pairs):
                if i != j:
                    gamma = l.bandwidth
                    bracket = (np.exp(-np.sum((y - y2) ** 2) / (2.0 * gamma ** 2))
                               - gaussian_kernel_expectation(p.mean, p.var, y2, gamma)
                               - gaussian_kernel_expectation(q.mean, q.var, y, gamma)
                               + gaussian_kernel_expectation(p.mean, p.var + q.var, q.mean,
                                                             gamma))
                    want = k_gram[i, j] * bracket
                    assert matrix[i, j] == pytest.approx(want)

    def test_sampled_matrix_is_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(14)
        pairs = random_dataset(rng, 5, 1)
        matrix = skce_stat_matrix(np.ones((5, 5)), GaussianKernel(1.0), dataset(pairs),
                                  ExactSampler(3), RandomStream(15).derive("s"))
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    @staticmethod
    def upper_entries_of_the_row_blocks(rows, n):
        """The entries above the diagonal of every row block of a bracket row function,
        and of an (n, n) matrix at the same places."""
        blocks = kernels.row_blocks(n, n)
        got = np.concatenate([rows(start, stop)[np.triu_indices(stop - start, 1, n - start)]
                              for start, stop in blocks])

        def of(matrix):
            return np.concatenate([matrix[start:stop, start:][
                np.triu_indices(stop - start, 1, n - start)] for start, stop in blocks])
        return got, of

    @pytest.mark.parametrize("family, m", [("lgm", 6), ("mgm", 4)])  # d = 1 and d = 5
    def test_sampled_bracket_row_blocks_are_bit_identical(self, family, m, monkeypatch):
        # each term is formed 48 rows (48 / m models) at a time; the shapes keep every
        # product small enough that BLAS runs it on one thread
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)
        data = sample_setup(SyntheticSetup(family, 0.3), 30, RandomStream(19).derive("d"))
        assert len(kernels.row_blocks(30 * m, 30 * m, multiple=m)) > 1
        l, strategy = GaussianKernel(1.1), ExactSampler(m)
        got, of = self.upper_entries_of_the_row_blocks(
            _bracket_rows(l, data, strategy, RandomStream(20)), 30)
        batches = _strategy_batches(data.models, strategy, RandomStream(20))
        assert np.array_equal(got, of(dense_sampled_bracket(l._f, data.targets, *batches)))

    @pytest.mark.parametrize("family", ["lgm", "mgm"])
    def test_closed_form_bracket_row_blocks_are_bit_identical(self, family, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)
        data = sample_setup(SyntheticSetup(family, 0.3), 130, RandomStream(21).derive("d"))
        l = GaussianKernel(1.1)
        got, of = self.upper_entries_of_the_row_blocks(
            _bracket_rows(l, data, ClosedFormGaussian(), None), 130)
        want = dense_closed_form_bracket(l._f, data.targets, data.models.means,
                                         data.models.variances, 1.1)
        assert np.array_equal(got, of(want))

    def test_closed_form_bracket_tiles_cut_inside_a_row_block_are_bit_identical(
            self, monkeypatch):
        # one row block of 130 rows, whose (rows, columns, 5) tiles are 48 rows high:
        # the tiles below the first start their columns at their own first row
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 130 * 96)
        assert kernels.row_blocks(130, 130) == [(0, 130)]
        assert len(kernels.row_blocks(130, 130 * 5)) == 3
        data = sample_setup(SyntheticSetup("mgm", 0.3), 130, RandomStream(22).derive("d"))
        l = GaussianKernel(1.1)
        got, of = self.upper_entries_of_the_row_blocks(
            _bracket_rows(l, data, ClosedFormGaussian(), None), 130)
        want = dense_closed_form_bracket(l._f, data.targets, data.models.means,
                                         data.models.variances, 1.1)
        assert np.array_equal(got, of(want))

    def test_exact_sampler_matrix_converges_to_closed_form(self):
        rng = np.random.default_rng(16)
        pairs = random_dataset(rng, 4, 1)
        l = GaussianKernel(1.0)
        closed = skce_stat_matrix(np.ones((4, 4)), l, dataset(pairs), ClosedFormGaussian())
        m = 1024
        sampled = skce_stat_matrix(np.ones((4, 4)), l, dataset(pairs), ExactSampler(m),
                                   RandomStream(17).derive("s"))
        assert np.max(np.abs(sampled - closed)) <= 3.0 / np.sqrt(m)

    def test_mala_batches_are_one_run_with_the_bytes_of_a_run_per_label(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_mala(*args)
        monkeypatch.setattr(statistics, "run_mala", counted)
        data = sample_setup(SyntheticSetup("mgm", 0.3), 9, RandomStream(23).derive("d"))
        strategy = MalaSampler(3, MalaConfig(step_size=0.2, n_steps=2, burn_in=1))
        stream = RandomStream(24).derive("mala")
        batches = _strategy_batches(data.models, strategy, stream)
        assert len(calls) == 1 and len(batches) == 4
        centers = data.models.centers()
        for batch, label in zip(batches, ("batch-a", "batch-b", "batch-c", "batch-d")):
            child = stream.derive(label)
            init = centers + child.derive("init").generator().standard_normal(centers.shape)
            own = run_mala(data.models.rows(), strategy.config, init, 3, child.derive("chain"))
            assert np.array_equal(batch, own.samples)

    def test_mala_strategy_runs_on_gaussian_models(self):
        rng = np.random.default_rng(18)
        pairs = random_dataset(rng, 4, 1)
        strategy = MalaSampler(2, MalaConfig(step_size=0.01, n_steps=5))
        matrix = skce_stat_matrix(np.ones((4, 4)), GaussianKernel(1.0), dataset(pairs),
                                  strategy, RandomStream(19).derive("m"))
        assert np.array_equal(matrix, matrix.T)

    def test_sampled_strategy_needs_stream(self):
        pairs = random_dataset(np.random.default_rng(20), 3, 1)
        with pytest.raises(ValueError):
            skce_stat_matrix(np.ones((3, 3)), GaussianKernel(1.0), dataset(pairs),
                             ExactSampler(2))


class TestWildBootstrap:
    def test_zero_matrix(self):
        statistic, quantile, p_value = wild_bootstrap(np.zeros((4, 4)), 200, 0.05,
                                                      RandomStream(21).derive("b"))
        assert statistic == 0.0 and quantile == 0.0
        assert p_value == 1.0

    def test_two_sample_two_point_law(self):
        m = np.array([[0.0, 2.5], [2.5, 0.0]])
        statistic, quantile, p_value = wild_bootstrap(m, 500, 0.05, RandomStream(22).derive("b"))
        assert statistic == pytest.approx(2.5)
        # replicates are +-2.5 with equal probability, so the 0.95 quantile is +2.5
        assert quantile == pytest.approx(2.5)
        assert p_value == pytest.approx(0.5, abs=0.1)

    def test_tie_at_the_quantile_rejects(self):
        # statistic equals the quantile here; the pinned rule sends ties to rejection
        data = dataset([(g1(0.0, 1.0), np.array([0.4])), (g1(1.0, 1.0), np.array([0.9]))])
        l = GaussianKernel(1.0)
        kernel = ExpGFDKernel(1.0, base_samples=np.zeros((3, 1)))
        result = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 500, RandomStream(23))
        statistic_sign = np.sign(result.statistic)
        assert result.quantile == pytest.approx(abs(result.statistic))
        if statistic_sign > 0:
            assert result.reject

    def test_constant_sign_replicates_tie_with_the_statistic(self):
        # With positive entries the statistic is the largest replicate, reached
        # exactly by the replicates whose signs are all equal; every other
        # replicate is smaller by far more than rounding. So the p-value counts
        # exactly those ties, the same as for small integer entries, whose
        # sums are exact in floating point.
        rng = np.random.default_rng(30)
        n, b = 10, 200
        for seed in range(200):
            positive = rng.uniform(0.1, 1.0, size=(n, n))
            exact = rng.integers(1, 10, size=(n, n)).astype(float)
            for m in (positive, exact):
                m += m.T
                np.fill_diagonal(m, 0.0)
            stream = RandomStream(seed).derive("b")
            statistic, _, p_value = wild_bootstrap(positive, b, 0.05, stream)
            assert statistic == pytest.approx(u_statistic(positive), rel=1e-14)
            assert p_value == wild_bootstrap(exact, b, 0.05, stream)[-1], seed

    def test_signs_equal_the_masked_uniform_draws(self):
        # signs are -1 where the uniform draw is below 0.5: the same result as setting
        # -1 through a mask of the draws. Small integer entries keep every sum exact, so
        # the whole-matrix quadratic forms match the upper-triangle ones bit for bit
        rng = np.random.default_rng(31)
        half = rng.integers(-9, 10, size=(40, 40)).astype(float)
        m = half + half.T
        np.fill_diagonal(m, 0.0)
        n, b = 40, 300
        for seed in range(5):
            stream = RandomStream(seed).derive("b")
            signs = np.ones((b + 1, n))
            signs[1:][stream.generator().random((b, n)) < 0.5] = -1.0
            values = np.einsum("bi,bi->b", signs @ m, signs) / (n * (n - 1))
            rank = math.ceil(0.9 * b)
            want = (float(values[0]), float(np.sort(values[1:])[rank - 1]),
                    float((1 + np.count_nonzero(values[1:] >= values[0])) / (b + 1)))
            assert wild_bootstrap(m, b, 0.1, stream) == want, seed

    @pytest.mark.parametrize("n", [2, 9, 130])
    def test_any_square_matrix_keeps_its_quadratic_forms(self, n, monkeypatch):
        # an asymmetric matrix with a diagonal is read as (M + M^T) / 2 above the
        # diagonal: the same replicates as s^T M s over the off-diagonal entries
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)
        m = np.random.default_rng(n).normal(size=(n, n))
        stream = RandomStream(32).derive("b")
        got = wild_bootstrap(m, 300, 0.1, stream)
        want = dense_wild_bootstrap(m, 300, 0.1, stream.generator())
        assert got == pytest.approx(want, rel=0, abs=1e-12 * abs(want[1]))
        assert got[2] == want[2]

    def test_determinism(self):
        rng = np.random.default_rng(24)
        half = rng.normal(size=(6, 6))
        m = half + half.T
        np.fill_diagonal(m, 0.0)
        stream = RandomStream(25).derive("b")
        assert wild_bootstrap(m, 300, 0.1, stream) == wild_bootstrap(m, 300, 0.1, stream)

    def test_validation(self):
        with pytest.raises(ValueError):
            wild_bootstrap(np.zeros((3, 3)), 0, 0.05, RandomStream(0))
        with pytest.raises(ValueError):
            wild_bootstrap(np.zeros((3, 3)), 10, 1.5, RandomStream(0))


_STREAMED_KERNELS = {
    "exp_gfd": lambda: ExpGFDKernel(None),
    "exp_kgfd": lambda: ExpKGFDKernel(None, GaussianKernel(2.0)),
    "exp_mmd": lambda: ExpMMDKernel(None, GaussianKernel(2.0)),
    "exp_mmd_sampled": lambda: ExpMMDKernel(None, GaussianKernel(2.0), samples=2),
    "exp_wasserstein": lambda: ExpWassersteinKernel(None),
    "exp_gfd_fixed_sigma": lambda: ExpGFDKernel(3.0),
}


class TestTileStreamedKCCSD:
    """run_calibration_test forms the KCCSD statistic a row block above the diagonal at a
    time, straight into the bootstrap sums. It reads the bytes of the dense pipeline's
    matrix (the Gram and kccsd_stat_matrix). Against the whole-matrix bootstrap oracle it
    agrees to rounding with the same p-value and verdict. Blocks of 48 rows end inside
    the matrix."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)

    @pytest.mark.parametrize("n", [7, 300, 1015])
    @pytest.mark.parametrize("name", sorted(_STREAMED_KERNELS))
    def test_matches_the_dense_pipeline(self, name, n):
        data = sample_setup(SyntheticSetup("mgm", 0.1), n, RandomStream(80).derive("d"))
        kernel, l = _STREAMED_KERNELS[name](), GaussianKernel(2.0)
        stream = RandomStream(81)
        got = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 200, stream)
        matrix = kccsd_stat_matrix(kernel.gram(data.models, stream.derive("base")), l, data)
        assert (got.statistic, got.quantile, got.p_value) == wild_bootstrap(
            matrix, 200, 0.05, stream.derive("bootstrap"))
        statistic, quantile, p_value = dense_wild_bootstrap(
            matrix, 200, 0.05, stream.derive("bootstrap").generator())
        tol = 1e-12 * abs(quantile)
        assert got.statistic == pytest.approx(statistic, rel=0, abs=tol)
        assert got.quantile == pytest.approx(quantile, rel=0, abs=tol)
        assert got.p_value == p_value
        assert got.reject == (statistic >= quantile)


_SKCE_STRATEGIES = {
    "closed_form": ClosedFormGaussian(),
    "exact_sampler": ExactSampler(2),
    "mala": MalaSampler(2, MalaConfig(step_size=0.05, n_steps=3)),
}


class TestTileStreamedSKCE:
    """run_calibration_test forms the SKCE statistic a row block above the diagonal at a
    time, straight into the bootstrap sums, with each bracket term formed for the pairs
    i < j only. It reads the bytes of the dense pipeline's matrix (the Gram and
    skce_stat_matrix); at d = 1 those are the bytes of the whole-matrix bracket. Against
    the whole-matrix bootstrap oracle it agrees to rounding with the same p-value and
    verdict. Blocks of 48 rows end inside the matrix."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)

    @pytest.mark.parametrize("n", [7, 300, 1015])
    @pytest.mark.parametrize("family", ["lgm", "mgm"])  # d = 1 and d = 5
    @pytest.mark.parametrize("name", sorted(_SKCE_STRATEGIES))
    def test_matches_the_dense_pipeline(self, name, family, n):
        data = sample_setup(SyntheticSetup(family, 0.1), n, RandomStream(82).derive("d"))
        kernel, l = ExpMMDKernel(None, GaussianKernel(2.0)), GaussianKernel(2.0)
        strategy = _SKCE_STRATEGIES[name]
        stream = RandomStream(83)
        sampler = stream.derive("mala" if name == "mala" else "sampler")
        got = run_calibration_test(data, kernel, l, SKCE(strategy), 0.05, 200, stream)
        k_gram = kernel.gram(data.models, stream.derive("base"))
        matrix = skce_stat_matrix(k_gram, l, data, strategy, sampler)
        assert (got.statistic, got.quantile, got.p_value) == wild_bootstrap(
            matrix, 200, 0.05, stream.derive("bootstrap"))
        if family == "lgm":
            if name == "closed_form":
                bracket = dense_closed_form_bracket(l._f, data.targets, data.models.means,
                                                    data.models.variances, 2.0)
            else:
                batches = _strategy_batches(data.models, strategy, sampler)
                bracket = dense_sampled_bracket(l._f, data.targets, *batches)
            assert np.array_equal(matrix, dense_mirrored_upper(k_gram * bracket))
        statistic, quantile, p_value = dense_wild_bootstrap(
            matrix, 200, 0.05, stream.derive("bootstrap").generator())
        tol = 1e-12 * abs(quantile)
        assert got.statistic == pytest.approx(statistic, rel=0, abs=tol)
        assert got.quantile == pytest.approx(quantile, rel=0, abs=tol)
        assert got.p_value == p_value
        assert got.reject == (statistic >= quantile)

    def test_a_non_finite_sample_batch_is_a_named_error(self, monkeypatch):
        import steincal.statistics

        real = steincal.statistics._strategy_batches

        def nan_batches(models, strategy, stream):
            batches = real(models, strategy, stream)
            batches[2][:] = np.nan
            return batches
        monkeypatch.setattr(steincal.statistics, "_strategy_batches", nan_batches)
        data = sample_setup(SyntheticSetup("lgm", 0.0), 100, RandomStream(84).derive("d"))
        kernel = ExpMMDKernel(None, GaussianKernel(2.0))
        with pytest.raises(NumericalError, match="statistic matrix is not finite"):
            run_calibration_test(data, kernel, GaussianKernel(2.0), SKCE(ExactSampler(3)),
                                 0.05, 100, RandomStream(85))


class TestRunCalibrationTest:
    def _dataset(self, n, seed=0, delta=0.0):
        return sample_setup(SyntheticSetup("lgm", delta), n, RandomStream(seed).derive("d"))

    def _kernels(self, data):
        l = GaussianKernel(median_heuristic(data.targets))
        kernel = ExpGFDKernel(None)
        return kernel, l

    def test_deterministic_given_stream(self):
        data = self._dataset(32)
        kernel, l = self._kernels(data)
        a = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 200, RandomStream(26))
        b = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 200, RandomStream(26))
        assert a == b

    def test_result_invariants(self):
        data = self._dataset(32)
        kernel, l = self._kernels(data)
        result = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 200, RandomStream(27))
        assert result.reject == (result.statistic >= result.quantile)
        assert 0.0 < result.p_value <= 1.0
        assert result.alpha == 0.05
        assert result.bootstrap_count == 200
        assert result.seed == 27

    def test_matches_manual_pipeline(self):
        data = self._dataset(24, seed=5)
        kernel, l = self._kernels(data)
        stream = RandomStream(28)
        result = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 150, stream)
        k_gram = kernel.gram(data.models, stream.derive("base"))
        matrix = kccsd_stat_matrix(k_gram, l, data)
        assert (result.statistic, result.quantile, result.p_value) == wild_bootstrap(
            matrix, 150, 0.05, stream.derive("bootstrap"))
        assert result.statistic == pytest.approx(u_statistic(matrix))

    def test_skce_path_runs(self):
        data = self._dataset(24, seed=6)
        l = GaussianKernel(median_heuristic(data.targets))
        kernel = ExpMMDKernel(None, GaussianKernel(1.0))
        result = run_calibration_test(data, kernel, l, SKCE(ClosedFormGaussian()),
                                      0.05, 200, RandomStream(29))
        assert np.isfinite(result.statistic)

    def test_statistic_is_unbiased_under_the_null(self):
        values = []
        for seed in range(200):
            data = self._dataset(16, seed=seed)
            kernel, l = self._kernels(data)
            stream = RandomStream(1000 + seed)
            k_gram = kernel.gram(data.models, stream.derive("base"))
            values.append(u_statistic(kccsd_stat_matrix(k_gram, l, data)))
        values = np.asarray(values)
        assert abs(values.mean()) <= 4.0 * values.std() / np.sqrt(values.size)

    def test_needs_two_pairs(self):
        data = dataset([(g1(0.0, 1.0), np.zeros(1))])
        kernel, l = ExpGFDKernel(1.0), GaussianKernel(1.0)
        with pytest.raises(ValueError):
            run_calibration_test(data, kernel, l, KCCSD(), 0.05, 100, RandomStream(0))

    def test_runs_on_score_only_densities(self):
        # models exposed through their score functions alone: no sampler, no
        # log density, as for unnormalised predictive models
        def score_only(mean, var):
            return ScoredDensity(dim=1, score=g1(mean, var).batch.score)

        gaussian = self._dataset(32, seed=9)
        models = gaussian.models
        data = Dataset(ScoredBatch([score_only(mean, var)
                                    for mean, var in zip(models.means, models.variances)]),
                       gaussian.targets)
        l = GaussianKernel(median_heuristic(gaussian.targets))
        kernel = ExpGFDKernel(None)
        result = run_calibration_test(data, kernel, l, KCCSD(), 0.05, 200, RandomStream(30))
        reference = run_calibration_test(gaussian, kernel, l, KCCSD(), 0.05, 200,
                                         RandomStream(30))
        assert result.statistic == pytest.approx(reference.statistic)
        assert result.reject == reference.reject

    def test_score_only_densities_cannot_feed_sampling_strategies(self):
        data = Dataset(ScoredBatch([ScoredDensity(dim=1, score=lambda y: -y)] * 2),
                       np.array([[0.1], [-0.2]]))
        kernel = ExpGFDKernel(1.0)
        with pytest.raises(CapabilityError):
            run_calibration_test(data, kernel, GaussianKernel(1.0),
                                 SKCE(ExactSampler(4)), 0.05, 100, RandomStream(31))

import io

import numpy as np
import pytest

from steincal.harness import read_models, write_dataset
from steincal.kernels import ExpGFDKernel, ExpKGFDKernel, GaussianKernel
from steincal.models import (
    Dataset,
    GaussianBatch,
    ScoredBatch,
    ScoredDensity,
    SyntheticSetup,
    sample_setup,
)
from steincal.sampling import RandomStream
from steincal.statistics import kccsd_stat_matrix, u_statistic

from gaussians import dataset, g1, stack
from oracles import (
    chi_square_quantile,
    chi_square_quantile_bisect,
    coverage_rate,
    fd_gradient,
    hdr_contains,
)


class TestGaussianBatch:
    def test_validation(self):
        # non-positive variances: test_non_finite_or_non_positive_parameters_are_rejected
        with pytest.raises(ValueError):
            GaussianBatch(np.zeros((1, 2)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            GaussianBatch(np.zeros((1, 0)), np.ones((1, 0)))

    @pytest.mark.parametrize("mean, var", [([np.nan], [1.0]), ([0.0], [np.inf]),
                                           ([0.0], [0.0]), ([0.0], [-1.0])],
                             ids=["nan-mean", "inf-var", "zero-var", "negative-var"])
    def test_non_finite_or_non_positive_parameters_are_rejected(self, mean, var):
        with pytest.raises(ValueError):
            GaussianBatch(np.array([[1.0], mean]), np.array([[1.0], var]))

    def test_an_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            GaussianBatch(np.zeros((0, 1)), np.ones((0, 1)))

    @pytest.mark.parametrize("method", ["score", "log_density"])
    @pytest.mark.parametrize("shape", [(3, 1), (1,), (1, 3), ()])
    def test_points_of_another_dimension_are_rejected(self, method, shape):
        batch = GaussianBatch(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="last axis of 2"):
            getattr(batch, method)(np.ones(shape))

    def test_score_vanishes_at_the_mode(self):
        assert g1(0.0, 1.0).batch.score(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_score_1d(self):
        assert g1(1.0, 4.0).batch.score(np.array([3.0]))[0] == pytest.approx(-0.5)

    def test_score_2d(self):
        s = g1([0.0, 0.0], [1.0, 2.0]).batch.score(np.array([1.0, 1.0]))[0]
        assert s == pytest.approx([-1.0, -0.5])

    def test_score_dimension_mismatch(self):
        with pytest.raises(ValueError):
            g1([0.0, 0.0], [1.0, 1.0]).batch.rows().score_batch(np.array([[1.0]]))

    def test_score_matches_finite_differences_of_log_density(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = rng.integers(1, 4)
            g = g1(rng.normal(size=d), rng.uniform(0.5, 3.0, size=d)).batch
            y = rng.normal(size=d)
            exact = g.score(y)[0]
            approx = fd_gradient(lambda x: g.log_density(x)[0], y)
            assert np.all(np.abs(approx - exact) <= 1e-5 * np.maximum(np.abs(exact), 1.0))

    def test_json_round_trip(self):
        g = g1([1.0, -2.0], [0.5, 3.0])
        buffer = io.StringIO()
        write_dataset(dataset([(g, np.zeros(2))]), buffer)
        buffer.seek(0)
        back = read_models(buffer)
        assert np.array_equal(back.means, [g.mean]) and np.array_equal(back.variances, [g.var])

    def test_later_writes_to_the_source_arrays_do_not_reach_the_batch(self):
        means, variances = np.zeros((3, 2)), np.ones((3, 2))
        batch = GaussianBatch(means, variances)
        means[0, 0] = 7.0
        variances[0, 0] = -5.0
        assert batch.means[0, 0] == 0.0 and batch.variances[0, 0] == 1.0

    def test_the_batch_arrays_are_read_only(self):
        batch = GaussianBatch(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            batch.variances[0, 0] = -5.0
        with pytest.raises(ValueError):
            batch.means[1] = 1.0


class TestScoredDensity:
    def test_row_view_log_density_gradient_matches_score(self):
        sd = g1([0.5, -1.0], [1.5, 0.7]).batch.rows()
        rng = np.random.default_rng(8)
        for _ in range(20):
            y = rng.normal(size=2)
            exact = sd.score_batch(y[None])[0]
            approx = fd_gradient(lambda x: sd.log_unnorm_batch(x[None])[0], y)
            assert np.all(np.abs(approx - exact) <= 1e-5 * np.maximum(np.abs(exact), 1.0))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            ScoredDensity(dim=0, score=lambda y: y)


class TestScoredBatch:
    @staticmethod
    def density(dim):
        return ScoredDensity(dim=dim, score=lambda y: -y)

    def test_keeps_the_densities_as_a_tuple(self):
        densities = [self.density(2), self.density(2)]
        batch = ScoredBatch(densities)
        densities.append(self.density(2))
        assert batch.densities == tuple(densities[:2]) and len(batch) == 2 and batch.dim == 2

    def test_an_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            ScoredBatch(())

    def test_a_member_that_is_not_a_scored_density_is_rejected(self):
        with pytest.raises(TypeError, match="GaussianBatch"):
            ScoredBatch((self.density(1), g1(0.0, 1.0).batch))

    def test_members_of_different_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            ScoredBatch((self.density(1), self.density(2)))


class TestDataset:
    def test_models_must_be_a_batch(self):
        with pytest.raises(TypeError, match="ModelBatch"):
            Dataset([ScoredDensity(dim=1, score=lambda y: -y)], np.zeros((1, 1)))

    def test_targets_must_match_the_models(self):
        with pytest.raises(ValueError, match="targets have shape"):
            Dataset(g1(0.0, 1.0).batch, np.zeros((2, 1)))


class TestSyntheticSetups:
    def test_family_dimensions(self):
        dims = {"mgm": 5, "lgm": 1, "hgm": 1, "qgm": 1}
        for family, dy in dims.items():
            data = sample_setup(SyntheticSetup(family), 3, RandomStream(0).derive("d"))
            assert data.models.dim == dy and data.targets.shape == (3, dy)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSetup("nope")
        with pytest.raises(ValueError):
            SyntheticSetup("lgm", delta=-0.1)
        with pytest.raises(ValueError):
            SyntheticSetup("mgm", mgm_shift="some")

    def test_sampling_is_deterministic(self):
        setup = SyntheticSetup("hgm", 0.3)
        stream = RandomStream(4).derive("d")
        a = sample_setup(setup, 10, stream)
        b = sample_setup(setup, 10, stream)
        assert np.array_equal(a.models.means, b.models.means)
        assert np.array_equal(a.models.variances, b.models.variances)
        assert np.array_equal(a.targets, b.targets)

    def test_delta_shifts_lgm_means_by_delta(self):
        stream = RandomStream(1).derive("d")
        base = sample_setup(SyntheticSetup("lgm", 0.0), 50, stream)
        shifted = sample_setup(SyntheticSetup("lgm", 2.0), 50, stream)
        assert shifted.models.means - base.models.means == pytest.approx(np.full((50, 1), 2.0))
        assert np.array_equal(base.targets, shifted.targets)

    def test_lgm_mean_spread_matches_weighted_inputs(self):
        # mean = sum_i i * x_i with x standard normal, so Var(mean) = 55
        data = sample_setup(SyntheticSetup("lgm", 0.0), 20_000, RandomStream(2).derive("d"))
        means = data.models.means[:, 0]
        assert np.var(means) == pytest.approx(55.0, rel=0.05)

    def test_mgm_shift_direction(self):
        stream = RandomStream(3).derive("d")
        base = sample_setup(SyntheticSetup("mgm", 0.0), 20, stream)
        all_dims = sample_setup(SyntheticSetup("mgm", 0.5, mgm_shift="all"), 20, stream)
        first_only = sample_setup(SyntheticSetup("mgm", 0.5, mgm_shift="first"), 20, stream)
        for g0, ga, gf in zip(base.models.means, all_dims.models.means, first_only.models.means):
            assert ga - g0 == pytest.approx(0.5 * np.ones(5))
            assert gf - g0 == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.0])

    def test_mgm_miscalibration_shifts_targets_by_minus_delta_c(self):
        delta = 0.5
        data = sample_setup(SyntheticSetup("mgm", delta), 4000, RandomStream(6).derive("d"))
        resid = data.targets - data.models.means
        tol = 4.0 / np.sqrt(4000)
        assert np.all(np.abs(resid.mean(axis=0) + delta) < tol)

    def test_qgm_delta_removes_the_quadratic_term(self):
        stream = RandomStream(9).derive("d")
        base = sample_setup(SyntheticSetup("qgm", 0.0), 5000, stream)
        flat = sample_setup(SyntheticSetup("qgm", 1.0), 5000, stream)
        diff = base.models.means[:, 0] - flat.models.means[:, 0]
        # difference is 0.1 x^2 with x ~ U(-2, 2)
        assert np.all(diff >= -1e-12) and np.all(diff <= 0.4 + 1e-12)
        assert diff.mean() == pytest.approx(0.1 * 4.0 / 3.0, abs=0.01)

    def test_hgm_delta_only_inflates_variances(self):
        stream = RandomStream(10).derive("d")
        base = sample_setup(SyntheticSetup("hgm", 0.0), 200, stream)
        bumpy = sample_setup(SyntheticSetup("hgm", 1.0), 200, stream)
        assert np.array_equal(base.models.means, bumpy.models.means)
        assert np.all(base.models.variances == 1.0)
        assert np.all((1.0 < bumpy.models.variances) & (bumpy.models.variances <= 11.0))

    @pytest.mark.parametrize("family", ["mgm", "lgm", "hgm", "qgm"])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_calibrated_setups_have_nominal_coverage(self, family, alpha):
        n = 2000
        data = sample_setup(SyntheticSetup(family, 0.0), n, RandomStream(13).derive(family))
        rate = coverage_rate(data.models.means, data.models.variances, data.targets, alpha)
        band = 3.0 * np.sqrt(alpha * (1.0 - alpha) / n)
        assert abs(rate - (1.0 - alpha)) <= band


class TestHDR:
    def test_quantile_matches_bisection_oracle(self):
        for dof in (1, 2, 3, 5):
            for prob in (0.5, 0.9, 0.95, 0.99):
                assert chi_square_quantile(dof, prob) == pytest.approx(
                    chi_square_quantile_bisect(dof, prob), rel=1e-9)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            chi_square_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chi_square_quantile(1, 1.0)

    def test_mode_is_always_covered(self):
        assert hdr_contains([0.0], [1.0], [0.0], 0.05)

    def test_point_outside_the_region(self):
        # chi-square(1) 0.95-quantile is about 3.8415 and 2.5^2 = 6.25
        assert not hdr_contains([0.0], [1.0], [2.5], 0.05)

    def test_point_inside_the_region(self):
        assert hdr_contains([0.0], [1.0], [1.9], 0.05)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            hdr_contains([0.0], [1.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            hdr_contains([0.0], [1.0], [0.0], 1.0)

    def test_coverage_rate_edge_cases(self):
        assert coverage_rate(np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 2)), 0.05) == 1.0
        assert coverage_rate(np.zeros((5, 2)), np.ones((5, 2)), np.full((5, 2), 10.0),
                             0.05) == 0.0
        with pytest.raises(ValueError):
            coverage_rate(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), 0.05)

    def test_calibrated_lgm_coverage_near_nominal(self):
        data = sample_setup(SyntheticSetup("lgm", 0.0), 2000, RandomStream(14).derive("d"))
        assert coverage_rate(data.models.means, data.models.variances, data.targets,
                             0.1) == pytest.approx(0.9, abs=0.02)


class TestScoreStacking:
    def test_row_view_scores_match_per_model_scores(self):
        data = sample_setup(SyntheticSetup("mgm", 0.2), 6, RandomStream(15).derive("d"))
        models, targets = data.models, data.targets
        stacked = models.rows().score_batch(targets)
        for i in range(len(data)):
            want = g1(models.means[i], models.variances[i]).batch.score(targets[i])[0]
            assert stacked[i] == pytest.approx(want)

    def test_score_tensor_generic_models_agree_with_gaussian_path(self):
        models = [g1([0.3, -1.0], [1.0, 2.0]), g1([0.0, 0.5], [0.5, 0.5])]
        points = np.random.default_rng(16).normal(size=(7, 2))
        fast = stack(models).score_tensor(points)
        generic = ScoredBatch([ScoredDensity(dim=2, score=m.batch.score) for m in models])
        assert fast == pytest.approx(generic.score_tensor(points))

    def test_score_only_batch_matches_the_gaussian_batch(self):
        # user densities equal to the Gaussians, called one model at a time
        data = sample_setup(SyntheticSetup("mgm", 0.3), 12, RandomStream(17).derive("d"))
        gaussian = data.models
        user = ScoredBatch([ScoredDensity(dim=5, score=lambda y, m=m, v=v: (m - y) / v)
                            for m, v in zip(gaussian.means, gaussian.variances)])
        np.testing.assert_allclose(user.rows().score_batch(data.targets),
                                   gaussian.rows().score_batch(data.targets), rtol=1e-12)
        base = RandomStream(18).generator().standard_normal((10, 5))
        for kernel in (ExpGFDKernel(None, base), ExpKGFDKernel(None, GaussianKernel(1.5), base)):
            np.testing.assert_allclose(kernel.gram(user), kernel.gram(gaussian), rtol=1e-12)
        k_gram = ExpGFDKernel(None, base).gram(gaussian)
        l = GaussianKernel(2.0)
        got = u_statistic(kccsd_stat_matrix(k_gram, l, Dataset(user, data.targets)))
        want = u_statistic(kccsd_stat_matrix(k_gram, l, data))
        assert got == pytest.approx(want, rel=1e-12)


class TestCopies:
    @staticmethod
    def batches():
        data = sample_setup(SyntheticSetup("hgm", 0.5), 7, RandomStream(19).derive("d"))
        gaussian = data.models
        generic = ScoredBatch([ScoredDensity(dim=1, score=g.score, log_unnorm=g.log_density)
                               for g in (g1(m, v).batch
                                         for m, v in zip(gaussian.means, gaussian.variances))])
        return gaussian, generic

    @pytest.mark.parametrize("which", [0, 1], ids=["gaussian", "scored"])
    def test_row_c_n_plus_i_of_the_copies_is_model_i(self, which):
        batch, n, k = self.batches()[which], 7, 3
        copies = batch.copies(k)
        assert type(copies) is type(batch) and len(copies) == k * n and copies.dim == 1
        points = np.random.default_rng(20).normal(size=(k * n, 1))
        scores = copies.rows().score_batch(points)
        logs = copies.rows().log_unnorm_batch(points)
        own = batch.rows()
        for c in range(k):
            rows = slice(c * n, (c + 1) * n)
            assert np.array_equal(scores[rows], own.score_batch(points[rows]))
            assert np.array_equal(logs[rows], own.log_unnorm_batch(points[rows]))
        assert np.array_equal(copies.centers(), np.tile(batch.centers(), (k, 1)))

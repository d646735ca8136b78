import numpy as np
import pytest

from steincal.models import (
    DiagonalGaussian,
    ScoredDensity,
    SyntheticSetup,
    as_scored,
    chi_square_quantile,
    coverage_rate,
    dataset_targets,
    hdr_contains,
    row_density,
    sample_setup,
    score_tensor,
)
from steincal.sampling import RandomStream

from oracles import chi_square_quantile_bisect, fd_gradient


def g1(mean, var):
    return DiagonalGaussian(np.atleast_1d(np.asarray(mean, float)),
                            np.atleast_1d(np.asarray(var, float)))


class TestDiagonalGaussian:
    def test_validation(self):
        with pytest.raises(ValueError):
            g1([0.0], [0.0])
        with pytest.raises(ValueError):
            g1([0.0], [-1.0])
        with pytest.raises(ValueError):
            DiagonalGaussian(np.zeros(2), np.ones(3))
        with pytest.raises(ValueError):
            DiagonalGaussian(np.zeros(0), np.ones(0))

    def test_score_vanishes_at_the_mode(self):
        assert g1(0.0, 1.0).score(np.array([0.0])) == pytest.approx(0.0)

    def test_score_1d(self):
        assert g1(1.0, 4.0).score(np.array([3.0])) == pytest.approx(-0.5)

    def test_score_2d(self):
        s = g1([0.0, 0.0], [1.0, 2.0]).score(np.array([1.0, 1.0]))
        assert s == pytest.approx([-1.0, -0.5])

    def test_score_dimension_mismatch(self):
        with pytest.raises(ValueError):
            g1([0.0, 0.0], [1.0, 1.0]).score(np.array([1.0]))

    def test_score_matches_finite_differences_of_log_density(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = rng.integers(1, 4)
            g = g1(rng.normal(size=d), rng.uniform(0.5, 3.0, size=d))
            y = rng.normal(size=d)
            exact = g.score(y)
            approx = fd_gradient(g.log_density, y)
            assert np.all(np.abs(approx - exact) <= 1e-5 * np.maximum(np.abs(exact), 1.0))

    def test_json_round_trip(self):
        g = g1([1.0, -2.0], [0.5, 3.0])
        back = DiagonalGaussian.from_json_dict(g.to_json_dict())
        assert np.array_equal(back.mean, g.mean) and np.array_equal(back.var, g.var)


class TestScoredDensity:
    def test_gaussian_view_has_all_capabilities(self):
        sd = as_scored(g1([1.0], [2.0]))
        assert sd.log_unnorm is not None and sd.sampler is not None
        assert sd.score(np.array([0.0])) == pytest.approx(0.5)

    def test_log_density_gradient_matches_score(self):
        sd = as_scored(g1([0.5, -1.0], [1.5, 0.7]))
        rng = np.random.default_rng(8)
        for _ in range(20):
            y = rng.normal(size=2)
            exact = sd.score(y)
            approx = fd_gradient(sd.log_unnorm, y)
            assert np.all(np.abs(approx - exact) <= 1e-5 * np.maximum(np.abs(exact), 1.0))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            ScoredDensity(dim=0, score=lambda y: y)


class TestSyntheticSetups:
    def test_family_dimensions(self):
        dims = {"mgm": (5, 5), "lgm": (5, 1), "hgm": (3, 1), "qgm": (1, 1)}
        for family, (dx, dy) in dims.items():
            setup = SyntheticSetup(family)
            assert (setup.input_dim, setup.target_dim) == (dx, dy)
            pairs = sample_setup(setup, 3, RandomStream(0).derive("d"))
            assert pairs[0][0].dim == dy and pairs[0][1].shape == (dy,)

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
        for (ga, ya), (gb, yb) in zip(a, b):
            assert np.array_equal(ga.mean, gb.mean)
            assert np.array_equal(ga.var, gb.var)
            assert np.array_equal(ya, yb)

    def test_delta_shifts_lgm_means_by_delta(self):
        stream = RandomStream(1).derive("d")
        base = sample_setup(SyntheticSetup("lgm", 0.0), 50, stream)
        shifted = sample_setup(SyntheticSetup("lgm", 2.0), 50, stream)
        for (g0, y0), (g2, y2) in zip(base, shifted):
            assert g2.mean - g0.mean == pytest.approx([2.0])
            assert np.array_equal(y0, y2)

    def test_lgm_mean_spread_matches_weighted_inputs(self):
        # mean = sum_i i * x_i with x standard normal, so Var(mean) = 55
        pairs = sample_setup(SyntheticSetup("lgm", 0.0), 20_000, RandomStream(2).derive("d"))
        means = np.array([g.mean[0] for g, _ in pairs])
        assert np.var(means) == pytest.approx(55.0, rel=0.05)

    def test_mgm_shift_direction(self):
        stream = RandomStream(3).derive("d")
        base = sample_setup(SyntheticSetup("mgm", 0.0), 20, stream)
        all_dims = sample_setup(SyntheticSetup("mgm", 0.5, mgm_shift="all"), 20, stream)
        first_only = sample_setup(SyntheticSetup("mgm", 0.5, mgm_shift="first"), 20, stream)
        for (g0, _), (ga, _), (gf, _) in zip(base, all_dims, first_only):
            assert ga.mean - g0.mean == pytest.approx(0.5 * np.ones(5))
            assert gf.mean - g0.mean == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.0])

    def test_mgm_miscalibration_shifts_targets_by_minus_delta_c(self):
        delta = 0.5
        pairs = sample_setup(SyntheticSetup("mgm", delta), 4000, RandomStream(6).derive("d"))
        resid = np.array([y - g.mean for g, y in pairs])
        tol = 4.0 / np.sqrt(4000)
        assert np.all(np.abs(resid.mean(axis=0) + delta) < tol)

    def test_qgm_delta_removes_the_quadratic_term(self):
        stream = RandomStream(9).derive("d")
        base = sample_setup(SyntheticSetup("qgm", 0.0), 5000, stream)
        flat = sample_setup(SyntheticSetup("qgm", 1.0), 5000, stream)
        diff = np.array([g0.mean[0] - g1_.mean[0] for (g0, _), (g1_, _) in zip(base, flat)])
        # difference is 0.1 x^2 with x ~ U(-2, 2)
        assert np.all(diff >= -1e-12) and np.all(diff <= 0.4 + 1e-12)
        assert diff.mean() == pytest.approx(0.1 * 4.0 / 3.0, abs=0.01)

    def test_hgm_delta_only_inflates_variances(self):
        stream = RandomStream(10).derive("d")
        base = sample_setup(SyntheticSetup("hgm", 0.0), 200, stream)
        bumpy = sample_setup(SyntheticSetup("hgm", 1.0), 200, stream)
        for (gb, _), (gv, _) in zip(base, bumpy):
            assert np.array_equal(gb.mean, gv.mean)
            assert gb.var[0] == 1.0
            assert 1.0 < gv.var[0] <= 11.0

    @pytest.mark.parametrize("family", ["mgm", "lgm", "hgm", "qgm"])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_calibrated_setups_have_nominal_coverage(self, family, alpha):
        n = 2000
        pairs = sample_setup(SyntheticSetup(family, 0.0), n, RandomStream(13).derive(family))
        rate = coverage_rate(pairs, alpha)
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
        assert hdr_contains(g1(0.0, 1.0), np.array([0.0]), 0.05)

    def test_point_outside_the_region(self):
        # chi-square(1) 0.95-quantile is about 3.8415 and 2.5^2 = 6.25
        assert not hdr_contains(g1(0.0, 1.0), np.array([2.5]), 0.05)

    def test_point_inside_the_region(self):
        assert hdr_contains(g1(0.0, 1.0), np.array([1.9]), 0.05)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            hdr_contains(g1(0.0, 1.0), np.array([0.0]), 0.0)
        with pytest.raises(ValueError):
            hdr_contains(g1(0.0, 1.0), np.array([0.0]), 1.0)

    def test_coverage_rate_edge_cases(self):
        g = g1([0.0, 0.0], [1.0, 1.0])
        assert coverage_rate([(g, np.zeros(2))], 0.05) == 1.0
        far = [(g, np.full(2, 10.0)) for _ in range(5)]
        assert coverage_rate(far, 0.05) == 0.0
        with pytest.raises(ValueError):
            coverage_rate([], 0.05)

    def test_calibrated_lgm_coverage_near_nominal(self):
        pairs = sample_setup(SyntheticSetup("lgm", 0.0), 2000, RandomStream(14).derive("d"))
        assert coverage_rate(pairs, 0.1) == pytest.approx(0.9, abs=0.02)


class TestScoreStacking:
    def test_row_density_scores_match_per_model_scores(self):
        pairs = sample_setup(SyntheticSetup("mgm", 0.2), 6, RandomStream(15).derive("d"))
        targets = dataset_targets(pairs)
        stacked = row_density([g for g, _ in pairs]).score_batch(targets)
        for i, (g, _) in enumerate(pairs):
            assert stacked[i] == pytest.approx(g.score(targets[i]))

    def test_score_tensor_generic_models_agree_with_gaussian_path(self):
        models = [g1([0.3, -1.0], [1.0, 2.0]), g1([0.0, 0.5], [0.5, 0.5])]
        points = np.random.default_rng(16).normal(size=(7, 2))
        fast = score_tensor(models, points)
        generic = score_tensor([as_scored(m) for m in models], points)
        assert fast == pytest.approx(generic)

import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincal import kernels
from steincal.kernels import (
    DegenerateBandwidthError,
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    GaussianKernel,
    IMQKernel,
    UnsupportedKernelError,
    expectation_tiles,
    median_heuristic,
    second_order_median_heuristic,
    squared_distance_rows,
)
from steincal.models import (
    GaussianBatch,
    NumericalError,
    ScoredBatch,
    ScoredDensity,
    SyntheticSetup,
    sample_setup,
)
from steincal.sampling import CapabilityError, RandomStream
from steincal.statistics import _stein_rows

from gaussians import g1, stack
from oracles import (
    brute_force_kgfd,
    dense_distances_from_inner,
    dense_double_expectation,
    dense_mean_gram,
    dense_median_sigma,
    dense_mirrored_upper,
    dense_single_expectation,
    dense_squared_distances,
    direct_gfd,
    fd_kernel_bundle,
    gfd_gaussian_closed,
    mc_gaussian_kernel_double,
    mc_gaussian_kernel_single,
    mixture_distance_median,
    squared_distances_by_differences,
    squared_distances_in_order,
)


def tiles_of(matrix):
    """The tile function of a fixed matrix: tiles are copied out of it."""
    def tile(i0, i1, j0, j1, out=None):
        if out is None:
            return matrix[i0:i1, j0:j1].copy()
        out[...] = matrix[i0:i1, j0:j1]
        return out
    return tile


def random_gaussians(rng, count, dim, spread=2.0):
    return [g1(rng.normal(scale=spread, size=dim), rng.uniform(0.5, 2.5, size=dim))
            for _ in range(count)]


def bundle_at(kernel, y, y2):
    """Derivative bundle (value, grad_y, grad_y', mixed trace) at one pair of points, read
    off the Stein terms of the zero score and the unit scores at y against the same at
    y2, the off-diagonal block of their joined stack: term [0, 0] is the trace,
    [1 + a, 0] adds grad_y'[a], [0, 1 + b] adds grad_y[b] and [1, 1] adds all of
    value, grad_y'[0] and grad_y[0]."""
    y, y2 = np.atleast_1d(np.asarray(y, float)), np.atleast_1d(np.asarray(y2, float))
    s = np.vstack([np.zeros(y.size), np.eye(y.size)])
    n = len(s)
    targets = np.vstack([np.tile(y, (n, 1)), np.tile(y2, (n, 1))])
    h = _stein_rows(kernel, np.vstack([s, s]), targets)(0, n)[:, n:]
    trace = h[0, 0]
    gy2, gy = h[1:, 0] - trace, h[0, 1:] - trace
    return h[1, 1] - trace - gy2[0] - gy[0], gy, gy2, trace


def pair(p, q):
    """Two models as a batch: Gaussians stacked, score-only densities as a ScoredBatch."""
    return ScoredBatch([p, q]) if isinstance(p, ScoredDensity) else stack([p, q])


def gfd(p, q, z):
    """Score divergence between two models on frozen base samples z."""
    return ExpGFDKernel(None, base_samples=z).distance_blocks(pair(p, q)).dense()[0, 1]


def kgfd(p, q, z, ground):
    """Kernel-smoothed score divergence between two models on frozen base samples z."""
    kernel = ExpKGFDKernel(None, ground, base_samples=z)
    return kernel.distance_blocks(pair(p, q)).dense()[0, 1]


def pair_value(kernel, p, q, stream=None):
    """Distribution-kernel value between two models, read off their 2 x 2 Gram matrix."""
    return kernel.gram(pair(p, q), stream)[0, 1]


def expectation_matrix(means, variances, gamma, means2, variances2=None):
    """The whole matrix of :func:`expectation_tiles`, assembled from its tiles."""
    out = np.full((len(means), len(means2)), np.nan)
    for rows, columns, tile in expectation_tiles(means, variances, gamma, means2, variances2)():
        out[rows, columns] = tile
    return out


def single_expectation(g, y, gamma):
    return expectation_matrix(g.mean[None, :], g.var[None, :], gamma, y[None, :])[0, 0]


def double_expectation(g, h, gamma):
    means, variances = np.stack([g.mean, h.mean]), np.stack([g.var, h.var])
    return expectation_matrix(means, variances, gamma, means, variances)[0, 1]


class TestScalarBundle:
    def test_gaussian_at_coincidence(self):
        value, gy, gy2, tr = bundle_at(GaussianKernel(1.0), np.zeros(1), np.zeros(1))
        assert (value, tr) == (pytest.approx(1.0), pytest.approx(1.0))
        assert gy == pytest.approx([0.0]) and gy2 == pytest.approx([0.0])

    def test_gaussian_at_unit_distance(self):
        value, gy, gy2, tr = bundle_at(GaussianKernel(1.0), np.zeros(1), np.ones(1))
        e = np.exp(-0.5)
        assert value == pytest.approx(e)
        assert gy == pytest.approx([e])
        assert gy2 == pytest.approx([-e])
        assert tr == pytest.approx(0.0, abs=1e-12)

    def test_imq_at_coincidence(self):
        for d in (1, 3):
            y = np.random.default_rng(d).normal(size=d)
            value, gy, gy2, tr = bundle_at(IMQKernel(1.0), y, y)
            assert value == pytest.approx(1.0)
            assert gy == pytest.approx(np.zeros(d)) and gy2 == pytest.approx(np.zeros(d))
            assert tr == pytest.approx(2.0 * d)

    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_derivatives_match_finite_differences(self, kernel_cls):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            kernel = kernel_cls(rng.uniform(0.5, 2.0))
            y = rng.normal(size=d)
            y2 = rng.normal(size=d)
            got = bundle_at(kernel, y, y2)
            want = fd_kernel_bundle(lambda a, b: kernel(a, b), y, y2)
            for lhs, rhs in zip(got, want):
                assert np.all(np.abs(np.asarray(lhs) - np.asarray(rhs))
                              <= 1e-4 * np.maximum(np.abs(np.asarray(lhs)), 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _stein_rows(GaussianKernel(1.0), np.zeros((3, 2)), np.zeros((3, 3)))

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestScalarGram:
    """The Gram is formed from (n1, n2) products; the oracle from (n1, n2, d) differences."""

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    @pytest.mark.parametrize("offset", [0.0, 100.0])
    def test_matches_the_difference_oracle(self, d, kernel_cls, offset):
        rng = np.random.default_rng(d)
        points = offset + rng.normal(size=(40, d))
        points2 = offset + rng.normal(size=(25, d))
        kernel = kernel_cls(0.8 * np.sqrt(d))
        for a, b in ((points, points2), (points2, points), (points, points)):
            want = kernel._f(squared_distances_by_differences(a, b))
            np.testing.assert_allclose(kernel.gram(a, b), want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kernel.gram(points),
                                   kernel._f(squared_distances_by_differences(points, points)),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    def test_near_duplicate_targets_stay_in_range(self, d, kernel_cls):
        # y and y + 1e-9 far from the origin: the product form cancels to within
        # rounding of zero, and the clamp keeps every squared distance >= 0
        y = 1e3 + 10.0 * np.random.default_rng(3).normal(size=(50, d))
        points = np.vstack([y, y + 1e-9])
        kernel = kernel_cls(0.5)
        for rows in (squared_distance_rows(points), squared_distance_rows(points, points.copy())):
            assert np.all(rows() >= 0.0)
        gram = kernel.gram(points)
        assert np.all(gram <= 1.0)
        assert np.all(np.diag(gram) == 1.0)
        assert np.all(kernel.gram(points, points.copy()) <= 1.0)

    def test_one_dimension_is_the_exact_difference(self):
        points = np.random.default_rng(4).normal(size=(30, 1))
        assert np.array_equal(squared_distance_rows(points)(),
                              squared_distances_by_differences(points, points))


class TestBandwidthRange:
    """The power of a bandwidth that a kernel divides by, gamma^4 or sigma^2, must be a
    positive, finite, normal float; otherwise it is a named DegenerateBandwidthError."""

    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    @pytest.mark.parametrize("bandwidth", [1e80, 1e200, 1e-80, 1e-200, float("nan")])
    def test_scalar_kernel_rejects_a_fourth_power_out_of_range(self, kernel_cls, bandwidth):
        message = f"{kernel_cls.name} kernel bandwidth {bandwidth!r} is out of range"
        with pytest.raises(DegenerateBandwidthError, match=re.escape(message)):
            kernel_cls(bandwidth)

    @pytest.mark.parametrize("kernel_cls", [GaussianKernel, IMQKernel])
    @pytest.mark.parametrize("bandwidth", [1e76, 1e-76])
    def test_scalar_kernel_accepts_a_normal_fourth_power(self, kernel_cls, bandwidth):
        assert kernel_cls(bandwidth).bandwidth == bandwidth

    @pytest.mark.parametrize("sigma", [1e160, 1e-160])
    def test_fixed_sigma_is_checked_when_resolved(self, sigma):
        kernel = ExpWassersteinKernel(sigma)
        models = GaussianBatch(np.array([[0.0], [1.0]]), np.ones((2, 1)))
        with pytest.raises(DegenerateBandwidthError,
                           match=re.escape(f"sigma {sigma!r} is out of range")):
            kernel.gram(models)

    def test_median_sigma_whose_square_underflows_raises(self):
        # squared distances of about 1e-320 are positive but subnormal
        models = GaussianBatch(np.array([[0.0], [1e-160], [2e-160]]), np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateBandwidthError, match="sigma .* is out of range"):
                ExpWassersteinKernel(None).gram(models)


class TestRowBlocks:
    """Row-blocked products against their whole-matrix forms, bit for bit. The blocks
    hold 48 rows (the smallest block) and the last one what is left, so the block
    ends fall inside the matrix. The shapes keep every product small enough that
    BLAS runs it on one thread (see ``kernels.row_blocks``)."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)

    def test_blocks_cover_the_rows_at_tile_multiples(self):
        assert kernels.row_blocks(130, 77) == [(0, 48), (48, 96), (96, 130)]
        assert kernels.row_blocks(110, 77) == [(0, 48), (48, 110)]
        assert kernels.row_blocks(40, 77) == [(0, 40)]
        assert kernels.row_blocks(700, 9, multiple=7) == [(0, 336), (336, 700)]

    @pytest.mark.parametrize("d", [1, 5])
    def test_squared_distance_rows_match_the_whole_matrix(self, d):
        rng = np.random.default_rng(30 + d)
        a, b = 2.0 + rng.normal(size=(130, d)), 2.0 + rng.normal(size=(77, d))
        for x, y in ((a, b), (b, a), (a, None)):
            rows = squared_distance_rows(x, y)
            cuts = kernels.row_blocks(len(x), len(x if y is None else y))
            blocks = [rows(start, stop) for start, stop in cuts]
            assert np.array_equal(np.vstack(blocks), dense_squared_distances(x, y))

    @pytest.mark.parametrize("d", [1, 5])
    def test_mean_gram_matches_the_averaged_whole_gram(self, d):
        rng = np.random.default_rng(40 + d)
        a, b = rng.normal(size=(30 * 4, d)), rng.normal(size=(25 * 4, d))
        kernel = GaussianKernel(1.2)
        for m2 in (1, 2, 4):
            got = self.assembled(kernel.mean_gram_tiles(a, 4, b, m2)(), (30, len(b) // m2))
            assert np.array_equal(got, dense_mean_gram(kernel._f, a, 4, b, m2))
        assert np.array_equal(self.assembled(kernel.mean_gram_tiles(a, 4, a, 4)(), (30, 30)),
                              dense_mean_gram(kernel._f, a, 4, None, 4))

    def test_tiles_cut_wide_rows_at_tile_multiples(self):
        assert list(kernels.tiles(0, 48, 0, 130)) == [(0, 48, 0, 48), (0, 48, 48, 96),
                                                       (0, 48, 96, 130)]
        assert list(kernels.tiles(0, 48, 0, 40, depth=5)) == [(0, 48, 0, 40)]

    @staticmethod
    def assembled(tiles, shape, fill=np.nan):
        """The block that ``tiles`` yields, ``fill`` where no tile covers it."""
        out = np.full(shape, fill)
        for rows, columns, means in tiles:
            out[rows, columns] = means
        return out

    @pytest.mark.parametrize("d", [1, 5])
    def test_mean_gram_tiles_hold_the_entries_of_the_averaged_whole_gram(self, d):
        # tiles of 48 groups cut the rows into column ranges: exact at d = 1; at d = 5
        # BLAS may round the last columns of a narrower product differently
        rng = np.random.default_rng(45 + d)
        a, b = rng.normal(size=(130 * 2, d)), rng.normal(size=(130 * 3, d))
        kernel = GaussianKernel(1.2)
        tiles = kernel.mean_gram_tiles(a, 2, b, 3)
        want = dense_mean_gram(kernel._f, a, 2, b, 3)

        def same(got, expected):
            if d == 1:
                return np.array_equal(got, expected)
            return np.allclose(got, expected, rtol=1e-13, atol=0.0)
        assert same(self.assembled(tiles(), (130, 130)), want)
        assert same(self.assembled(tiles(40, 90, 30, 100), (50, 70)), want[40:90, 30:100])
        # upper: each run of groups starts its columns at its own first group, and
        # the tiles cover nothing else
        got = self.assembled(tiles(40, 130, 20, upper=True), (90, 110))
        upper = np.triu(np.ones((90, 110), dtype=bool), k=20)
        assert same(got[upper], want[40:, 20:][upper])
        formed = np.zeros((90, 110), dtype=bool)
        for lo, hi in kernels.row_blocks(90 * 2, 110 * 3, multiple=2):
            formed[lo // 2:hi // 2, max(40 + lo // 2, 20) - 20:] = True
        assert np.array_equal(~np.isnan(got), formed)

    @pytest.mark.parametrize("d", [1, 5])
    def test_mean_gram_tiles_lower_cut_stops_at_each_run_of_groups_last_group(self, d):
        # B's models as rows against targets, as the bracket forms E l(y_i, z'_j)
        rng = np.random.default_rng(48 + d)
        a, b = rng.normal(size=(130 * 3, d)), rng.normal(size=(130, d))
        kernel = GaussianKernel(1.2)
        want = dense_mean_gram(kernel._f, a, 3, b, 1)
        got = self.assembled(kernel.mean_gram_tiles(a, 3, b, 1)(40, 130, 40, 100, lower=True),
                             (90, 60))
        lower = np.tril(np.ones((90, 60), dtype=bool))
        if d == 1:
            assert np.array_equal(got[lower], want[40:, 40:100][lower])
        else:
            assert np.allclose(got[lower], want[40:, 40:100][lower], rtol=1e-13, atol=0.0)
        formed = np.zeros((90, 60), dtype=bool)
        for lo, hi in kernels.row_blocks(90 * 3, 60, multiple=3):
            formed[lo // 3:hi // 3, :min(40 + hi // 3, 100) - 40] = True
        assert np.array_equal(~np.isnan(got), formed)
        assert not formed.all()

    def test_tiles_upper_cut_starts_each_row_block_at_its_first_row(self):
        # each entry is covered once, and with upper only the rows' own upper part
        for n1, n2, d in ((130, 130, 5), (130, 100, 3), (300, 300, 1)):
            for upper in (False, True):
                count = np.zeros((n1, n2), dtype=int)
                for start, stop, first, last in kernels.tiles(0, n1, 0, n2, depth=d,
                                                              upper=upper):
                    count[start:stop, first:last] += 1
                assert count.max() == 1
                assert count[np.triu(np.ones((n1, n2), dtype=bool))].min() == 1
                formed = np.zeros((n1, n2), dtype=int)
                for start, stop in kernels.row_blocks(n1, n2 * d):
                    formed[start:stop, min(start, n2) if upper else 0:] = 1
                assert np.array_equal(count, formed)

    def test_mean_gram_of_a_stack_against_itself_zeroes_only_its_diagonal(self):
        # 110 groups are cut into column ranges of 48, so tiles start their columns
        # after their first row, below it and on the diagonal
        a = np.random.default_rng(47).normal(size=(110 * 3, 5))
        kernel = GaussianKernel(1.2)
        want = dense_mean_gram(kernel._f, a, 3, None, 3)
        tiles = kernel.mean_gram_tiles(a, 3, a, 3)
        assert np.allclose(self.assembled(tiles(), (110, 110)), want, rtol=1e-13, atol=0.0)
        assert np.allclose(self.assembled(tiles(40, 110, 20), (70, 90)), want[40:, 20:],
                           rtol=1e-13, atol=0.0)
        assert np.allclose(self.assembled(tiles(10, 60, 50, 110), (50, 60)),
                           want[10:60, 50:], rtol=1e-13, atol=0.0)
        got = self.assembled(tiles(40, 110, 20, upper=True), (70, 90))
        upper = np.triu(np.ones((70, 90), dtype=bool), k=20)
        assert np.allclose(got[upper], want[40:, 20:][upper], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_single_expectation_tiles_of_sub_stacks_hold_the_dense_bytes(self, d):
        rng = np.random.default_rng(55 + d)
        means, variances = rng.normal(size=(130, d)), rng.uniform(0.5, 2.0, size=(130, d))
        points = rng.normal(size=(110, d))
        want = dense_single_expectation(means, variances, points, 0.8)
        assert np.array_equal(expectation_matrix(means, variances, 0.8, points), want)
        assert np.array_equal(expectation_matrix(means[40:110], variances[40:110], 0.8,
                                                 points[50:]), want[40:110, 50:])
        assert expectation_matrix(means, variances, 0.8, points[:0]).shape == (130, 0)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_expectation_tiles_hold_the_dense_bytes(self, d):
        # unequal variances, so the order of g^2 + v_i + v_j shows
        rng = np.random.default_rng(60 + d)
        means, variances = rng.normal(size=(130, d)), rng.uniform(0.5, 2.0, size=(130, d))
        points = rng.normal(size=(130, d))
        upper = np.triu(np.ones((90, 110), dtype=bool), k=20)
        lower = np.tril(np.ones((90, 60), dtype=bool))
        for tiles, want in (
                (kernels.expectation_tiles(means, variances, 0.8, points),
                 dense_single_expectation(means, variances, points, 0.8)),
                (kernels.expectation_tiles(means, variances, 0.8, means, variances),
                 dense_double_expectation(means, variances, 0.8))):
            assert np.array_equal(self.assembled(tiles(), (130, 130)), want)
            assert np.array_equal(self.assembled(tiles(40, 90, 30, 100), (50, 70)),
                                  want[40:90, 30:100])
            got = self.assembled(tiles(40, 130, 20, upper=True), (90, 110))
            assert np.array_equal(got[upper], want[40:, 20:][upper])
            got = self.assembled(tiles(40, 130, 40, 100, lower=True), (90, 60))
            assert np.array_equal(got[lower], want[40:, 40:100][lower])
            # through a transposed view, as the bracket subtracts E l(y_i, z'_j)
            out = np.full((60, 90), np.nan)
            for rows, columns, tile in tiles(40, 130, 40, 100, lower=True):
                out.T[rows, columns] = tile
            assert np.array_equal(out.T[lower], want[40:, 40:100][lower])

    def test_tiles_from_inner_read_only_the_upper_triangle(self):
        a = np.random.default_rng(7).normal(size=(130, 7))
        inner = a @ a.T.copy() + 1e-3 * np.random.default_rng(8).normal(size=(130, 130))
        diag = np.einsum("ia,ia->i", a, a)
        upper = np.triu(inner) + np.triu(inner, 1).T
        inner[np.tril_indices(130, k=-1)] = np.nan
        got = kernels.DistanceBlocks(130, kernels._tiles_from_inner(tiles_of(inner), diag)).dense()
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, got.T)
        assert np.array_equal(got, dense_mirrored_upper(dense_distances_from_inner(upper, diag)))

    @pytest.mark.parametrize("n", [2, 47, 130, 300])
    def test_mirror_upper_writes_the_upper_triangle_over_the_lower(self, n):
        x = np.random.default_rng(6 + n).normal(size=(n, n))
        want = np.triu(x) + np.triu(x, 1).T
        got = kernels.mirror_upper(x)
        assert got is x
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 17, 63, 127, 128, 129, 136, 257, 300])
    def test_squared_differences_hold_the_bytes_of_the_summed_tensor(self, d):
        # the squares are added in order; numpy sums the tensor's last axis in that
        # order below 8 terms and in interleaved partial sums from 8 on
        rng = np.random.default_rng(d)
        a = rng.normal(size=(23, d)) * rng.uniform(0.1, 100.0, size=d)
        b = rng.normal(size=(19, d)) * rng.uniform(0.1, 100.0, size=d)
        want = squared_distances_in_order(a, b)
        assert np.array_equal(kernels.squared_differences(a, b), want)
        out = np.full((23, 19), np.nan)
        assert kernels.squared_differences(a, b, out) is out
        assert np.array_equal(out, want)
        summed = squared_distances_by_differences(a, b)
        if d < 8:
            assert np.array_equal(want, summed)
        else:
            assert np.max(np.abs(want - summed) / summed) <= 1e-14

    @pytest.mark.parametrize("d", [1, 3])
    def test_double_expectation_tiles_of_sub_stacks_hold_the_dense_bytes(self, d):
        # unequal variances, so the order of g^2 + v_i + v_j shows
        rng = np.random.default_rng(50 + d)
        means, variances = rng.normal(size=(130, d)), rng.uniform(0.5, 2.0, size=(130, d))
        want = dense_double_expectation(means, variances, 0.8)
        assert np.array_equal(expectation_matrix(means, variances, 0.8, means, variances), want)
        got = expectation_matrix(means[40:90], variances[40:90], 0.8, means[60:], variances[60:])
        assert np.array_equal(got, want[40:90, 60:])


    @pytest.mark.parametrize("n, distinct", [(2, 2), (47, 47), (130, 130), (777, 777),
                                             (130, 3), (777, 4), (300, 7)])
    def test_median_sigma_over_tiles_equals_the_whole_matrix_selection(
            self, n, distinct):
        # distinct < n draws the models from a few, so most distances are exact ties
        rng = np.random.default_rng(n + distinct)
        pick = rng.integers(0, distinct, size=n) if distinct < n else np.arange(n)
        models = GaussianBatch(rng.normal(size=(distinct, 2))[pick],
                               rng.uniform(0.5, 2.0, size=(distinct, 2))[pick])
        base = rng.normal(size=(5, 2))
        sq = ExpGFDKernel(None, base).distance_blocks(models).dense()
        sigma = dense_median_sigma(sq)
        assert sigma > 0.0
        assert np.array_equal(ExpGFDKernel(None, base).gram(models),
                              ExpGFDKernel(sigma, base).gram(models))


def test_tiles_yield_the_recorded_cuts():
    # integers recorded from deep_tiles and mean_gram_tiles before kernels.tiles
    # replaced both; rows cross the 48-row and the half-block tail rules
    with open(Path(__file__).resolve().parent / "golden" / "tile_cuts.json") as fh:
        cases = json.load(fh)["cases"]
    assert {(c["height"], c["depth"]) for c in cases} >= {(1, 1), (1, 5), (1, 20), (5, 5),
                                                         (10, 1), (10, 10)}
    for case in cases:
        got = kernels.tiles(*case["args"], case["height"], case["depth"], case["upper"],
                            case["lower"])
        assert [list(tile) for tile in got] == case["tiles"], case["args"]


_DIST_KERNELS = {
    "exp_gfd": lambda: ExpGFDKernel(None),
    "exp_kgfd": lambda: ExpKGFDKernel(None, GaussianKernel(1.0)),
    "exp_mmd": lambda: ExpMMDKernel(None, GaussianKernel(1.0)),
    "exp_mmd_sampled": lambda: ExpMMDKernel(None, GaussianKernel(1.0), samples=3),
    "exp_wasserstein": lambda: ExpWassersteinKernel(None),
}


class TestDistanceBlocks:
    """The row blocks above the diagonal that a test streams, against the dense matrix.
    Blocks of 48 rows end inside the matrices."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)

    @staticmethod
    def isotropic(rng, n, distinct=None):
        """n isotropic Gaussians in three dimensions; with ``distinct``, drawn from that many."""
        pick = rng.integers(0, distinct, size=n) if distinct else np.arange(n)
        count = distinct or n
        means = rng.normal(size=(count, 3))[pick]
        variances = np.repeat(rng.uniform(0.5, 2.0, size=(count, 1)), 3, axis=1)[pick]
        return GaussianBatch(means, variances), pick

    @pytest.mark.parametrize("n", [7, 130])
    @pytest.mark.parametrize("name", sorted(_DIST_KERNELS))
    def test_blocks_hold_the_dense_entries_above_the_diagonal(self, name, n):
        models, _ = self.isotropic(np.random.default_rng(n), n)
        kernel = _DIST_KERNELS[name]()
        dense = kernel.distance_blocks(models, RandomStream(5)).dense()
        distances = kernel.distance_blocks(models, RandomStream(5))
        assert distances.median_sigma() == dense_median_sigma(dense)
        for start, stop in kernels.row_blocks(n, n):
            block = distances.block(start, stop)
            above = np.triu(np.ones(block.shape, dtype=bool), k=1)
            assert np.array_equal(block[above], dense[start:stop, start:][above])

    @pytest.mark.parametrize("name", ["exp_gfd", "exp_kgfd", "exp_mmd", "exp_wasserstein"])
    def test_byte_equal_models_are_exactly_zero_apart_in_every_block(self, name):
        models, pick = self.isotropic(np.random.default_rng(9), 130, distinct=6)
        distances = _DIST_KERNELS[name]().distance_blocks(models, RandomStream(6))
        for start, stop in kernels.row_blocks(130, 130):
            block = distances.block(start, stop)
            above = np.triu(np.ones(block.shape, dtype=bool), k=1)
            same = pick[start:stop, None] == pick[None, start:]
            assert np.all(block[same & above] == 0.0)
            assert np.all(block[~same & above] > 0.0)


def counting_tiles(points, calls):
    """The tile function of median_heuristic on ``points``, recording the first row and
    column of each call in ``calls``."""
    def tile(i0, i1, j0, j1, out=None):
        calls.append((i0, j0))
        return kernels.squared_differences(points[i0:i1], points[j0:j1], out)
    return tile


class TestMedianSelection:
    """``DistanceBlocks.median_sigma``, the one median selection, against the lower median
    of the whole matrix (``oracles.dense_median_sigma``), with one-block and multi-block
    matrices: ``_ROW_BLOCK_ELEMENTS`` of 1 cuts blocks of 48 rows."""

    @staticmethod
    def selected(points, elements):
        """The median and the number of passes over the rectangles right of the diagonal
        tiles (0 for a one-block matrix, which has none), with blocks of ``elements``
        floats."""
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", elements)
            blocks = len(kernels.row_blocks(len(points), len(points)))
            value = kernels.DistanceBlocks(len(points), counting_tiles(points, calls)).median_sigma()
        rectangles = sum(i0 != j0 for i0, j0 in calls)
        return value, rectangles // max(1, blocks - 1)

    @staticmethod
    def check(points, elements):
        want = dense_median_sigma(squared_distances_by_differences(points, points))
        if want == 0.0:
            with pytest.raises(DegenerateBandwidthError):
                TestMedianSelection.selected(points, elements)
            return None
        value, passes = TestMedianSelection.selected(points, elements)
        assert value == want
        return passes

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 700), d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           distinct=st.sampled_from([None, 1, 2, 7]), step=st.sampled_from([0.0, 0.5]),
           order=st.sampled_from(["shuffled", "sorted", "reversed"]),
           elements=st.sampled_from([1, 1 << 12, 1 << 17]))
    def test_equals_the_whole_matrix_selection(self, n, d, seed, distinct, step, order,
                                               elements):
        # few distinct rows give zero distances, a grid step ties, and sorted orders
        # put unlike pairs in the diagonal tiles that the bracket is taken from
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d))
        if distinct is not None:
            points = points[rng.integers(0, min(distinct, n), size=n)]
        if step:
            points = np.round(points / step) * step
        if order != "shuffled":
            points = points[np.argsort(points[:, 0], kind="stable")]
            points = points[::-1] if order == "reversed" else points
        self.check(points, elements)

    @pytest.mark.parametrize("n, elements", [(130, 1), (300, 1), (500, 1 << 17),
                                             (777, 1 << 17)])
    def test_shuffled_points_take_one_pass(self, n, elements):
        points = np.random.default_rng(n).normal(size=(n, 2))
        assert self.check(points, elements) == 1

    @pytest.mark.parametrize("n, elements", [(700, 1 << 17), (300, 1)])
    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_sorted_points_defeat_the_bracket_and_stay_exact(self, n, elements, order):
        # neighbours in the order are close, so the diagonal tiles hold the shortest
        # distances and the bracket misses the median
        points = np.sort(np.random.default_rng(n).normal(size=(n, 1)), axis=0)
        points = points[::-1] if order == "reversed" else points
        assert self.check(points, elements) > 1

    @pytest.mark.parametrize("elements", [1, 1 << 17])
    def test_ties_at_the_median(self, elements):
        # integer points: a few hundred distances equal the median
        points = np.random.default_rng(5).integers(0, 12, size=(400, 2)).astype(float)
        sq = squared_distances_by_differences(points, points)
        upper = np.sort(sq[np.triu_indices(400, k=1)])
        median = upper[(upper.size - 1) // 2]
        assert np.count_nonzero(upper == median) > 100
        assert self.check(points, elements) is not None

    @pytest.mark.parametrize("elements", [1, 1 << 17])
    @pytest.mark.parametrize("copies, degenerate", [(100, False), (300, True)])
    def test_duplicate_rows(self, elements, copies, degenerate):
        # rows that are copies of one another are exactly 0 apart
        points = np.random.default_rng(copies).normal(size=(400, 3))
        points[:copies] = points[0]
        assert (self.check(points, elements) is None) == degenerate

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(3, 20), (3, 100), (60, 129)],
                             ids=["diagonal_tile", "right_rectangle", "last_rectangle"])
    def test_a_non_finite_distance_raises(self, monkeypatch, value, where):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", 1)
        x = squared_distances_by_differences(*[np.random.default_rng(4).normal(size=(130, 2))] * 2)
        x[where] = value
        with pytest.raises(NumericalError, match="squared distance is not finite"):
            kernels.DistanceBlocks(130, tiles_of(x)).median_sigma()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_bracket_on_non_finite_distances_raises(self, value):
        # most pairs non-finite: the bracket's own upper end is NaN or inf
        x = np.full((6, 6), value)
        x[0, 1] = 1.0
        with pytest.raises(NumericalError, match="squared distance is not finite"):
            kernels.DistanceBlocks(6, tiles_of(x)).median_sigma()

    @pytest.mark.parametrize("elements", [1, 1 << 17])
    def test_entries_on_and_below_the_diagonal_are_never_read(self, elements, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK_ELEMENTS", elements)
        points = np.random.default_rng(8).normal(size=(130, 2))
        x = squared_distances_by_differences(points, points)
        want = dense_median_sigma(x)
        x[np.tril_indices(130)] = np.nan
        assert kernels.DistanceBlocks(130, tiles_of(x)).median_sigma() == want


class TestGaussianExpectations:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("second", ["points", "models"])
    def test_gamma_must_be_positive_and_finite(self, second, gamma):
        means, variances = np.zeros((3, 2)), np.ones((3, 2))
        variances2 = variances if second == "models" else None
        with pytest.raises(ValueError, match="gamma must be > 0 and finite"):
            expectation_tiles(means, variances, gamma, means, variances2)

    @pytest.mark.parametrize("rows2", [2, 5])
    def test_second_set_needs_both_means_and_variances(self, rows2):
        # without the check, two zero means were paired with the first two of five
        # variances, and five means failed to broadcast against two variances
        means, variances = np.zeros((3, 1)), np.array([[1.0], [4.0], [9.0]])
        means2 = np.zeros((rows2, 1))
        with pytest.raises(ValueError, match="must match means2"):
            expectation_tiles(means, variances, 1.0, means2, np.ones((7 - rows2, 1)))
        # zero means at gamma = 1: E l(z, z') = (1 / (1 + v + 1))^(1/2) against models,
        # E l(z, 0) = (1 / (1 + v))^(1/2) against points
        got = expectation_matrix(means, variances, 1.0, means2, np.ones((rows2, 1)))
        want = np.repeat(1.0 / np.sqrt(2.0 + variances), rows2, axis=1)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        got = expectation_matrix(means, variances, 1.0, means2)
        want = np.repeat(1.0 / np.sqrt(1.0 + variances), rows2, axis=1)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_point_mass_limit_reduces_to_plain_kernel(self):
        g = g1([0.7], [1e-14])
        kernel = GaussianKernel(1.3)
        y = np.array([0.2])
        assert single_expectation(g, y, 1.3) == pytest.approx(
            kernel(g.mean, y), rel=1e-6)

    def test_single_expectation_standard_case(self):
        got = single_expectation(g1(0.0, 1.0), np.array([0.0]), 1.0)
        assert got == pytest.approx(np.sqrt(0.5))
        rng = np.random.default_rng(3)
        assert got == pytest.approx(
            mc_gaussian_kernel_single(0.0, 1.0, 0.0, 1.0, 1_000_000, rng), abs=3e-3)

    def test_double_expectation_standard_case(self):
        got = double_expectation(g1(0.0, 1.0), g1(0.0, 1.0), 1.0)
        assert got == pytest.approx(np.sqrt(1.0 / 3.0))
        rng = np.random.default_rng(4)
        assert got == pytest.approx(
            mc_gaussian_kernel_double(0.0, 1.0, 0.0, 1.0, 1.0, 1_000_000, rng), abs=3e-3)

    def test_multidimensional_against_mc(self):
        rng = np.random.default_rng(5)
        g = g1([0.5, -0.3], [0.8, 1.7])
        h = g1([-0.2, 0.4], [1.1, 0.6])
        got = double_expectation(g, h, 0.9)
        want = mc_gaussian_kernel_double(g.mean, g.var, h.mean, h.var, 0.9, 1_000_000, rng)
        assert got == pytest.approx(want, abs=3e-3)


class TestGFD:
    def test_identical_scores_give_zero(self):
        g = g1([0.3, 0.1], [1.0, 2.0])
        z = np.random.default_rng(0).normal(size=(10, 2))
        assert gfd(g, g, z) == 0.0

    def test_constant_score_difference_is_exact_for_any_base(self):
        p, q = g1(0.0, 1.0), g1(1.0, 1.0)
        for seed in range(5):
            z = np.random.default_rng(seed).normal(size=(4, 1))
            assert gfd(p, q, z) == pytest.approx(1.0)

    def test_closed_form_examples(self):
        assert gfd_gaussian_closed(g1(0.0, 1.0), g1(0.0, 1.0)) == 0.0
        assert gfd_gaussian_closed(g1(0.0, 1.0), g1(1.0, 1.0)) == pytest.approx(1.0)
        assert gfd_gaussian_closed(g1([0.0, 0.0], [1.0, 1.0]),
                                   g1([0.0, 0.0], [2.0, 2.0])) == pytest.approx(0.5)

    def test_closed_form_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gfd_gaussian_closed(g1(0.0, 1.0), g1([0.0, 0.0], [1.0, 1.0]))

    def test_estimate_converges_to_closed_form(self):
        p = g1([0.0, 0.0], [1.0, 1.0])
        q = g1([0.0, 0.0], [2.0, 2.0])
        m = 40_000
        z = RandomStream(31).derive("base").generator().standard_normal((m, 2))
        diffs = np.sum(((p.mean - z) / p.var - (q.mean - z) / q.var) ** 2, axis=1)
        tol = 3.0 * diffs.std() / np.sqrt(m)
        assert abs(gfd(p, q, z) - 0.5) <= tol

    def test_estimate_tracks_closed_form_across_seeds(self):
        rng = np.random.default_rng(77)
        m = 400
        for seed in range(10):
            p, q = random_gaussians(np.random.default_rng(seed), 2, 2)
            z = RandomStream(seed).derive("base").generator().standard_normal((m, 2))
            per_sample = np.sum((p.batch.score(z) - q.batch.score(z)) ** 2, axis=1)
            tol = 3.0 * per_sample.std() / np.sqrt(m)
            assert abs(gfd(p, q, z) - gfd_gaussian_closed(p, q)) <= tol

    def test_works_on_generic_scored_densities(self):
        p = ScoredDensity(dim=1, score=lambda y: -y)          # N(0,1) score
        q = ScoredDensity(dim=1, score=lambda y: (1.0 - y))   # N(1,1) score
        z = np.random.default_rng(1).normal(size=(8, 1))
        assert gfd(p, q, z) == pytest.approx(1.0)


_BASE_SAMPLED = [
    pytest.param(lambda base_samples: ExpGFDKernel(None, base_samples), id="exp_gfd"),
    pytest.param(lambda base_samples: ExpKGFDKernel(None, GaussianKernel(1.0), base_samples),
                 id="exp_kgfd"),
]


class TestExpGFD:
    @pytest.mark.parametrize("make", _BASE_SAMPLED)
    @pytest.mark.parametrize("base_samples", [0, -3, 2.5, "10", None, np.zeros((0, 2)),
                                              [[]], np.zeros(3), np.zeros((2, 2, 2))],
                             ids=["zero", "negative", "float", "string", "none", "no-rows",
                                  "no-columns", "1-d", "3-d"])
    def test_base_samples_must_be_a_count_or_an_m_by_d_array(self, make, base_samples):
        with pytest.raises(ValueError, match="base_samples must be|frozen base samples must"):
            make(base_samples)

    @pytest.mark.parametrize("make", _BASE_SAMPLED)
    def test_a_frozen_base_of_another_dimension_is_rejected(self, make):
        kernel = make(np.zeros((10, 1)))
        models = stack([g1([0.0, 0.0], [1.0, 1.0]), g1([1.0, 0.0], [1.0, 2.0])])
        with pytest.raises(ValueError, match="dimension 1, the models dimension 2"):
            kernel.gram(models)

    @pytest.mark.parametrize("make", _BASE_SAMPLED)
    def test_a_count_draws_one_standard_normal_block_in_the_models_dimension(self, make):
        rng = np.random.default_rng(12)
        models = GaussianBatch(rng.normal(size=(9, 3)), rng.uniform(0.5, 2.0, size=(9, 3)))
        stream = RandomStream(5).derive("base")
        frozen = make(stream.generator().standard_normal((4, 3)))
        assert np.array_equal(make(4).distance_blocks(models, stream).dense(),
                              frozen.distance_blocks(models).dense())

    def test_a_frozen_base_is_kept_as_a_read_only_copy(self):
        z = np.random.default_rng(3).normal(size=(6, 1))
        kernel = ExpGFDKernel(1.0, base_samples=z)
        before = pair_value(kernel, g1(0.0, 1.0), g1(1.0, 2.0))
        z[:] = 0.0
        assert pair_value(kernel, g1(0.0, 1.0), g1(1.0, 2.0)) == before
        with pytest.raises(ValueError):
            kernel.base_samples[0, 0] = 1.0

    def test_diagonal_is_one(self):
        g = g1([0.2], [1.5])
        kernel = ExpGFDKernel(1.0, base_samples=np.zeros((3, 1)))
        assert pair_value(kernel, g, g) == 1.0

    def test_unit_mean_shift(self):
        kernel = ExpGFDKernel(1.0, base_samples=np.random.default_rng(0).normal(size=(7, 1)))
        got = pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))
        assert got == pytest.approx(np.exp(-0.5))

    def test_variance_mismatch_with_large_base(self):
        z = RandomStream(8).derive("base").generator().standard_normal((20_000, 2))
        kernel = ExpGFDKernel(1.0, base_samples=z)
        got = pair_value(kernel, g1([0.0, 0.0], [1.0, 1.0]), g1([0.0, 0.0], [2.0, 2.0]))
        assert got == pytest.approx(np.exp(-0.25), abs=5e-3)

    def test_requires_frozen_base(self):
        kernel = ExpGFDKernel(1.0)
        with pytest.raises(ValueError):
            pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 11), (5, 6), (8, 4)])
    def test_mostly_identical_models_give_a_degenerate_sigma(self, d, seed):
        # 325 of the 435 pairs are identical, so the median distance is zero; a
        # plain rank-k update left these duplicates about 1e-14 apart, and sigma 1e-7
        rng = np.random.default_rng(seed)
        mu, v = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        models = GaussianBatch(np.vstack([mu + rng.normal(size=(4, d)), np.tile(mu, (26, 1))]),
                               np.tile(v, (30, 1)))
        kernel = ExpGFDKernel(None)
        sq = kernel.distance_blocks(models, RandomStream(0).derive("base")).dense()
        assert np.all(sq[4:, 4:] == 0.0)
        assert np.array_equal(sq, sq.T) and np.all(sq[:4, :4][~np.eye(4, dtype=bool)] > 0.0)
        with pytest.raises(DegenerateBandwidthError):
            kernel.gram(models, RandomStream(0).derive("base"))


class _ConstantGround:
    """Ground-kernel test double that is identically one."""

    def gram(self, points, points2=None):
        other = points if points2 is None else points2
        return np.ones((len(points), len(other)))


class TestKGFD:
    def test_identical_scores_give_zero(self):
        g = g1([0.1], [1.0])
        z = np.random.default_rng(2).normal(size=(5, 1))
        assert kgfd(g, g, z, GaussianKernel(1.0)) == 0.0

    def test_requires_stream_without_frozen_base(self):
        kernel = ExpKGFDKernel(1.0, GaussianKernel(1.0))
        with pytest.raises(ValueError, match="needs a random stream"):
            pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))

    def test_constant_difference_factorizes_to_ground_mean(self):
        p, q = g1(0.0, 1.0), g1(1.0, 1.0)
        z = np.random.default_rng(3).normal(size=(6, 1))
        ground = GaussianKernel(0.8)
        assert kgfd(p, q, z, ground) == pytest.approx(float(ground.gram(z).mean()))

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(4)
        p, q = random_gaussians(rng, 2, 2)
        z = rng.normal(size=(5, 2))
        ground = IMQKernel(1.3)
        diffs = p.batch.score(z) - q.batch.score(z)
        want = brute_force_kgfd(diffs, lambda a, b: ground(a, b), z)
        assert kgfd(p, q, z, ground) == pytest.approx(want)

    def test_nonnegative_for_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, q = random_gaussians(rng, 2, 3)
            z = rng.normal(size=(6, 3))
            assert kgfd(p, q, z, GaussianKernel(1.0)) >= 0.0

    def test_constant_ground_kernel_recovers_mean_score_difference(self):
        rng = np.random.default_rng(6)
        for m in (1, 3, 5):
            p, q = random_gaussians(rng, 2, 2)
            z = rng.normal(size=(m, 2))
            diffs = p.batch.score(z) - q.batch.score(z)
            want = float(np.sum(diffs.mean(axis=0) ** 2))
            got = kgfd(p, q, z, _ConstantGround())
            assert got == pytest.approx(want)
            assert got >= 0.0


class TestExpKGFD:
    def test_diagonal_is_one(self):
        g = g1([0.4], [2.0])
        kernel = ExpKGFDKernel(1.0, GaussianKernel(1.0), base_samples=np.zeros((2, 1)))
        assert pair_value(kernel, g, g) == 1.0

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 2))
        kernel = ExpKGFDKernel(0.7, IMQKernel(1.1), base)
        p, q = random_gaussians(rng, 2, 2)
        assert pair_value(kernel, p, q) == pair_value(kernel, q, p)

    def test_single_base_sample_closed_form(self):
        kernel = ExpKGFDKernel(1.0, GaussianKernel(1.0), base_samples=np.zeros((1, 1)))
        got = pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))
        assert got == pytest.approx(np.exp(-0.5))


class TestExpMMD:
    @pytest.mark.parametrize("samples", [0, -1, 2.5, "sampled", np.zeros(3)],
                             ids=["zero", "negative", "float", "string", "array"])
    def test_samples_must_be_none_or_a_count(self, samples):
        with pytest.raises(ValueError, match="samples must be None or a count"):
            ExpMMDKernel(1.0, GaussianKernel(1.0), samples=samples)

    def test_diagonal_is_one(self):
        g = g1([0.3, 0.1], [1.0, 1.0])
        kernel = ExpMMDKernel(1.0, GaussianKernel(1.0))
        assert pair_value(kernel, g, g) == 1.0

    def test_closed_form_unit_shift(self):
        # T(p,p) = T(q,q) = 3^{-1/2}, T(p,q) = 3^{-1/2} e^{-1/6} (MC-checked below)
        kernel = ExpMMDKernel(1.0, GaussianKernel(1.0))
        got = pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))
        want = np.exp(-(2.0 / np.sqrt(3.0)) * (1.0 - np.exp(-1.0 / 6.0)) / 2.0)
        assert got == pytest.approx(want)

    def test_closed_form_against_mc(self):
        rng = np.random.default_rng(9)
        p, q = g1([0.4, -0.6], [1.2, 0.7]), g1([-0.1, 0.3], [0.9, 1.4])
        kernel = ExpMMDKernel(1.0, GaussianKernel(1.0))
        n = 400_000
        tpp = mc_gaussian_kernel_double(p.mean, p.var, p.mean, p.var, 1.0, n, rng)
        tqq = mc_gaussian_kernel_double(q.mean, q.var, q.mean, q.var, 1.0, n, rng)
        tpq = mc_gaussian_kernel_double(p.mean, p.var, q.mean, q.var, 1.0, n, rng)
        want = np.exp(-max(tpp + tqq - 2 * tpq, 0.0) / 2.0)
        assert pair_value(kernel, p, q) == pytest.approx(want, abs=5e-3)

    def test_sampled_mode_converges_to_closed_form(self):
        m = 400
        p, q = g1(0.0, 1.0), g1(1.5, 2.0)
        closed = pair_value(ExpMMDKernel(1.0, GaussianKernel(1.0)), p, q)
        sampled_kernel = ExpMMDKernel(1.0, GaussianKernel(1.0), samples=m)
        got = pair_value(sampled_kernel, p, q, RandomStream(41).derive("mmd"))
        assert abs(got - closed) <= 3.0 / np.sqrt(m)

    @pytest.mark.parametrize("d", [1, 5])
    def test_sampled_mode_matches_the_dense_mean_gram_of_its_draws(self, d):
        # 700 models of three draws each: many row blocks of whole groups
        n, m = 700, 3
        rng = np.random.default_rng(70 + d)
        models = GaussianBatch(rng.normal(size=(n, d)), rng.uniform(0.5, 2.0, size=(n, d)))
        kernel = ExpMMDKernel(None, GaussianKernel(1.0), samples=m)
        stream = RandomStream(17)
        got = kernel.distance_blocks(models, stream).dense()
        draws = models.sample(m, stream.derive("mmd-samples")).reshape(n * m, d)
        inner = dense_mean_gram(kernel.ground._f, draws, m, None, m)
        want = dense_mirrored_upper(dense_distances_from_inner(inner, np.diagonal(inner)))
        if d == 1:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_sampled_mode_requires_sampler(self):
        sd = ScoredDensity(dim=1, score=lambda y: -y)
        kernel = ExpMMDKernel(1.0, GaussianKernel(1.0), samples=4)
        with pytest.raises(CapabilityError):
            pair_value(kernel, sd, sd, RandomStream(0))

    def test_closed_form_rejects_imq_ground(self):
        kernel = ExpMMDKernel(1.0, IMQKernel(1.0))
        with pytest.raises(UnsupportedKernelError):
            pair_value(kernel, g1(0.0, 1.0), g1(1.0, 1.0))


class TestExpWasserstein:
    def test_identical_models(self):
        g = g1([0.0, 0.0], [1.0, 1.0])
        assert pair_value(ExpWassersteinKernel(1.0), g, g) == 1.0

    def test_same_mean_same_scale(self):
        p = g1([0.0, 0.0], [1.0, 1.0])
        q = g1([0.0, 0.0], [1.0, 1.0])
        assert pair_value(ExpWassersteinKernel(2.0), p, q) == 1.0

    def test_unit_mean_shift(self):
        got = pair_value(ExpWassersteinKernel(1.0), g1(0.0, 1.0), g1(1.0, 1.0))
        assert got == pytest.approx(np.exp(-0.5))

    def test_scale_term(self):
        p = g1([0.0, 0.0], [1.0, 1.0])
        q = g1([0.0, 0.0], [4.0, 4.0])
        # squared distance = d (sigma - sigma')^2 = 2 * (1 - 2)^2 = 2
        assert pair_value(ExpWassersteinKernel(1.0), p, q) == pytest.approx(np.exp(-1.0))

    def test_anisotropic_input_rejected(self):
        aniso = g1([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(UnsupportedKernelError):
            pair_value(ExpWassersteinKernel(1.0), aniso, aniso)


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic(np.array([[0.0], [1.0]])) == 1.0

    def test_lower_median_of_three(self):
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(np.array([[0.0], [0.0]]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic(np.array([[0.0]]))

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_equals_the_lower_median_of_all_pair_distances(self, d):
        # more points than one row block holds, so several blocks are stitched
        points = np.random.default_rng(d).normal(size=(301, d))
        dist = np.sqrt(squared_distances_by_differences(points, points))
        want = np.sort(dist[np.triu_indices(301, k=1)])[(301 * 300 // 2 - 1) // 2]
        assert median_heuristic(points) == want

    def test_duplicate_points_in_five_dimensions_degenerate(self):
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(np.tile([0.5, 1.0, -2.0, 0.0, 3.0], (5, 1)))

    @pytest.mark.parametrize("seed", [2, 4, 8])
    def test_non_dyadic_duplicates_degenerate(self, seed):
        # 136 of the 190 pairs are copies of one row, so the median distance is
        # zero. The differences of equal rows are exact zeros; the product form
        # ||a||^2 + ||b||^2 - 2 <a, b> of squared_distance_rows leaves a median of
        # 7e-9 to 1e-8 at these seeds, which is why the heuristic does not use it
        rng = np.random.default_rng(seed)
        points = np.vstack([np.tile(rng.normal(size=5), (17, 1)), rng.normal(size=(3, 5))])
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(points)

    def test_even_count_uses_lower_median(self):
        # distances of {0,1,2,4}: 1,2,4,1,3,2 -> sorted 1,1,2,2,3,4 -> lower median 2
        assert median_heuristic(np.array([[0.0], [1.0], [2.0], [4.0]])) == 2.0

    def test_flat_array_is_read_as_scalar_points(self):
        assert median_heuristic(np.array([0.0, 1.0, 3.0])) == 2.0

    def test_overflowing_distances_raise_as_the_distribution_median_does(self):
        # the squares of differences near 1e200 overflow to inf
        with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                       match="squared distance is not finite"):
            median_heuristic(np.array([0.0, 1e200, 2e200, 3e200]))


class TestSecondOrderMedianHeuristic:
    def test_deterministic_under_fixed_stream(self):
        models = stack(random_gaussians(np.random.default_rng(11), 6, 2))
        stream = RandomStream(5).derive("bw")
        a = second_order_median_heuristic(models, 10, stream)
        b = second_order_median_heuristic(models, 10, stream)
        assert a == b

    def test_matches_loop_recomputation_with_same_stream(self):
        models = random_gaussians(np.random.default_rng(12), 5, 2)
        stream = RandomStream(6).derive("bw")
        got = second_order_median_heuristic(stack(models), 8, stream)

        means = np.stack([g.mean for g in models])
        variances = np.stack([g.var for g in models])
        idx_i, idx_j = np.triu_indices(len(models), k=1)
        rng = stream.generator()
        pick = rng.random((idx_i.size, 8)) < 0.5
        xi = rng.standard_normal((idx_i.size, 8, 2))
        per_pair = []
        for row in range(idx_i.size):
            pts = np.empty((8, 2))
            for s in range(8):
                src = idx_i[row] if pick[row, s] else idx_j[row]
                pts[s] = means[src] + np.sqrt(variances[src]) * xi[row, s]
            dists = sorted(np.linalg.norm(pts[a] - pts[b])
                           for a in range(8) for b in range(a + 1, 8))
            per_pair.append(dists[(len(dists) - 1) // 2])
        want = sorted(per_pair)[(len(per_pair) - 1) // 2]
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def recorded_models(n, d):
        rng = np.random.default_rng(1000 * n + d)
        return GaussianBatch(rng.normal(scale=2.0, size=(n, d)),
                             rng.uniform(0.5, 2.5, size=(n, d)))

    # Recorded at the implementation that gathered every sample pair through
    # np.triu_indices and sorted the square-rooted distances of each model pair.
    # 130 models make 8385 pairs (two chunks), 300 make 44850 (six chunks).
    RECORDED = {
        (130, 1): (1.5646385007367711, 1.8717505541824, 1.605555820701199),
        (130, 3): (3.4518833305202947, 3.908402869431374, 3.6033430965253097),
        (130, 9): (6.764982824464356, 7.99630614846405, 7.073968018839986),
        (300, 1): (1.4927148161747297, 1.853580657540082, 1.5757633675137823),
        (300, 3): (3.5247905166396403, 3.9924847044917655, 3.6771286715026683),
        (300, 9): (6.726294668058376, 7.95941154628059, 7.070213610549733),
    }

    @pytest.mark.parametrize("n, d", sorted(RECORDED))
    def test_recorded_values_across_chunk_boundaries(self, n, d):
        models = self.recorded_models(n, d)
        got = tuple(second_order_median_heuristic(models, s, RandomStream(13).derive("bw", n))
                    for s in (2, 3, 10))
        assert got == self.RECORDED[(n, d)]

    # Recorded at s = 10 at the implementation that formed each 8192-pair chunk in fresh
    # arrays. 1024 models (the kccsd-lgm-kgfd benchmark's shape) make 64 chunks, 400 make
    # ten, the last of 6072 pairs: neither last chunk is a whole number of sub-chunks.
    RECORDED_S10 = {(1024, 1): 1.6071196066890732, (400, 5): 5.068937207308466}

    @pytest.mark.parametrize("n, d", sorted(RECORDED_S10))
    def test_recorded_values_at_benchmark_sizes(self, n, d):
        got = second_order_median_heuristic(self.recorded_models(n, d), 10,
                                            RandomStream(13).derive("bw", n))
        assert got == self.RECORDED_S10[(n, d)]

    @pytest.mark.parametrize("n, d, extra", [(1024, 1, 2 ** 19), (400, 5, 2 ** 20)])
    def test_working_set_beyond_the_per_pair_medians_is_fixed(self, n, d, extra):
        models = self.recorded_models(n, d)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            second_order_median_heuristic(models, 10, RandomStream(13).derive("bw", n))
            peak = (tracemalloc.get_traced_memory()[1] - base) / 8.0
        finally:
            tracemalloc.stop()
        assert peak <= n * (n - 1) // 2 + extra

    def test_normals_drawn_in_pieces_match_one_draw(self):
        # the stream layout a chunk relies on: its uniforms, then its normals, which
        # may be drawn in consecutive pieces; the stream then goes on alike
        count, s, d, piece = 6072, 10, 3, kernels._PAIR_SUB_CHUNK
        one = RandomStream(14).derive("bw").generator()
        uniforms, normals = one.random((count, s)), one.standard_normal((count, s, d))
        pieces = RandomStream(14).derive("bw").generator()
        uniforms_out, normals_out = np.empty((count, s)), np.empty((count, s, d))
        pieces.random(out=uniforms_out)
        for lo in range(0, count, piece):
            pieces.standard_normal(out=normals_out[lo:lo + piece])
        np.testing.assert_array_equal(uniforms_out, uniforms)
        np.testing.assert_array_equal(normals_out, normals)
        assert pieces.random() == one.random()

    def test_overflowing_sample_distances_raise_without_a_warning(self):
        # samples of spread near 1e154 differ by more than the square root of the
        # largest float
        models = stack([g1(float(i), 1.7e308) for i in range(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="second-order sample distance is not finite"):
                second_order_median_heuristic(models, 10, RandomStream(8).derive("bw"))

    def test_single_pair_converges_to_true_mixture_median(self):
        models = stack([g1(0.0, 1.0), g1(2.0, 1.0)])
        got = second_order_median_heuristic(models, 2001, RandomStream(7).derive("bw"))
        want = mixture_distance_median(0.0, 2.0, 1.0)
        assert got == pytest.approx(want, abs=0.1)

    def test_near_point_mass_models_collapse_toward_zero(self):
        models = stack([g1(0.0, 1e-300), g1(0.0, 1e-300)])
        got = second_order_median_heuristic(models, 10, RandomStream(8).derive("bw"))
        assert got < 1e-100

    def test_draws_that_all_round_to_the_mean_are_degenerate(self):
        # 1.0 + 1e-150 * xi rounds to 1.0 for every draw, so every distance is zero
        models = stack([g1(1.0, 1e-300)] * 3)
        with pytest.raises(DegenerateBandwidthError, match="second-order median distance is zero"):
            second_order_median_heuristic(models, 10, RandomStream(8).derive("bw"))

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            second_order_median_heuristic(g1(0.0, 1.0).batch, 10, RandomStream(0))

    def test_score_only_models_raise_capability_error(self):
        models = ScoredBatch([ScoredDensity(dim=1, score=lambda y: -y)] * 3)
        with pytest.raises(CapabilityError):
            second_order_median_heuristic(models, 10, RandomStream(0))


class TestSampledSecondOrderMedianHeuristic:
    """The heuristic with the pair budget of the ``second_order_median_sampled`` token."""

    BUDGET = kernels.SAMPLED_PAIRS

    @staticmethod
    def both(models, s, stream):
        """(exact, sampled) values on one stream."""
        return (second_order_median_heuristic(models, s, stream),
                second_order_median_heuristic(models, s, stream,
                                              pair_budget=kernels.SAMPLED_PAIRS))

    @pytest.mark.parametrize("n", [2, 3, 64, 91])
    def test_at_most_the_budget_of_pairs_gives_the_exact_float(self, n):
        # 91 models make 4095 pairs, one fewer than the budget
        models = TestSecondOrderMedianHeuristic.recorded_models(n, 2)
        exact, sampled = self.both(models, 10, RandomStream(21).derive("bw", n))
        assert sampled == exact

    def test_engaged_above_the_budget_with_the_pairs_drawn_first(self):
        # 92 models make 4186 pairs. The pair indices come first on the stream, then the
        # one chunk's uniforms and normals; recomputed here with one (P, s, s) tensor
        n, s, d = 92, 6, 2
        models = TestSecondOrderMedianHeuristic.recorded_models(n, d)
        stream = RandomStream(22).derive("bw")
        exact, got = self.both(models, s, stream)
        assert got != exact

        rng = stream.generator()
        flat = np.sort(rng.integers(0, n * (n - 1) // 2, self.BUDGET))
        first, second = (index[flat] for index in np.triu_indices(n, k=1))
        pick = rng.random((self.BUDGET, s)) < 0.5
        xi = rng.standard_normal((self.BUDGET, s, d))
        source = np.where(pick, first[:, None], second[:, None])
        points = models.means[source] + np.sqrt(models.variances[source]) * xi
        distances = np.sqrt(np.sum((points[:, :, None] - points[:, None]) ** 2, axis=-1))
        a, b = np.triu_indices(s, k=1)
        per_pair = np.sort(distances[:, a, b], axis=1)[:, (len(a) - 1) // 2]
        want = np.sort(per_pair)[(self.BUDGET - 1) // 2]
        assert got == pytest.approx(want, rel=1e-12)

    def test_deterministic_under_fixed_stream(self):
        models = TestSecondOrderMedianHeuristic.recorded_models(200, 3)
        a, b = (second_order_median_heuristic(models, 10, RandomStream(23).derive("bw"),
                                              pair_budget=self.BUDGET) for _ in range(2))
        assert a == b

    @pytest.mark.parametrize("budget", [None, kernels.SAMPLED_PAIRS], ids=["exact", "sampled"])
    @pytest.mark.parametrize("models, error, message", [
        (ScoredBatch([ScoredDensity(dim=1, score=lambda y: -y)] * 100), CapabilityError,
         "needs diagonal Gaussian models"),
        (stack([g1(float(i), 1.7e308) for i in range(100)]), NumericalError,
         "second-order sample distance is not finite"),
        (stack([g1(1.0, 1e-300)] * 100), DegenerateBandwidthError,
         "second-order median distance is zero"),
    ], ids=["score-only", "overflow", "degenerate"])
    def test_both_paths_raise_the_same_errors(self, budget, models, error, message):
        # 100 models make 4950 pairs, so the budget draws pairs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                second_order_median_heuristic(models, 10, RandomStream(8).derive("bw"),
                                              pair_budget=budget)

    def test_budget_must_be_positive(self):
        models = TestSecondOrderMedianHeuristic.recorded_models(4, 1)
        with pytest.raises(ValueError, match="pair_budget"):
            second_order_median_heuristic(models, 10, RandomStream(0), pair_budget=0)

    def test_working_set_does_not_grow_with_n(self):
        # 2048 models make 2096128 pairs, whose medians alone the exact path keeps; the
        # sampled path keeps 4096, beside its fixed buffers
        models = TestSecondOrderMedianHeuristic.recorded_models(2048, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            second_order_median_heuristic(models, 10, RandomStream(13).derive("bw"),
                                          pair_budget=self.BUDGET)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 8.0
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 18

    # Relative bound per family at n = 512: the 0.5 -+ 1.5 / sqrt(P) quantiles of the
    # all-pairs per-pair medians, rounded up. A median of P independent draws falls
    # between them with probability about 0.997 (3 standard deviations of its rank).
    DEVIATION_BOUND = {"lgm": 0.065, "mgm": 0.01, "hgm": 0.03, "qgm": 0.025}

    @pytest.mark.parametrize("family", sorted(DEVIATION_BOUND))
    def test_deviation_from_the_exact_value_is_bounded(self, family):
        for seed in (1, 2, 3):
            models = sample_setup(SyntheticSetup(family, 0.0), 512,
                                  RandomStream(seed).derive("data")).models
            exact, sampled = self.both(models, 10, RandomStream(seed).derive("bandwidth"))
            assert abs(sampled - exact) <= self.DEVIATION_BOUND[family] * exact, seed


class TestGram:
    def test_single_model(self):
        kernel = ExpGFDKernel(1.0)
        matrix = kernel.gram(g1(0.0, 1.0).batch, RandomStream(0).derive("base"))
        assert matrix.shape == (1, 1) and matrix[0, 0] == 1.0

    def test_single_model_needs_no_bandwidth(self):
        kernel = ExpGFDKernel(None)
        matrix = kernel.gram(g1(0.0, 1.0).batch, RandomStream(0).derive("base"))
        assert matrix[0, 0] == 1.0

    def test_two_identical_models(self):
        kernel = ExpGFDKernel(1.0)
        matrix = kernel.gram(stack([g1(0.5, 2.0), g1(0.5, 2.0)]), RandomStream(1).derive("base"))
        assert matrix == pytest.approx(np.ones((2, 2)))

    def test_gram_consistent_with_pairwise_evaluation(self):
        rng = np.random.default_rng(19)
        models = random_gaussians(rng, 5, 2)
        z = rng.normal(size=(10, 2))
        kernel = ExpGFDKernel(0.9, base_samples=z)
        matrix = kernel.gram(stack(models))
        for i in range(5):
            for j in range(5):
                if i != j:
                    want = direct_gfd(lambda x: models[i].batch.score(x)[0],
                                      lambda x: models[j].batch.score(x)[0], z)
                    assert matrix[i, j] == pytest.approx(np.exp(-want / (2.0 * 0.9 ** 2)))

    def test_kgfd_gram_consistent_with_pairwise_evaluation(self):
        rng = np.random.default_rng(22)
        models = random_gaussians(rng, 4, 2)
        z = rng.normal(size=(7, 2))
        kernel = ExpKGFDKernel(1.1, IMQKernel(0.8), base_samples=z)
        matrix = kernel.gram(stack(models))

        def imq(a, b):
            return 1.0 / (1.0 + np.sum((a - b) ** 2) / 0.8 ** 2)

        for i in range(4):
            for j in range(4):
                if i != j:
                    diffs = models[i].batch.score(z) - models[j].batch.score(z)
                    want = brute_force_kgfd(diffs, imq, z)
                    assert matrix[i, j] == pytest.approx(np.exp(-want / (2.0 * 1.1 ** 2)))

    def test_median_sigma_policy_resolves_within_gram(self):
        rng = np.random.default_rng(20)
        models = stack(random_gaussians(rng, 6, 1))
        kernel = ExpGFDKernel(None)
        matrix = kernel.gram(models, RandomStream(2).derive("base"))
        assert matrix.shape == (6, 6)
        assert np.all((matrix > 0) & (matrix <= 1.0))

    @pytest.mark.parametrize("make", [
        pytest.param(ExpWassersteinKernel, id="exp_wasserstein"),
        pytest.param(lambda sigma: ExpGFDKernel(
            sigma, base_samples=np.random.default_rng(7).normal(size=(5, 2))),
            id="exp_gfd"),
    ])
    @pytest.mark.parametrize("n, distinct", [(2, 1), (7, 1), (5, 2), (6, 3), (24, 3), (25, 4),
                                             (40, 6), (8, 8)])
    @pytest.mark.parametrize("seed", range(4))
    def test_median_sigma_on_duplicated_models_is_the_upper_triangle_lower_median(
            self, make, n, distinct, seed):
        rng = np.random.default_rng(seed)
        pick = rng.integers(0, distinct, size=n)
        means = rng.normal(size=(distinct, 2))[pick]
        variances = np.repeat(rng.uniform(0.5, 2.0, size=(distinct, 1)), 2, axis=1)[pick]
        models = GaussianBatch(means, variances)
        sq = make(None).distance_blocks(models).dense()
        upper = sorted(sq[i, j] for i in range(n) for j in range(i + 1, n))
        median = upper[(len(upper) - 1) // 2]
        if median == 0.0:
            with pytest.raises(DegenerateBandwidthError):
                make(None).gram(models)
        else:
            want = make(float(np.sqrt(median))).gram(models)
            assert np.array_equal(make(None).gram(models), want)

    def _psd_check(self, kernel, models, stream=None):
        matrix = kernel.gram(models, stream)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_all_four_kernels_are_psd_on_random_models(self):
        rng = np.random.default_rng(21)
        iso = stack([g1(rng.normal(scale=2.0, size=2), np.full(2, rng.uniform(0.5, 2.0)))
                     for _ in range(20)])
        stream = RandomStream(3)
        self._psd_check(ExpGFDKernel(None), iso, stream.derive("a"))
        self._psd_check(ExpKGFDKernel(None, GaussianKernel(1.0)), iso, stream.derive("b"))
        self._psd_check(ExpMMDKernel(None, GaussianKernel(1.0)), iso, stream.derive("c"))
        self._psd_check(ExpMMDKernel(None, GaussianKernel(1.0), samples=10),
                        iso, stream.derive("d"))
        self._psd_check(ExpWassersteinKernel(None), iso)

    def test_squared_distances_are_exactly_symmetric_with_zero_diagonal(self):
        # the Gram relies on this contract instead of symmetrising
        rng = np.random.default_rng(23)
        iso = stack([g1(rng.normal(scale=2.0, size=3), np.full(3, rng.uniform(0.5, 2.0)))
                     for _ in range(30)])
        stream = RandomStream(4)
        for kernel in (ExpGFDKernel(None),
                       ExpKGFDKernel(None, GaussianKernel(1.0)),
                       ExpMMDKernel(None, GaussianKernel(1.0)),
                       ExpMMDKernel(None, GaussianKernel(1.0), samples=10),
                       ExpWassersteinKernel(None)):
            sq = kernel.distance_blocks(iso, stream.derive(kernel.name)).dense()
            assert np.array_equal(sq, sq.T), kernel.name
            assert np.all(np.diag(sq) == 0.0) and np.all(sq >= 0.0), kernel.name

    def test_median_sigma_is_the_square_root_of_the_median_squared_distance(self):
        rng = np.random.default_rng(24)
        models = GaussianBatch(rng.normal(size=(41, 2)), rng.uniform(0.5, 2.0, size=(41, 2)))
        base = rng.normal(size=(10, 2))
        sq = ExpGFDKernel(None, base).distance_blocks(models).dense()
        dist = np.sort(np.sqrt(sq[np.triu_indices(41, k=1)]))
        sigma = dist[(dist.size - 1) // 2]
        assert np.array_equal(ExpGFDKernel(None, base).gram(models),
                              ExpGFDKernel(sigma, base).gram(models))

    def test_wasserstein_needs_isotropic_models(self):
        kernel = ExpWassersteinKernel(1.0)
        with pytest.raises(UnsupportedKernelError):
            kernel.gram(stack([g1([0.0, 0.0], [1.0, 2.0]), g1([1.0, 1.0], [1.0, 1.0])]))

"""Kernels on the target space and on probability densities.

The scalar kernels carry the analytic derivative bundle (value, both
gradients, mixed-derivative trace) that the Stein-type statistic consumes.
The distribution kernels are exponentiated Hilbertian metrics; their Gram
matrices stay positive semi-definite because every pairwise distance within
one matrix is estimated against a single shared set of base samples.
"""
from __future__ import annotations

import functools
import math
import sys
from abc import ABC, abstractmethod
from typing import Optional, Union

import numpy as np

from .models import GaussianBatch, ModelBatch, require_finite
from .sampling import CapabilityError, RandomStream

# Model pairs per chunk of the second-order heuristic. The chunk size and the order of
# the draws within a chunk (its uniforms, then its normals) fix its stream layout:
# changing either changes its output. A chunk is formed _PAIR_SUB_CHUNK pairs at a
# time in buffers made once per call; the sub-chunk size does not change the output.
_PAIR_CHUNK = 8192
_PAIR_SUB_CHUNK = 1024
# Model pairs that the sampled second-order heuristic draws when a batch has more
SAMPLED_PAIRS = 4096
_ROW_BLOCK_ELEMENTS = 1 << 17  # floats in one (rows, n2) block of a pairwise matrix
_ROW_TILE = 48  # a block's first row is a multiple of this; see row_blocks
_MIRROR_TILE = 128  # edge of the square tiles that mirror_upper copies


class DegenerateBandwidthError(ValueError):
    """A bandwidth heuristic collapsed to zero, or a bandwidth's power that a kernel
    divides by is not a positive, finite, normal float."""


def _require_normal_power(name: str, value: float, power: int) -> None:
    """Raise :class:`DegenerateBandwidthError` unless ``value ** power`` is a positive,
    finite, normal float: a kernel that divides by an overflowed or underflowed power
    gives infinities, NaN or a silently wrong statistic."""
    try:
        raised = value ** power
    except OverflowError:  # Python floats raise here where numpy would give inf
        raised = math.inf
    if not sys.float_info.min <= raised < math.inf:  # NaN fails both comparisons
        raise DegenerateBandwidthError(
            f"{name} {value!r} is out of range: {value!r}**{power} is not a positive, "
            "finite, normal float")


class UnsupportedKernelError(ValueError):
    """The requested kernel/model combination has no implementation."""


# ---------------------------------------------------------------------------
# Scalar kernels on the target space
# ---------------------------------------------------------------------------

class ScalarKernel(ABC):
    """Radial kernel l(y, y') = f(||y - y'||^2) with analytic derivatives.

    Subclasses give the profile f and its first two derivatives; the Stein
    rows of :func:`steincal.statistics._stein_rows` are assembled from them.
    They divide by the bandwidth's fourth power, which is range-checked here.
    """

    name: str

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        _require_normal_power(f"{self.name} kernel bandwidth", self.bandwidth, 4)

    @abstractmethod
    def _f(self, sq: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Kernel profile as a function of the squared distance, into ``out`` if given
        (which may be ``sq`` itself)."""

    @abstractmethod
    def _f1(self, value: np.ndarray) -> np.ndarray:
        """First derivative of the profile, given the profile value ``_f(sq)``."""

    @abstractmethod
    def _f2(self, value: np.ndarray) -> np.ndarray:
        """Second derivative of the profile, given the profile value ``_f(sq)``."""

    def __call__(self, y: np.ndarray, y2: np.ndarray) -> float:
        """Kernel value at one pair of points: a one-row view of :meth:`gram`."""
        return float(self.gram(y, y2)[0, 0])

    def gram(self, points: np.ndarray, points2: Optional[np.ndarray] = None) -> np.ndarray:
        sq = squared_distance_rows(points, points2)()
        return self._f(sq, out=sq)

    def mean_gram_tiles(self, points: np.ndarray, m: int, points2: np.ndarray, m2: int):
        """The matrix [i, j] = mean over k < m, l < m2 of l(points[i m + k], points2[j m2 + l])
        in tiles on demand (:func:`_tile_source`, rows and columns being groups of m and m2
        points). Each tile holds the bytes of the whole (n1 m, n2 m2) Gram averaged over
        its m x m2 blocks: the Gram comes from one :func:`squared_distance_rows` of the
        whole stacks and is formed a tile (``height`` m, ``depth`` m2) at a time, each tile
        averaged as soon as it is formed.
        """
        rows_of = squared_distance_rows(points, points2)

        def form(i0, i1, j0, j1):
            block = rows_of(i0 * m, i1 * m, j0 * m2, j1 * m2)
            self._f(block, out=block)
            return block.reshape(-1, m, j1 - j0, m2).mean(axis=(1, 3))
        return _tile_source(len(points) // m, len(points2) // m2, m, m2, form)


class GaussianKernel(ScalarKernel):
    """l(y, y') = exp(-||y - y'||^2 / (2 gamma^2))."""

    name = "gaussian"

    def _f(self, sq, out=None):
        out = np.divide(sq, -2.0 * self.bandwidth ** 2, out=out)
        return np.exp(out, out=out)

    def _f1(self, value):
        # x / -c is -x / c, without a temporary for -x
        return np.divide(value, -2.0 * self.bandwidth ** 2)

    def _f2(self, value):
        return value / (4.0 * self.bandwidth ** 4)


class IMQKernel(ScalarKernel):
    """l(y, y') = (1 + ||y - y'||^2 / gamma^2)^(-1)."""

    name = "imq"

    def _f(self, sq, out=None):
        out = np.divide(sq, self.bandwidth ** 2, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def _f1(self, value):
        return -value ** 2 / self.bandwidth ** 2

    def _f2(self, value):
        return 2.0 * value ** 3 / self.bandwidth ** 4


def scalar_kernel(family: str, bandwidth: float) -> ScalarKernel:
    if family == "gaussian":
        return GaussianKernel(bandwidth)
    if family == "imq":
        return IMQKernel(bandwidth)
    raise UnsupportedKernelError(f"unknown scalar kernel family {family!r}")


def _point_stacks(points, points2) -> tuple[np.ndarray, np.ndarray]:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    points2 = np.atleast_2d(np.asarray(points2, dtype=float))
    if points.shape[1] != points2.shape[1]:
        raise ValueError("point stacks have mismatched dimensions")
    return points, points2


def squared_distance_rows(points: np.ndarray, points2: Optional[np.ndarray] = None):
    """Matrix [i, j] = ||points[i] - points2[j]||^2 on demand, formed from products
    only: a function ``rows(start, stop, first, last)`` that returns the block of rows
    [start, stop) and columns [first, last), all rows and columns by default.

    In one dimension it is the squared outer difference, which is exact.
    Otherwise it is ||a||^2 + ||b||^2 - 2 <a, b> with both stacks centred at
    the mean of ``points``, which keeps the cancellation small, and clamped at
    0. Without ``points2`` (or with ``points2 is points``) the diagonal entries
    inside the block are exact zeros.

    The centre (the mean of all of ``points``), the squared norms and the operand
    that takes the -2 are fixed from the whole stacks, so every block holds the
    same arithmetic as the same entries of the whole matrix.
    """
    same = points2 is None or points2 is points
    points, points2 = _point_stacks(points, points if same else points2)
    if points.shape[1] == 1:
        return lambda start=0, stop=None, first=0, last=None: squared_differences(
            points[start:stop], points2[first:last])
    center = points.mean(axis=0)
    a = points - center
    b = a if same else points2 - center
    norms_a = np.einsum("ia,ia->i", a, a)
    norms_b = np.einsum("ja,ja->j", b, b)
    # the -2 goes into the smaller operand of the whole product
    left, right = (-2.0 * a, b) if len(a) <= len(b) else (a, -2.0 * b)

    def product_rows(start=0, stop=None, first=0, last=None):
        out = left[start:stop] @ right[first:last].T
        out += norms_a[start:stop, None]
        out += norms_b[None, first:last]
        np.maximum(out, 0.0, out=out)
        if same:
            # the part of the diagonal that falls inside the block
            shift = start - first
            np.fill_diagonal(out[:, shift:] if shift >= 0 else out[-shift:, :], 0.0)
        return out
    return product_rows


def squared_differences(points: np.ndarray, points2: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix [i, j] = sum_k (points[i, k] - points2[j, k])^2 by explicit differences,
    written into ``out`` if given, with no (n1, n2, d) tensor.

    The (n1, n2) squares are added coordinate by coordinate, in order, each formed in
    one spare array. Below 8 coordinates numpy sums a contiguous last axis in that
    order too, so every entry holds the bytes of
    ``np.sum((points[:, None] - points2[None]) ** 2, axis=-1)``; from 8 on numpy sums
    in interleaved partial sums, and the last bits can differ.
    """
    out = np.subtract.outer(points[:, 0], points2[:, 0], out=out)
    np.square(out, out=out)
    spare = np.empty_like(out) if points.shape[1] > 1 else None
    for k in range(1, points.shape[1]):
        np.subtract.outer(points[:, k], points2[:, k], out=spare)
        out += np.square(spare, out=spare)
    return out


def row_blocks(n1: int, n2: int, multiple: int = 1) -> list[tuple[int, int]]:
    """Row ranges [start, stop) that cut an (n1, n2) matrix into blocks of about
    ``_ROW_BLOCK_ELEMENTS`` floats.

    Every block starts at a multiple of ``multiple`` and of ``_ROW_TILE`` rows,
    and a tail shorter than half a block joins the block before it. BLAS tiles
    the rows of a product in groups that divide ``_ROW_TILE``, and it sends a
    single row, or a product of few entries, through other routines: blocks cut
    this way are formed by the same kernels, in the same order, as the same rows
    of the whole product. That holds with one BLAS thread. With several, BLAS
    splits a product between its threads by the product's shape, so the last
    bits of a whole product and of its blocks can differ.
    """
    step = math.lcm(_ROW_TILE, multiple)
    rows = step * max(1, _ROW_BLOCK_ELEMENTS // max(1, n2 * step))
    stops = list(range(rows, n1, rows)) + [n1]
    if len(stops) > 1 and n1 - stops[-2] < rows // 2:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


def tiles(start: int, stop: int, first: int, last: int, height: int = 1, depth: int = 1,
          upper: bool = False, lower: bool = False):
    """Tiles (i0, i1, j0, j1) of the rows [start, stop) and columns [first, last) of a
    matrix whose rows stand for ``height`` rows each of the product that forms them, and
    whose entries take ``depth`` floats each while they are formed.

    The rows are cut by ``row_blocks((stop - start) height, (last - first) depth,
    multiple=height)``, and each row block's columns into ranges of a multiple of
    ``_ROW_TILE`` columns, so that a tile takes at most about ``_ROW_BLOCK_ELEMENTS``
    floats. With ``upper`` a row block's columns start at its first row (or at ``first``
    if that is later), so only the entries [i, j] with j >= i are sure to be covered;
    with ``lower`` they stop at its last row, so only the entries with j <= i are.
    """
    for lo, hi in row_blocks((stop - start) * height, (last - first) * depth, multiple=height):
        i0, i1 = start + lo // height, start + hi // height
        j0 = max(i0, first) if upper else first
        j1 = min(i1, last) if lower else last
        width = _ROW_TILE * max(1, _ROW_BLOCK_ELEMENTS // ((hi - lo) * depth * _ROW_TILE))
        for column in range(j0, j1, width):
            yield i0, i1, column, min(column + width, j1)


def _tile_source(n1: int, n2: int, height: int, depth: int, form):
    """An (n1, n2) matrix in tiles on demand: a generator function ``source(start=0,
    stop=None, first=0, last=None, upper=False, lower=False)`` over its block of rows
    [start, stop) and columns [first, last), all of them by default. For each tile of
    :func:`tiles` (``height``, ``depth``, ``upper`` and ``lower`` passed on) it yields
    ``(rows, columns, form(i0, i1, j0, j1))``: the slices of the block that the tile
    covers and its entries, formed as it is reached."""
    def source(start=0, stop=None, first=0, last=None, upper=False, lower=False):
        stop = n1 if stop is None else stop
        last = n2 if last is None else last
        for i0, i1, j0, j1 in tiles(start, stop, first, last, height, depth, upper, lower):
            yield (slice(i0 - start, i1 - start), slice(j0 - first, j1 - first),
                   form(i0, i1, j0, j1))
    return source


def _filled(source, start: int, stop: int, first: int, last: int,
            out: np.ndarray) -> np.ndarray:
    """The block [start, stop) x [first, last) of a tile source, assembled into ``out``;
    ``out`` is returned."""
    for rows, columns, tile in source(start, stop, first, last):
        out[rows, columns] = tile
    return out


def mirror_upper(x: np.ndarray) -> np.ndarray:
    """The strict upper triangle of the square matrix x written over its strict lower
    one, one square tile at a time, so that the transposed reads stay within a tile;
    x is returned."""
    n = len(x)
    for start in range(0, n, _MIRROR_TILE):
        stop = min(start + _MIRROR_TILE, n)
        for left in range(0, start, _MIRROR_TILE):
            x[start:stop, left:left + _MIRROR_TILE] = x[left:left + _MIRROR_TILE, start:stop].T
        tile = x[start:stop, start:stop]
        lower = np.tri(stop - start, k=-1, dtype=bool)
        tile[lower] = tile.T[lower]
    return x


def mirrored_rows(n: int, fill) -> np.ndarray:
    """The exactly symmetric (n, n) matrix with a zero diagonal whose row blocks above
    the diagonal ``fill(start, stop, out)`` writes into ``out``: the rows [start, stop)
    and columns [start, n) for each block of ``row_blocks(n, n)``, then mirrored
    (:func:`mirror_upper`)."""
    out = np.empty((n, n))
    for start, stop in row_blocks(n, n):
        fill(start, stop, out[start:stop, start:])
    mirror_upper(out)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# Closed-form Gaussian expectations of the Gaussian kernel
# ---------------------------------------------------------------------------

def _single_expectation(means, variances, points, g2) -> np.ndarray:
    """[i, j] = E l(z, points[j]) for z ~ N(means[i], variances[i]) and Gaussian l of
    squared bandwidth g2: exp of -sum_a (mu_ia - y_ja)^2 / (2 (g^2 + v_ia)) - sum_a
    log(1 + v_ia / g^2) / 2, through one (rows, columns, d) temporary."""
    quad = means[:, None, :] - points[None, :, :]
    np.square(quad, out=quad)
    quad /= (2.0 * (g2 + variances))[:, None, :]
    total = np.sum(quad, axis=-1)
    del quad
    # -a - b is -(a + b) exactly
    total += np.sum(0.5 * np.log1p(variances / g2), axis=-1)[:, None]
    np.negative(total, out=total)
    return np.exp(total, out=total)


def _double_expectation(means, variances, means2, variances2, g2) -> np.ndarray:
    """E l(z, z') for z ~ N(means, variances), z' ~ N(means2, variances2) and Gaussian l
    of squared bandwidth g2, broadcast over the leading axes; the last is summed.

    That is exp of -sum (mu - mu')^2 / (2 D) - sum log(D / g^2) / 2 with
    D = (g^2 + v) + v', through two broadcast temporaries: 2 D is formed as
    (2 g^2 + 2 v) + 2 v', and D / g^2 as 2 D / (2 g^2). Doubling is exact, so both
    round as the direct forms do.
    """
    twice_denom = (2.0 * g2 + 2.0 * variances) + 2.0 * variances2
    quad = np.subtract(means, means2)
    np.square(quad, out=quad)
    quad /= twice_denom
    logs = np.divide(twice_denom, 2.0 * g2, out=twice_denom)
    np.log(logs, out=logs)
    logs *= 0.5
    quad += logs
    del logs, twice_denom
    total = np.sum(quad, axis=-1)
    return np.exp(np.negative(total, out=total), out=total)


def expectation_tiles(means, variances, gamma, means2, variances2=None):
    """Closed-form expectations of the Gaussian kernel of a positive, finite bandwidth
    ``gamma`` under the diagonal Gaussian models (means, variances), in tiles on demand
    (:func:`_tile_source`, ``depth`` d) as :meth:`ScalarKernel.mean_gram_tiles` gives
    sample means: [i, j] is E l(z, means2[j]) for z ~ model i, or with ``variances2``
    E l(z, z') for z' ~ N(means2[j], variances2[j]) too. Every entry holds the same bytes
    whichever tile it falls in.
    """
    if not 0.0 < gamma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"gamma must be > 0 and finite, got {gamma}")
    means, variances, means2 = (np.asarray(a, float) for a in (means, variances, means2))
    variances2 = None if variances2 is None else np.asarray(variances2, float)
    if variances2 is not None and variances2.shape != means2.shape:
        raise ValueError(f"variances2 {variances2.shape} must match means2 {means2.shape}")
    g2 = gamma ** 2

    def form(i0, i1, j0, j1):
        if variances2 is None:
            return _single_expectation(means[i0:i1], variances[i0:i1], means2[j0:j1], g2)
        return _double_expectation(means[i0:i1, None, :], variances[i0:i1, None, :],
                                   means2[j0:j1], variances2[j0:j1], g2)
    return _tile_source(len(means), len(means2), 1, means2.shape[1], form)


# ---------------------------------------------------------------------------
# Distribution kernels
# ---------------------------------------------------------------------------

def _bit_pattern(value) -> int:
    """The IEEE-754 bits of a float >= 0 as an integer: such floats order like their bit
    patterns. Adding 0.0 maps -0.0, whose sign bit is set, to +0.0."""
    return int(np.float64(value + 0.0).view(np.int64))


def _from_bit_pattern(bits: int) -> float:
    """The float whose IEEE-754 bits are ``bits``: the inverse of :func:`_bit_pattern`."""
    return float(np.int64(bits).view(np.float64))


def _bracket_pass(parts, lo: float, hi: float, gathered: np.ndarray):
    """One pass over flat arrays of squared distances for finite 0 <= lo <= hi:
    ``(below, inside, peak, counts, shift)``, the numbers of entries below lo and in
    [lo, hi] and the maximum (NaN if an entry is NaN). The entries in [lo, hi] are
    gathered into the front of ``gathered`` while they fit, and ``counts`` is None;
    past that they are counted instead, in 2^16 buckets of their bit patterns, entry x
    in bucket (bits(x) - bits(lo)) >> shift."""
    below = inside = shift = 0
    peak, counts = 0.0, None

    def buckets(values):
        bits = (values + 0.0).view(np.int64)
        return np.bincount((bits - base) >> shift, minlength=1 << 16)
    for x in parts:
        less = x < lo
        within = x <= hi
        within ^= less  # lo <= x <= hi: x < lo implies x <= hi, and NaN is in neither
        below += np.count_nonzero(less)
        chosen = x[within]
        top = x.max()  # NaN if x holds one
        if top > peak or top != top:  # a NaN peak stays
            peak = top
        if counts is None and inside + chosen.size <= gathered.size:
            gathered[inside:inside + chosen.size] = chosen
        else:
            if counts is None:  # the first part past the room: count what it gathered
                base = _bit_pattern(lo)
                shift = max(0, (_bit_pattern(hi) - base).bit_length() - 16)
                counts = buckets(gathered[:inside])
            counts += buckets(chosen)
        inside += chosen.size
    return below, inside, peak, counts, shift


class DistanceBlocks:
    """The squared distances of one model batch above the diagonal, formed on demand
    from a distribution kernel's tile function, one row block at a time.

    ``tile(i0, i1, j0, j1, out=None)`` forms the (i1 - i0, j1 - j0) block of rows
    [i0, i1) and columns [j0, j1), for i0 <= j0, into ``out`` if given, from per-model
    arrays fixed when the kernel made it. Entries on and below the diagonal of a tile
    are unspecified. Every reader forms a row block [start, stop) (blocks from
    :func:`row_blocks`) by the same two calls, its diagonal tile and the rectangle to
    the right of it, so the median ``sigma``, the dense matrix and the streamed test
    all read the same bytes.
    """

    def __init__(self, n: int, tile):
        self.n = n
        self._tile = tile
        self._whole = None  # the one block of a one-block matrix, kept by median_sigma

    def block(self, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows [start, stop) and columns [start, n), into ``out`` if given; entries on
        and below the diagonal unspecified."""
        rows, n = stop - start, self.n
        whole, self._whole = self._whole, None
        if whole is not None:  # the one block (0, n), kept by median_sigma
            if out is None:
                return whole
            out[...] = whole
            return out
        out = np.empty((rows, n - start)) if out is None else out
        self._tile(start, stop, start, stop, out=out[:, :rows])
        if stop < n:
            self._tile(start, stop, stop, n, out=out[:, rows:])
        return out

    def median_sigma(self) -> float:
        """The lower median of the pairwise distances, selected exactly over tiles formed
        on demand: the one median selection of the package, for ``sigma`` and for
        :func:`median_heuristic`. A non-finite distance raises
        :class:`~steincal.models.NumericalError`, a zero median
        :class:`DegenerateBandwidthError`. A one-block matrix keeps its block for the
        next :meth:`block` call.

        The diagonal tiles are formed first, into one reused buffer, and the strict upper
        triangles of all of them kept as a sample. Its quantiles 4 standard errors (with
        the finite-population correction, so a sample of every pair gives the exact
        entry) either side of the median's share bracket it: [lo, hi]. A pass over the
        sample and the rectangles right of the diagonal tiles, formed into the same
        buffer, counts the entries below lo, gathers those in [lo, hi] and takes the
        maximum; a partition of the gathered entries then selects the median. At most
        twice the bracket's expected share of the pairs are gathered: past that a pass
        counts the entries in [lo, hi] in 2^16 buckets of their bit patterns instead
        (non-negative floats order like their bit patterns), and the next pass takes
        the bucket that holds the median. When the median lies outside [lo, hi], the
        next pass takes the side that holds it. So after the first pass each pass
        selects or cuts the range's span of bit patterns (under 2^63) by 2^16: six
        passes at most. Each pass forms the rectangles again; the sample is formed once.
        """
        n, blocks = self.n, row_blocks(self.n, self.n)
        pairs = n * (n - 1) // 2
        rank = (pairs - 1) // 2
        buffer = np.empty(max((stop - start) * (n - start) for start, stop in blocks))
        sample = np.empty(sum((stop - start) * (stop - start - 1) // 2 for start, stop in blocks))
        filled = 0
        for start, stop in blocks:
            rows = stop - start
            diagonal = self._tile(start, stop, start, stop,
                                  out=buffer[:rows * rows].reshape(rows, rows))
            # boolean indexing: np.compress is several times slower
            upper = diagonal.ravel()[~np.tri(rows, dtype=bool).ravel()]
            sample[filled:filled + upper.size] = upper
            filled += upper.size
        if len(blocks) == 1:
            self._whole = diagonal

        def parts():
            yield sample
            for start, stop in blocks[:-1]:  # the last block ends at column n
                rows = stop - start
                right = buffer[:rows * (n - stop)].reshape(rows, n - stop)
                yield self._tile(start, stop, stop, n, out=right).ravel()

        size = sample.size
        share = rank / pairs
        spread = 4.0 * math.sqrt(size * share * (1.0 - share) * (pairs - size)
                                 / max(pairs - 1, 1))
        centre = rank * size / pairs
        low = max(0, math.floor(centre - spread))
        high = min(size - 1, math.ceil(centre + spread))
        # one kth at a time (numpy is slower with two); the passes only count the sample
        sample.partition(high)
        if low < high:
            sample[:high].partition(low)
        lo, hi = float(sample[low]), float(sample[high])
        # NaN sorts last: a finite hi leaves lo <= hi finite, and the pass checks the rest
        require_finite(hi, "squared distance")
        gathered = np.empty(2 * math.ceil((high - low + 1) * pairs / size))
        while True:
            below, inside, peak, counts, shift = _bracket_pass(parts(), lo, hi, gathered)
            require_finite(peak, "squared distance")
            at = rank - below
            if at < 0:
                lo, hi = 0.0, float(np.nextafter(lo, -math.inf))
            elif at >= inside:
                lo, hi = float(np.nextafter(hi, math.inf)), float(peak)
            elif lo == hi:
                median = lo
                break
            elif counts is None:
                candidates = gathered[:inside]
                candidates.partition(at)
                median = float(candidates[at])
                break
            else:
                bucket = int(np.searchsorted(np.cumsum(counts), at, side="right"))
                first = _bit_pattern(lo) + (bucket << shift)
                lo, hi = (_from_bit_pattern(first),
                          _from_bit_pattern(min(_bit_pattern(hi), first + (1 << shift) - 1)))
        if median <= 0.0:
            raise DegenerateBandwidthError("median pairwise distance is zero")
        # sqrt is monotone: the lower median of the distances themselves
        return math.sqrt(median)

    def dense(self) -> np.ndarray:
        """The whole exactly symmetric matrix with a zero diagonal: the row blocks above
        the diagonal, mirrored (:func:`mirrored_rows`)."""
        return mirrored_rows(self.n, self.block)


def distance_weights(sq: np.ndarray, sigma: float) -> np.ndarray:
    """The distribution kernel's weights exp(-sq / (2 sigma^2)) of finite squared
    distances ``sq``, formed in place; ``sq`` is returned."""
    require_finite(sq, "squared distance")
    np.divide(sq, -2.0 * sigma ** 2, out=sq)
    return np.exp(sq, out=sq)


class DistributionKernel(ABC):
    """Exponentiated Hilbertian metric on densities: exp(-d^2 / (2 sigma^2)).

    ``sigma`` may be None, in which case each Gram matrix, or test, picks it by the
    median heuristic on the pairwise Hilbertian distances it estimated.
    """

    name: str

    def __init__(self, sigma: Optional[float]):
        if sigma is not None and sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.sigma = sigma

    def distance_blocks(self, models: ModelBatch,
                        stream: Optional[RandomStream] = None) -> DistanceBlocks:
        """The estimated squared Hilbertian distances, formed on demand by row blocks."""
        return DistanceBlocks(len(models), self._tiles(models, stream))

    @abstractmethod
    def _tiles(self, models: ModelBatch, stream: Optional[RandomStream]):
        """The tile function of :class:`DistanceBlocks` on a model batch. It draws what
        it needs from ``stream`` once and fixes every per-model array it reads."""

    def bandwidth(self, distances: DistanceBlocks) -> float:
        """``sigma``, or the median heuristic on the distances when it is None; either
        way ``sigma^2``, which the weights divide by, must be a normal float."""
        sigma = self.sigma if self.sigma is not None else distances.median_sigma()
        _require_normal_power("sigma", sigma, 2)
        return sigma

    def gram(self, models: ModelBatch, stream: Optional[RandomStream] = None) -> np.ndarray:
        if len(models) == 1:
            return np.ones((1, 1))
        distances = self.distance_blocks(models, stream)
        sigma = self.bandwidth(distances)
        gram = distance_weights(distances.dense(), sigma)
        np.fill_diagonal(gram, 1.0)
        return gram


def _equal_row_labels(rows: np.ndarray) -> Optional[np.ndarray]:
    """Labels that are equal exactly for byte-equal rows of a 2-d array (+0.0 and -0.0
    taken as equal), or None when no two rows are equal."""
    lead = np.sort(rows[:, 0])
    if not np.any(lead[1:] == lead[:-1]):  # equal rows need equal first entries
        return None
    keyed = np.ascontiguousarray(rows + 0.0)
    keys = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1]))).ravel()
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return None if len(first) == len(rows) else labels.ravel()


def _tiles_from_inner(inner, diag: np.ndarray, scale: float = 1.0,
                      labels: Optional[np.ndarray] = None):
    """Tiles of max(<a_i, a_i> + <a_j, a_j> - 2 <a_i, a_j>, 0) / scale from a tile function
    of the inner products and their diagonal.

    The norms are added in place to -2 times the inner products, so a tile needs no
    memory beyond its own. An inner product and a norm may round apart; models
    with equal ``labels`` (byte-equal models) are set exactly 0 apart.
    """
    def tile(i0, i1, j0, j1, out=None):
        out = inner(i0, i1, j0, j1, out)
        out *= -2.0
        out += diag[i0:i1, None]
        out += diag[None, j0:j1]
        np.maximum(out, 0.0, out=out)
        if scale != 1.0:
            out /= scale
        if labels is not None:
            out[labels[i0:i1, None] == labels[None, j0:j1]] = 0.0
        return out
    return tile


def _product_tiles(left: np.ndarray, right: np.ndarray):
    """Tile function of the inner products <left_i, right_j>: one plain matrix product
    per tile. A diagonal tile of one array with itself takes a copy of its right
    operand, so numpy never runs it as a symmetric rank-k update."""
    def inner(i0, i1, j0, j1, out=None):
        other = right[j0:j1].T
        if left is right and i0 == j0:
            other = other.copy()
        return np.matmul(left[i0:i1], other, out=out)
    return inner


class ExpGFDKernel(DistributionKernel):
    """exp(-GFD/(2 sigma^2)) with the score divergence estimated on base samples.

    ``base_samples`` says how they are had, as ``np.histogram``'s ``bins`` does: a count
    m >= 1 draws m standard-normal points in the models' dimension for each Gram matrix
    or test, as one ``stream.generator().standard_normal((m, dim))`` call; an (m, d)
    array with m >= 1 is a frozen base, kept as a read-only copy, for models on R^d.
    """

    name = "exp_gfd"

    def __init__(self, sigma: Optional[float], base_samples: Union[int, np.ndarray] = 10):
        super().__init__(sigma)
        if np.ndim(base_samples) == 0:
            if not (isinstance(base_samples, (int, np.integer)) and base_samples >= 1):
                raise ValueError("base_samples must be a count >= 1 or an (m, d) array, "
                                 f"got {base_samples!r}")
        else:
            base_samples = np.array(base_samples, dtype=float)
            if base_samples.ndim != 2 or base_samples.size == 0:
                raise ValueError("frozen base samples must be a non-empty (m, d) array, "
                                 f"got shape {base_samples.shape}")
            base_samples.flags.writeable = False
        self.base_samples = base_samples

    def _smoothed(self, scores: np.ndarray, features: np.ndarray, z: np.ndarray):
        """The left operand of the inner products and the divergence's scale: the very
        ``features`` object (so :func:`_product_tiles` copies a diagonal tile's), and m."""
        return features, len(z)

    def _tiles(self, models, stream):
        z = self.base_samples
        if isinstance(z, np.ndarray):
            if z.shape[1] != models.dim:
                raise ValueError(f"frozen base samples have dimension {z.shape[1]}, "
                                 f"the models dimension {models.dim}")
        elif stream is None:
            raise ValueError("drawing base samples needs a random stream")
        else:
            z = stream.generator().standard_normal((z, models.dim))
        scores = models.score_tensor(z)
        n, m, d = scores.shape
        features = scores.reshape(n, m * d)
        smoothed, scale = self._smoothed(scores, features, z)
        return _tiles_from_inner(_product_tiles(smoothed, features),
                                 np.einsum("ia,ia->i", smoothed, features), scale,
                                 _equal_row_labels(features))


class ExpKGFDKernel(ExpGFDKernel):
    """exp(-KGFD/(2 sigma^2)); score differences smoothed by a ground kernel."""

    name = "exp_kgfd"

    def __init__(self, sigma: Optional[float], ground: ScalarKernel,
                 base_samples: Union[int, np.ndarray] = 10):
        super().__init__(sigma, base_samples)
        self.ground = ground

    def _smoothed(self, scores, features, z):
        """The scores smoothed over the base samples by the ground Gram, and m^2."""
        smoothed = np.einsum("ikd,kl->ild", scores, self.ground.gram(z))
        return smoothed.reshape(features.shape), len(z) ** 2


class ExpMMDKernel(DistributionKernel):
    """exp(-MMD^2/(2 sigma^2)) with a Gaussian ground kernel.

    With ``samples`` None the MMD is in closed form, which needs diagonal-Gaussian
    inputs; a count m >= 1 draws m points per density once per Gram matrix, as one
    (n, m, d) block from ``stream.derive("mmd-samples")``, and uses the V-statistic
    between the empirical measures, which keeps the matrix PSD.
    """

    name = "exp_mmd"

    def __init__(self, sigma: Optional[float], ground: ScalarKernel,
                 samples: Optional[int] = None):
        super().__init__(sigma)
        if samples is not None and not (isinstance(samples, (int, np.integer)) and samples >= 1):
            raise ValueError(f"samples must be None or a count >= 1, got {samples!r}")
        self.ground = ground
        self.samples = samples

    def _tiles(self, models, stream):
        n, labels = len(models), None
        if self.samples is None:
            if not isinstance(self.ground, GaussianKernel):
                raise UnsupportedKernelError("closed-form MMD needs a Gaussian ground kernel")
            if not isinstance(models, GaussianBatch):
                raise UnsupportedKernelError("closed-form MMD needs diagonal Gaussian models")
            means, variances = models.means, models.variances
            source = expectation_tiles(means, variances, self.ground.bandwidth, means, variances)
            labels = _equal_row_labels(np.hstack([means, variances]))
        else:
            if stream is None:
                raise ValueError("sampled MMD needs a random stream")
            m = self.samples
            draws = models.sample(m, stream.derive("mmd-samples")).reshape(n * m, models.dim)
            source = self.ground.mean_gram_tiles(draws, m, draws, m)
        # each model's inner product with itself: the square tiles of _ROW_TILE-model runs
        diag = np.empty(n)
        for start in range(0, n, _ROW_TILE):
            stop = min(start + _ROW_TILE, n)
            for rows, _, tile in source(start, stop, start, stop, upper=True, lower=True):
                diag[start + rows.start:start + rows.stop] = np.diagonal(tile)
        return _tiles_from_inner(functools.partial(_filled, source), diag, labels=labels)


class ExpWassersteinKernel(DistributionKernel):
    """Closed-form exponentiated Wasserstein kernel for isotropic Gaussians.

    Uses the squared 2-Wasserstein distance ||mu - mu'||^2 + d (s - s')^2
    between N(mu, s^2 I) and N(mu', s'^2 I).
    """

    name = "exp_wasserstein"

    def _tiles(self, models, stream):
        if not isinstance(models, GaussianBatch):
            raise UnsupportedKernelError("the Wasserstein kernel needs diagonal Gaussian models")
        means, variances = models.means, models.variances
        if not np.all(variances == variances[:, :1]):
            raise UnsupportedKernelError("the Wasserstein kernel needs isotropic models")
        d = means.shape[1]
        sd = np.sqrt(variances[:, 0])

        def tile(i0, i1, j0, j1, out=None):
            out = squared_differences(means[i0:i1], means[j0:j1], out)
            scale = np.subtract.outer(sd[i0:i1], sd[j0:j1])
            np.square(scale, out=scale)
            scale *= d
            out += scale
            return out
        return tile


# ---------------------------------------------------------------------------
# Bandwidth heuristics
# ---------------------------------------------------------------------------

def _lower_median(values: np.ndarray) -> float:
    """Element (N - 1) // 2 of the sorted values of a flat float array, found by
    selection. The array is partitioned in place: callers pass arrays of their own."""
    if values.size == 0:
        raise ValueError("cannot take the median of an empty set")
    k = (values.size - 1) // 2
    values.partition(k)
    return float(values[k])


def median_heuristic(points: np.ndarray) -> float:
    """Lower median of the pairwise Euclidean distances of a point set.

    Accepts an (n, d) stack of vectors or a flat length-n array of scalars. The
    squared distances of the pairs i < j are formed by :func:`squared_differences`
    and selected as the distribution kernels' are, by
    :meth:`DistanceBlocks.median_sigma`: a non-finite distance raises
    :class:`~steincal.models.NumericalError`.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")

    def tile(i0, i1, j0, j1, out=None):
        return squared_differences(points[i0:i1], points[j0:j1], out)
    return DistanceBlocks(len(points), tile).median_sigma()


def second_order_median_heuristic(models: ModelBatch, samples_per_pair: int = 10,
                                  stream: Optional[RandomStream] = None,
                                  pair_budget: Optional[int] = None) -> float:
    """Median over model pairs of the median sample distance in their mixture.

    For every unordered model pair, draws ``samples_per_pair`` points from the
    equal-weight two-component mixture, takes the lower median of their
    pairwise distances, and returns the lower median over all pairs. The
    models must be a :class:`~steincal.models.GaussianBatch`.

    With a ``pair_budget`` P (the sampled heuristic passes :data:`SAMPLED_PAIRS`)
    and more than P pairs, P pairs are drawn uniformly, with replacement, as one
    ``integers(0, n(n - 1)/2, P)`` call before any chunk draw, then sorted, and the
    median is over them alone. With at most P pairs every pair is taken, and the
    value is the exact heuristic's.

    Pairs are drawn in chunks of ``_PAIR_CHUNK``: all of a chunk's (count, s)
    uniforms, then its (count, s, d) normals. The normals are drawn, and the
    distances formed and sorted, ``_PAIR_SUB_CHUNK`` pairs at a time in buffers made
    once per call, so besides the per-pair medians (n(n - 1)/2 of them, or at most
    P) the working set does not grow with n. A non-finite sample distance raises
    :class:`~steincal.models.NumericalError`.
    """
    if len(models) < 2:
        raise ValueError("second-order heuristic needs at least two models")
    if samples_per_pair < 2:
        raise ValueError("samples_per_pair must be >= 2")
    if pair_budget is not None and pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if stream is None:
        raise ValueError("second-order heuristic needs a random stream")
    if not isinstance(models, GaussianBatch):
        raise CapabilityError("the second-order heuristic needs diagonal Gaussian models")
    means, sd = models.means, np.sqrt(models.variances)
    n, d = means.shape
    total = n * (n - 1) // 2
    row_start = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # flat offset of pair (i, i + 1)
    rng = stream.generator()
    chosen = None  # flat indices of the pairs taken, when not all of them
    if pair_budget is not None and total > pair_budget:
        chosen = np.sort(rng.integers(0, total, pair_budget))
        total = pair_budget
    s = samples_per_pair
    lags = s * (s - 1) // 2
    med_col = (lags - 1) // 2

    # one buffer per stage; a sub-chunk of m pairs uses the front of each
    sub = min(_PAIR_SUB_CHUNK, total)
    uniforms = np.empty((min(_PAIR_CHUNK, total), s))
    normals, gathered, points = (np.empty(sub * s * d) for _ in range(3))
    picks = np.empty(s * sub, dtype=bool)
    comp = np.empty(s * sub, dtype=np.intp)
    diff = np.empty(lags * sub * d)
    summed = np.empty(lags * sub) if d > 1 else None
    rows = np.empty(sub * lags)
    per_pair = np.empty(total)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the sorted rows
        for start in range(0, total, _PAIR_CHUNK):
            count = min(_PAIR_CHUNK, total - start)
            rng.random(out=uniforms[:count])
            for lo in range(start, start + count, sub):
                m = min(sub, start + count - lo)
                flat = np.arange(lo, lo + m) if chosen is None else chosen[lo:lo + m]
                ii = np.searchsorted(row_start, flat, side="right") - 1
                jj = flat - row_start[ii] + ii + 1
                xi = normals[:m * s * d].reshape(m, s, d)
                rng.standard_normal(out=xi)
                # sample-major points: c[a, r] is the component of sample a of pair r
                pick = picks[:s * m].reshape(s, m)
                np.less(uniforms[lo - start:lo - start + m].T, 0.5, out=pick)
                c = comp[:s * m].reshape(s, m)
                np.multiply(pick, ii - jj, out=c)
                c += jj
                g = gathered[:s * m * d].reshape(s, m, d)
                pts = points[:s * m * d].reshape(s, m, d)
                # mode="clip" writes straight into out; the indices are in range
                np.take(sd, c, axis=0, out=g, mode="clip")
                np.multiply(g, xi.transpose(1, 0, 2), out=pts)
                np.take(means, c, axis=0, out=g, mode="clip")
                pts += g
                pts = pts.reshape(s, m * d)
                # samples a and a + k differ by one slice per lag k; the median ignores
                # pair order
                sq = diff[:lags * m * d].reshape(lags, m * d)
                for k in range(1, s):
                    row = (k - 1) * (2 * s - k) // 2
                    np.subtract(pts[k:], pts[:-k], out=sq[row:row + s - k])
                np.square(sq, out=sq)
                if d > 1:
                    sq = np.add.reduce(sq.reshape(lags, m, d), axis=-1,
                                       out=summed[:lags * m].reshape(lags, m))
                pair_rows = rows[:m * lags].reshape(m, lags)
                np.copyto(pair_rows, sq.T)
                pair_rows.sort(axis=1)
                # NaN sorts last, so the last column is finite exactly when the row is
                require_finite(pair_rows[:, -1], "second-order sample distance")
                per_pair[lo:lo + m] = pair_rows[:, med_col]

    # sqrt is monotone, so the median of squared distances is the squared median
    value = math.sqrt(_lower_median(per_pair))
    if value <= 0.0:
        raise DegenerateBandwidthError("second-order median distance is zero")
    return value

"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than the
library: central finite differences, plain Monte Carlo, explicit double
loops, and bisection. Keep these free of steincal internals beyond the plain
data types; a kernel enters as its profile functions.

The ``dense_*`` functions are the exception: they are the whole-matrix forms of
the library's row-blocked pairwise products, element for element the same
arithmetic, so the blocked forms must match them bit for bit.
"""
import numpy as np
from scipy import special


def fd_gradient(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = step
        grad[a] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


def fd_kernel_bundle(kernel_fn, y, y2, step=1e-5):
    """Value, both gradients, and mixed-derivative trace by finite differences."""
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    value = kernel_fn(y, y2)
    grad_y = fd_gradient(lambda t: kernel_fn(t, y2), y, step)
    grad_y2 = fd_gradient(lambda t: kernel_fn(y, t), y2, step)
    trace = 0.0
    for a in range(y.size):
        e = np.zeros_like(y)
        e[a] = step
        trace += (kernel_fn(y + e, y2 + e) - kernel_fn(y + e, y2 - e)
                  - kernel_fn(y - e, y2 + e) + kernel_fn(y - e, y2 - e)) / (4.0 * step ** 2)
    return value, grad_y, grad_y2, trace


def fd_h_term(kernel_fn, score_p, score_q, y, y2, step=1e-5):
    """Stein pairwise term built from finite-difference kernel derivatives."""
    value, grad_y, grad_y2, trace = fd_kernel_bundle(kernel_fn, y, y2, step)
    s1 = score_p(np.asarray(y, float))
    s2 = score_q(np.asarray(y2, float))
    return value * float(s1 @ s2) + trace + float(s1 @ grad_y2) + float(s2 @ grad_y)


def fd_stein_terms(kernel_fn, scores1, y, scores2, y2, step=1e-5):
    """Matrix [i, j] of Stein terms at one pair of points (y, y2) for score rows
    scores1[i] and scores2[j], from finite-difference kernel derivatives."""
    value, grad_y, grad_y2, trace = fd_kernel_bundle(kernel_fn, y, y2, step)
    return (value * (scores1 @ scores2.T) + trace + (scores1 @ grad_y2)[:, None]
            + (scores2 @ grad_y)[None, :])


def stein_terms_by_differences(f, f1, f2, scores1, points1, scores2, points2):
    """Stein terms [i, j] from the explicit (n1, n2, d) derivative bundle of
    l = f(||y - y'||^2); ``f1`` and ``f2`` map the value f to f' and f''."""
    d = points1.shape[1]
    diff = points1[:, None, :] - points2[None, :, :]
    sq = np.sum(diff ** 2, axis=-1)
    value = f(sq)
    d1, d2 = f1(value), f2(value)
    grad_y = 2.0 * d1[..., None] * diff  # grad_y' = -grad_y
    trace = -2.0 * d * d1 - 4.0 * sq * d2
    return (value * (scores1 @ scores2.T) + trace - np.einsum("ia,ija->ij", scores1, grad_y)
            + np.einsum("ja,ija->ij", scores2, grad_y))


def dense_squared_distances(points, points2=None):
    """Whole-matrix ||points[i] - points2[j]||^2: the outer difference at d = 1, else the
    centred product with the -2 in the smaller operand; zero diagonal without points2."""
    same = points2 is None
    points2 = points if same else points2
    if points.shape[1] == 1:
        return np.subtract.outer(points[:, 0], points2[:, 0]) ** 2
    center = points.mean(axis=0)
    a, b = points - center, points2 - center
    out = (-2.0 * a) @ b.T if len(a) <= len(b) else a @ (-2.0 * b).T
    out += np.einsum("ia,ia->i", a, a)[:, None]
    out += np.einsum("ja,ja->j", b, b)[None, :]
    np.maximum(out, 0.0, out=out)
    if same:
        np.fill_diagonal(out, 0.0)
    return out


def dense_stein_terms(f, f1, f2, scores1, targets1, scores2, targets2, same=False):
    """Whole-matrix Stein terms in the product form; ``same`` marks one stack against itself.
    The score product is a plain product even for one stack against itself: on a copy,
    numpy does not run it as a symmetric rank-k update."""
    n1, n2, d = len(targets1), len(targets2), targets1.shape[1]
    sq = dense_squared_distances(targets1, None if same else targets2)
    value = f(sq)
    h = scores1 @ scores2.copy().T
    h *= value
    h -= 4.0 * (f2(value) * sq)
    center = targets1.mean(axis=0)
    y1, y2 = targets1 - center, targets2 - center
    left = np.hstack([scores1, y1, -(np.einsum("ia,ia->i", scores1, y1) + d)[:, None],
                      np.ones((n1, 1))])
    right = np.hstack([y2, scores2, np.ones((n2, 1)),
                       -np.einsum("ja,ja->j", scores2, y2)[:, None]])
    h += ((2.0 * left) @ right.T) * f1(value)
    return h


def group_means(gram, m, m2):
    """[i, j] = mean of the m x m2 block (i, j) of a whole Gram: the m rows of each group
    added in order, then each group's m2 adjacent columns (numpy's pairwise sum along a
    contiguous axis), then the sums divided by m m2."""
    rows, columns = len(gram) // m, gram.shape[1] // m2
    sums = np.add.reduce(gram.reshape(rows, m, -1), axis=1)
    return np.add.reduce(sums.reshape(rows, columns, m2), axis=2) / (m * m2)


def dense_mean_gram(f, points, m, points2, m2):
    """[i, j] = mean over k < m, l < m2 of f(||points[i m + k] - points2[j m2 + l]||^2),
    averaged from the whole Gram (:func:`group_means`); ``points2`` None is ``points``
    against itself."""
    return group_means(f(dense_squared_distances(points, points2)), m, m2)


def dense_sampled_bracket(f, targets, batch_a, batch_b, batch_c, batch_d):
    """Whole-matrix sampled calibration-error bracket l - E l - E l + E E l from four
    (n, m, d) sample batches."""
    n, m, d = batch_a.shape
    term2 = dense_mean_gram(f, batch_a.reshape(n * m, d), m, targets, 1)
    term3 = dense_mean_gram(f, batch_b.reshape(n * m, d), m, targets, 1)
    term4 = dense_mean_gram(f, batch_c.reshape(n * m, d), m, batch_d.reshape(n * m, d), m)
    return f(dense_squared_distances(targets)) - term2 - term3.T + term4


def dense_closed_form_bracket(f, targets, means, variances, gamma):
    """Whole-matrix closed-form calibration-error bracket l - E l - E l + E E l of Gaussian
    models and a Gaussian l of bandwidth gamma, summed in that order."""
    single = dense_single_expectation(means, variances, targets, gamma)
    value = f(dense_squared_distances(targets)) - single
    value -= single.T
    return value + dense_double_expectation(means, variances, gamma)


def dense_distances_from_inner(inner, diag):
    """max((-2 inner_ij + d_i) + d_j, 0) for the whole matrix, d the given diagonal."""
    return np.maximum((-2.0 * inner + diag[:, None]) + diag[None, :], 0.0)


def dense_single_expectation(means, variances, points, gamma):
    """[i, j] = E l(z, points[j]) for z ~ N(means[i], variances[i]) and Gaussian l, through
    the whole (n1, n2, d) tensors."""
    g2 = gamma ** 2
    quad = (means[:, None, :] - points[None, :, :]) ** 2 / (2.0 * (g2 + variances)[:, None, :])
    logs = 0.5 * np.log1p(variances / g2)
    return np.exp(-np.sum(quad, axis=-1) - np.sum(logs, axis=-1)[:, None])


def dense_double_expectation(means, variances, gamma):
    """[i, j] = E l(z, z') for z ~ N(means[i], variances[i]), z' ~ N(means[j], variances[j])
    and Gaussian l, through the whole (n, n, d) tensors."""
    g2 = gamma ** 2
    denom = g2 + variances[:, None, :] + variances[None, :, :]
    quad = (means[:, None, :] - means[None, :, :]) ** 2 / (2.0 * denom)
    logs = 0.5 * np.log(denom / g2)
    return np.exp(-np.sum(quad + logs, axis=-1))


def dense_median_sigma(sq):
    """The median sigma selected on the whole matrix of squared distances: sorted, an
    exactly symmetric matrix with a zero diagonal starts with its n diagonal zeros and
    holds each of its N pairs twice, so entry n + N - 1 is the pairs' lower median."""
    n = len(sq)
    k = n + n * (n - 1) // 2 - 1
    return float(np.sqrt(np.partition(sq, k, axis=None)[k]))


def dense_wild_bootstrap(matrix, n_bootstrap, alpha, rng):
    """Statistic, (1 - alpha) quantile and p-value of the Rademacher wild bootstrap on the
    whole matrix with its diagonal zeroed: sign -1 where the generator's (B, n) uniform
    draw is below 0.5, replicate s^T M s / (n (n - 1)), and the all-ones signs for the
    statistic."""
    m = np.array(matrix, dtype=float)
    np.fill_diagonal(m, 0.0)
    n = len(m)
    signs = np.ones((n_bootstrap + 1, n))
    signs[1:][rng.random((n_bootstrap, n)) < 0.5] = -1.0
    values = np.einsum("bi,bi->b", signs @ m, signs) / (n * (n - 1))
    rank = min(n_bootstrap, max(1, int(np.ceil((1.0 - alpha) * n_bootstrap))))
    quantile = np.sort(values[1:])[rank - 1]
    p_value = (1 + np.count_nonzero(values[1:] >= values[0])) / (n_bootstrap + 1)
    return float(values[0]), float(quantile), float(p_value)


def dense_mirrored_upper(entries):
    """The strict upper triangle of a square matrix plus its transpose: a symmetric
    matrix with a zero diagonal."""
    upper = np.triu(entries, k=1)
    return upper + upper.T


def squared_distances_by_differences(points, points2):
    """Matrix [i, j] = ||points[i] - points2[j]||^2 from the explicit (n1, n2, d) differences."""
    points = np.asarray(points, dtype=float)
    points2 = np.asarray(points2, dtype=float)
    diff = points[:, None, :] - points2[None, :, :]
    return np.sum(diff ** 2, axis=-1)


def squared_distances_in_order(points, points2):
    """Matrix [i, j] = ||points[i] - points2[j]||^2 from the explicit (n1, n2, d) squared
    differences, added one coordinate after another, first to last."""
    squares = (np.asarray(points, float)[:, None, :] - np.asarray(points2, float)[None]) ** 2
    total = squares[..., 0].copy()
    for k in range(1, squares.shape[-1]):
        total += squares[..., k]
    return total


def mc_gaussian_kernel_single(mean, var, y, gamma, n, rng):
    """Monte-Carlo estimate of E_{z ~ N(mean, diag var)} exp(-||z-y||^2/(2 g^2))."""
    mean = np.atleast_1d(np.asarray(mean, float))
    var = np.atleast_1d(np.asarray(var, float))
    y = np.atleast_1d(np.asarray(y, float))
    z = mean + np.sqrt(var) * rng.standard_normal((n, mean.size))
    return float(np.mean(np.exp(-np.sum((z - y) ** 2, axis=1) / (2.0 * gamma ** 2))))


def mc_gaussian_kernel_double(mean1, var1, mean2, var2, gamma, n, rng):
    mean1 = np.atleast_1d(np.asarray(mean1, float))
    var1 = np.atleast_1d(np.asarray(var1, float))
    mean2 = np.atleast_1d(np.asarray(mean2, float))
    var2 = np.atleast_1d(np.asarray(var2, float))
    z1 = mean1 + np.sqrt(var1) * rng.standard_normal((n, mean1.size))
    z2 = mean2 + np.sqrt(var2) * rng.standard_normal((n, mean2.size))
    return float(np.mean(np.exp(-np.sum((z1 - z2) ** 2, axis=1) / (2.0 * gamma ** 2))))


def gfd_gaussian_closed(p, q):
    """Closed form of the score divergence between two diagonal Gaussians under a
    standard Gaussian base measure.

    With A = diag(1/var_q - 1/var_p) and b = mu_p/var_p - mu_q/var_q the score
    difference is A x + b, so the expectation over x ~ N(0, I) is
    ||A||_F^2 + ||b||^2.
    """
    if p.dim != q.dim:
        raise ValueError("models have mismatched dimensions")
    a = 1.0 / q.var - 1.0 / p.var
    b = p.mean / p.var - q.mean / q.var
    return float(np.sum(a ** 2) + np.sum(b ** 2))


def direct_gfd(score_p, score_q, base_points):
    """Score divergence mean_k ||s_p(z_k) - s_q(z_k)||^2, one base point at a time."""
    total = 0.0
    for z in base_points:
        diff = np.asarray(score_p(z), float) - np.asarray(score_q(z), float)
        total += float(diff @ diff)
    return total / len(base_points)


def gaussian_kernel_expectation(mean, var, point, gamma):
    """Closed form of E_{z ~ N(mean, diag var)} exp(-||z - point||^2 / (2 gamma^2)).

    Per coordinate the integral is sqrt(g^2 / (g^2 + v)) exp(-(mu - y)^2 / (2 (g^2 + v))).
    The double expectation over z ~ N(m1, v1), z' ~ N(m2, v2) is this with
    mean m1, variance v1 + v2 and point m2.
    """
    total = 1.0
    for mu, v, y in zip(np.atleast_1d(mean), np.atleast_1d(var), np.atleast_1d(point)):
        s = gamma ** 2 + v
        total *= np.sqrt(gamma ** 2 / s) * np.exp(-(mu - y) ** 2 / (2.0 * s))
    return float(total)


def brute_force_kgfd(score_diffs, ground_fn, base_points):
    """Double-loop kernel-smoothed score divergence."""
    m = base_points.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += ground_fn(base_points[i], base_points[j]) * float(score_diffs[i] @ score_diffs[j])
    return total / m ** 2


def chi_square_quantile_bisect(dof, prob, tol=1e-12):
    """Chi-square quantile by bisection on the regularised incomplete gamma."""
    lo, hi = 0.0, 1.0
    while special.gammainc(dof / 2.0, hi / 2.0) < prob:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if special.gammainc(dof / 2.0, mid / 2.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_square_quantile(dof, prob):
    """Chi-square quantile from scipy's inverse regularised incomplete gamma."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    return 2.0 * float(special.gammaincinv(dof / 2.0, prob))


def coverage_rate(means, variances, targets, alpha):
    """Fraction of diagonal Gaussian models (rows of ``means`` and ``variances``) whose
    target falls in their (1 - alpha) highest-density region: the ellipsoid where the
    squared Mahalanobis distance is below the (1 - alpha) chi-square quantile with dim
    degrees of freedom."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    means, variances, targets = (np.atleast_2d(np.asarray(a, dtype=float))
                                 for a in (means, variances, targets))
    if len(means) == 0:
        raise ValueError("coverage needs at least one model")
    mahal = np.sum((targets - means) ** 2 / variances, axis=1)
    return float(np.mean(mahal <= chi_square_quantile(means.shape[1], 1.0 - alpha)))


def hdr_contains(mean, var, y, alpha):
    """Whether y lies in the (1 - alpha) highest-density region of N(mean, diag(var))."""
    return coverage_rate(mean, var, y, alpha) == 1.0


def mixture_distance_median(mean1, mean2, var, tol=1e-10):
    """Median distance between two draws of an equal-weight 1-d Gaussian mixture.

    Both components share variance ``var``. Solved by bisection on the exact
    distance CDF.
    """
    from scipy.stats import norm

    gap = abs(mean2 - mean1)
    sd = np.sqrt(2.0 * var)

    def cdf(t):
        same = 2.0 * norm.cdf(t / sd) - 1.0
        cross = norm.cdf((t - gap) / sd) - norm.cdf((-t - gap) / sd)
        return 0.5 * same + 0.5 * cross

    lo, hi = 0.0, gap + 20.0 * sd
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

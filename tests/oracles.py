"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than the
library: central finite differences, plain Monte Carlo, explicit double
loops, and bisection. Keep these free of steincal internals beyond the plain
data types.
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


def squared_distances_by_differences(points, points2):
    """Matrix [i, j] = ||points[i] - points2[j]||^2 from the explicit (n1, n2, d) differences."""
    points = np.asarray(points, dtype=float)
    points2 = np.asarray(points2, dtype=float)
    diff = points[:, None, :] - points2[None, :, :]
    return np.sum(diff ** 2, axis=-1)


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

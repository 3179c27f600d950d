"""Reference computations that tests compare the package against."""

import numpy as np

from cloudlayers import mixtures
from cloudlayers.mixtures import log_dirichlet_prior


def cdll(log_dens, gamma, pi, alpha):
    """Expected complete-data log-likelihood plus the Dirichlet log-prior."""
    core = float(np.sum(gamma * (np.log(pi)[None, :] + log_dens)))
    return core + log_dirichlet_prior(np.log(pi), alpha)


def finite_diff_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def window_sums(planes, w):
    """Clipped box sums of half-width w of each plane in ``planes``, a
    sequence of (m, n) arrays, as one (len(planes), m, n) array: the stacked
    integral image of the planes, padded with w + 1 rows and columns of
    zeros before the grid and its own last row and column repeated w times
    after it, read by slicing at offsets 0 and 2w + 1."""
    m, n = planes[0].shape
    s = np.stack(planes)
    np.cumsum(s, axis=1, out=s)
    np.cumsum(s, axis=2, out=s)
    c = np.zeros((len(planes), m + 2 * w + 1, n + 2 * w + 1))
    grid = c[:, w + 1:, w + 1:]
    grid[:, :m, :n] = s
    grid[:, m:, :n] = s[:, -1:]
    grid[:, :, n:] = grid[:, :, n - 1:n]
    lo_i, hi_i = slice(0, m), slice(2 * w + 1, 2 * w + 1 + m)
    lo_j, hi_j = slice(0, n), slice(2 * w + 1, 2 * w + 1 + n)
    return (c[:, hi_i, hi_j] - c[:, lo_i, hi_j]
            - c[:, hi_i, lo_j] + c[:, lo_i, lo_j])


def entropy(gamma):
    """sum gamma log gamma with 0 log 0 = 0, by masking with np.where."""
    g = np.asarray(gamma, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(g > 0, g * np.log(np.where(g > 0, g, 1.0)), 0.0)
    return float(terms.sum())


def hard_log_likelihood(weights, responsibilities, log_dens):
    """Complete-data log-likelihood under np.argmax assignments."""
    z = np.argmax(responsibilities, axis=1)
    rows = np.arange(z.size)
    return float(np.sum(np.log(weights[z]) + log_dens[rows, z]))


def em_starts(data, n_clusters, seeds):
    """Initial responsibilities for ``mixtures._run_em`` on ``data``: the
    median-split start of ``mixtures.fit``, then, for two clusters, one
    Dirichlet(1, 1) draw per sample from ``np.random.default_rng(seed)`` for
    each seed of ``seeds``."""
    yield mixtures._initial_gamma(data, n_clusters)
    if n_clusters == 2:
        n = data.stats.shape[1]
        for seed in seeds:
            yield np.random.default_rng(seed).dirichlet(np.ones(2), size=n)

"""Reference computations that tests compare the package against."""

import numpy as np

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

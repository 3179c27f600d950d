"""Scalar special functions, the parameter clamp of the M-steps and the
integer and real tests of the input checks.

Each special function takes one float, rejects one <= 0 and returns a Python
float. Everything here is a pure function of its arguments, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

# Positivity clamp applied to every constrained parameter (shape, scale,
# concentration). Keeps the EM iterations away from singular regions.
MIN_ARG = 1e-8

# Ceiling for positivity-constrained parameters in the M-steps.
# Degenerate data (e.g. a point mass on a circle) drives concentrations to
# infinity; the ceiling keeps log-densities finite.
PARAM_CEIL = 1e6


def is_int(x):
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x):
    """True for an integer as ``is_int`` takes it or a Python or numpy
    float; a bool is neither."""
    return is_int(x) or isinstance(x, (float, np.floating))


def _check_positive(x, name):
    if x <= 0:
        raise ValueError(f"{name} must be strictly positive")
    return x


def clamp_positive(x):
    """Clamp a positivity-constrained parameter into [MIN_ARG, PARAM_CEIL]."""
    return min(max(x, MIN_ARG), PARAM_CEIL)


def digamma(x):
    """psi(x) = Gamma'(x) / Gamma(x) for x > 0."""
    return float(_sp.psi(_check_positive(x, "x")))


def trigamma(x):
    """psi'(x) for x > 0."""
    # zeta(2, x) is psi'(x); scalar polygamma(1, x) costs ~10x more.
    return float(_sp.zeta(2.0, _check_positive(x, "x")))


def log_bessel_i0(kappa):
    """log I0(kappa), overflow-free for arbitrarily large kappa."""
    k = _check_positive(kappa, "kappa")
    return math.log(_sp.i0e(k)) + k


def bessel_i_ratio(kappa):
    """I1(kappa) / I0(kappa), computed in the scaled domain."""
    k = _check_positive(kappa, "kappa")
    return float(_sp.i1e(k)) / float(_sp.i0e(k))


"""MAP-EM engine over five likelihood families.

A mixture is described by a :class:`MixtureSpec`: L clusters, a list of
(feature name, family) components whose log-likelihoods add up (factorized
likelihood), and a Dirichlet prior on the weights. All five families are
exponential families: each has a statistic T(x), a log-density
``T(x) @ eta(theta) - A(theta)``, and an exact M-step that maximizes
``s @ eta(theta) - A(theta)`` for the responsibility-weighted mean ``s`` of T:

- gamma, T = [log x, x]: Minka's Newton for the shape, then the scale;
- beta, T = [log x, log(1 - x)]: a 2x2 trigamma Newton;
- von Mises, T = [cos x, sin x]: the mean direction, then I1/I0 = R by Newton;
- bivariate gamma, T = [log x, log y, x, xy]: the gamma shape Newton for
  alpha, beta = alpha / mean(x), and an inverse digamma for ``a``;
- Gaussian, T = [y, upper triangle of y y^T] for y = x - c, with c the mean
  of the fit's samples: the weighted moments, with the covariance
  eigenvalues floored at a fraction of the samples' variance. Centring keeps
  the quadratic terms of Kelvin-scale temperatures from cancelling.

The cold M-step that starts each run, and ``m_step_params``, are exact. The
warm M-steps of a run start from the previous state's parameters. For beta
the warm M-step is one Newton step from there, with the exact M-step's step
halving; the other families solve exactly, and keep the previous parameters
where the exact step would lower ``s @ eta - A``. Generalized EM (Dempster,
Laird & Rubin 1977; the EM gradient algorithm of Lange 1995) needs only that
no M-step lowers ``s @ eta - A``, and none does.

One EM run works on data prepared once per fit: the statistics of every
component copied into the rows of one row-major (K + 1, N) array, with a
last row of ones, and their sums over the samples, one contiguous row each.
An iteration then makes a few passes over these length-N rows:

- E-step: each cluster carries its natural parameters, with -A in the last
  place, from the M-step that produced them, so log pi_l + log p(x | theta_l)
  is [T, 1] @ c_l once log pi_l is added to the last coefficient. For two
  clusters one product gives the log-odds d = (c1 - c0) @ [T, 1], and one
  exp the responsibilities gamma_1 = 1 / (1 + exp(-d)) and gamma_0 =
  1 - gamma_1. The observed-data log-likelihood is
  c1 . sum_i [T_i, 1] + sum_i log(1 + exp(-d_i)), so no (N, L) array of
  log-densities is built; a run builds the ``log_dens`` it returns once.
  A row whose exp(-d) overflows adds -d to the log-likelihood. ``fit``
  rejects a feature with a non-finite value or statistic sum, so the
  statistics are finite;
- shared statistics: one product of the stacked statistics with the
  responsibilities gives every cluster's sums of T and, from the ones row,
  its responsibility mass. These feed the surrogate objective, the MAP
  weights, the M-step means and the warm-start guard of each M-step.

A run maximizes the observed-data MAP objective

    l = sum_i log sum_l pi_l p(x_i | theta_l) + sum_l (alpha_l - 1) log pi_l,

which no EM step lowers (Dempster, Laird & Rubin 1977): the E-step's
log-likelihood plus the Dirichlet term. EM is the map F = M-step after
E-step, and each E-step is one call of ``e_step``. SQUAREM (Varadhan &
Roland 2008) accelerates it in cycles on the vector theta = [logit pi, every
cluster's natural parameters]:

- theta1 = F(theta0) and theta2 = F(theta1); r = theta1 - theta0 and
  v = theta2 - theta1 - r;
- the step length k = |r| / |v|, clamped to [1, step_max], and
  theta' = theta0 + 2 k r + k^2 v, mapped back to parameters by each
  family's inverse of its natural form;
- the next cycle starts at F(theta') if theta' lies in every family's
  domain, keeps both weights in (0, 1) and has l(theta') >= l(theta0);
  otherwise, and whenever k = 1 (where theta' is theta2), at theta2.

So l never falls from one cycle start to the next. The bound step_max
follows the SQUAREM reference implementation (Du & Varadhan 2020): it starts
each run at ``STEP_MAX0``, and after a step at the bound it grows by
``STEP_GROWTH`` if theta' was kept and shrinks by that factor, never under
``STEP_MAX0``, if it was not. Without it, steps on the flat ridge of a
two-cluster fit of one population overshoot and are thrown away, each at
the cost of an E-step.

A run stops on "tolerance" when l gains less than ``Q_REL_TOL`` relative
over the first step of a cycle or over a whole cycle, and on "cap" after
``MAX_OUTER_ITERS`` E-steps. A one-cluster run stops after two E-steps.

Each run returns its :class:`MixtureFit`, whose ``stop`` is derived from
``converged``. A fit records, at each cycle start and at the state it stops
in, l (``ll_trace``) and the surrogate objective

    Q = sum_i sum_l gamma_il [log pi_l + log p(x_i | theta_l)]
        + sum_l (alpha_l - 1) log pi_l

(``q_trace``): the expected complete-data log-likelihood plus the
(unnormalized) Dirichlet log-prior, which vanishes exactly when all
alpha_l = 1. Since sum_i gamma_il log p_il = [eta_l, -A_l] @ (the sums of
cluster l), Q comes from the shared statistics, with no pass over the
samples. An E-step can lower Q, but not l. The fit's Q is its last, and
``e_steps`` counts the E-steps of its run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import psi as _psi
from scipy.special import zeta as _zeta

from .numerics import (MIN_ARG, PARAM_CEIL, bessel_i_ratio, clamp_positive,
                       digamma, log_bessel_i0, trigamma)

LOG_2PI = math.log(2.0 * math.pi)


class FitError(RuntimeError):
    """Raised when every restart of an EM fit degenerates."""


class SupportError(ValueError):
    """Raised when samples fall outside a family's support."""


class _EmptyClusterError(RuntimeError):
    """Internal: a cluster lost all responsibility mass."""


# ---------------------------------------------------------------------------
# Family parameters. Each class names its family (``kind``) and counts one
# cluster's free parameters (``n_params``), which model selection charges.

@dataclass(frozen=True)
class GammaParams:
    alpha: float
    beta: float  # scale: density carries exp(-x / beta)

    kind = "gamma"
    n_params = 2


@dataclass(frozen=True)
class BivariateGammaParams:
    alpha: float
    beta: float
    a: float

    kind = "bivariate_gamma"
    n_params = 3


@dataclass(frozen=True)
class VonMisesParams:
    mu: float
    kappa: float

    kind = "von_mises"
    n_params = 2


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    kind = "beta"
    n_params = 2


@dataclass(frozen=True)
class GaussianParams:
    mean: np.ndarray
    cov: np.ndarray

    kind = "gaussian"

    @property
    def n_params(self):
        d = self.mean.size
        return d + d * (d + 1) // 2

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        object.__setattr__(self, "cov", np.atleast_2d(np.asarray(self.cov, float)))


def _as_columns(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


# ---------------------------------------------------------------------------
# Scalar solves behind the exact M-steps

# Newton steps converge quadratically, so a step under NEWTON_RTOL of the
# iterate leaves an error of about its square, under double precision: it is
# the last step taken. Iterating on would only chase rounding noise.
NEWTON_RTOL = 1e-8
NEWTON_MAX_ITERS = 100
# Twice the gain a beta Newton step predicts, relative to the objective, below
# which the step is the last. The step then is about the root of this, so the
# error it leaves is about this ratio again.
BETA_GAIN_RTOL = 1e-12


def _newton(x, update):
    """Iterate x <- update(x) from x > 0 until a step under NEWTON_RTOL * x,
    halving x instead of leaving the positive axis. Returns x clamped to
    [MIN_ARG, PARAM_CEIL]."""
    for _ in range(NEWTON_MAX_ITERS):
        if not MIN_ARG < x < PARAM_CEIL:
            break
        x_new = update(x)
        if not x_new > 0:
            x_new = 0.5 * x
        done = abs(x_new - x) <= NEWTON_RTOL * x
        x = x_new
        if done:
            break
    return clamp_positive(x)


def _gamma_shape(gap):
    """Shape a with log a - psi(a) = gap, clamped to [MIN_ARG, PARAM_CEIL].

    Minka, "Estimating a Gamma distribution" (2002): a closed-form start and
    a generalized Newton step in 1/a, which converges in a few steps.
    """
    # log a - psi(a) > 1 / (2a), so a gap this small puts a past the ceiling.
    if not gap > 0.5 / PARAM_CEIL:
        return PARAM_CEIL

    def update(a):
        resid = math.log(a) - digamma(a) - gap
        return 1.0 / (1.0 / a + resid / (a * a * (1.0 / a - trigamma(a))))

    start = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
    return _newton(start, update)


_PSI_CEIL = digamma(PARAM_CEIL)


def _inverse_digamma(y):
    """x with psi(x) = y, clamped; Minka's start and Newton steps."""
    if not y < _PSI_CEIL:
        return PARAM_CEIL
    start = math.exp(y) + 0.5 if y >= -2.22 else -1.0 / (y + np.euler_gamma)
    return _newton(start, lambda x: x - (digamma(x) - y) / trigamma(x))


def _von_mises_kappa(r):
    """kappa with I1(kappa) / I0(kappa) = r, clamped.

    Newton on A(k) = I1/I0 with A'(k) = 1 - A/k - A^2 from the start of
    Banerjee et al., JMLR 2005. A is concave, so the iterates approach the
    root from below after at most one step.
    """
    # A(k) < 1 - 1/(2k) puts the root past the ceiling; for tiny k,
    # A(k) = k/2 to double precision puts it under the floor.
    if not r < 1.0 - 0.5 / PARAM_CEIL:
        return PARAM_CEIL
    if r <= 0.5 * MIN_ARG:
        return MIN_ARG

    def update(k):
        # _newton keeps k at most PARAM_CEIL, where A' is still positive in
        # double precision.
        a = bessel_i_ratio(k)
        return k - (a - r) / (1.0 - a / k - a * a)

    return _newton(r * (2.0 - r * r) / (1.0 - r * r), update)


def _log_beta_fn(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_newton(s, a, b):
    """The Newton step (da, db) of the beta objective at (a, b), with the
    trigamma Hessian (Minka, "Estimating a Dirichlet distribution"), and the
    gain g . (da, db) its quadratic model predicts; None where the Hessian
    is not negative definite."""
    # a and b are positive, so psi is called unchecked. Scalar psi calls
    # cost less than one call on a list of the three arguments. For the
    # trigammas zeta(2, .), which has two arguments, one call on the list
    # costs less than three of ``trigamma``.
    psa, psb = float(_psi(a)), float(_psi(b))
    dab = float(_psi(a + b))
    ta, tb, t = _zeta(2.0, [a, b, a + b]).tolist()
    g1 = s[0] - psa + dab
    g2 = s[1] - psb + dab
    h11 = ta - t
    h22 = tb - t
    det = h11 * h22 - t * t
    if not det > 0:
        return None
    da = (h22 * g1 + t * g2) / det
    db = (t * g1 + h11 * g2) / det
    return da, db, g1 * da + g2 * db


def _beta_line_search(s, a, b, da, db, f):
    """The first of (a, b) + (da, db) / 2^j, j = 0, 1, ..., that stays in
    the positive quadrant and does not lower the beta objective from f, as
    (a', b', its objective, log B(a', b')); None if no step over 1e-12 does.
    """
    lgamma = math.lgamma
    step = 1.0
    while step > 1e-12:
        na, nb = a + step * da, b + step * db
        if na > 0 and nb > 0:
            log_b = lgamma(na) + lgamma(nb) - lgamma(na + nb)
            fn = (na - 1.0) * s[0] + (nb - 1.0) * s[1] - log_b
            if fn >= f:
                return na, nb, fn, log_b
        step *= 0.5
    return None


def _beta_clamped(a, b):
    """BetaParams(a, b) with both shapes in [MIN_ARG, PARAM_CEIL]. Where
    one passes the ceiling, both are scaled so that the larger is
    PARAM_CEIL, which keeps the mean a / (a + b) of a concentrated beta."""
    if a > PARAM_CEIL and a >= b:
        a, b = PARAM_CEIL, b * (PARAM_CEIL / a)
    elif b > PARAM_CEIL:
        a, b = a * (PARAM_CEIL / b), PARAM_CEIL
    return BetaParams(alpha=clamp_positive(a), beta=clamp_positive(b))


def _beta_m_step(s):
    """Beta parameters maximizing the beta objective at mean statistic s.

    Newton steps, halving those that leave the positive quadrant or lower
    the objective, from the geometric-mean approximation
    a = 1/2 + G1 / (2 (1 - G1 - G2)).
    """
    g1, g2 = math.exp(s[0]), math.exp(s[1])
    slack = max(2.0 * (1.0 - g1 - g2), 1.0 / PARAM_CEIL)
    a, b = 0.5 + g1 / slack, 0.5 + g2 / slack
    f = (a - 1.0) * s[0] + (b - 1.0) * s[1] - _log_beta_fn(a, b)
    for _ in range(NEWTON_MAX_ITERS):
        newton = _beta_newton(s, a, b)
        if newton is None:
            break
        da, db, gain = newton
        if gain <= BETA_GAIN_RTOL * (1.0 + abs(f)):
            # The quadratic model's gain is near rounding, where the
            # objective cannot rank the step: take it unchecked, as the last.
            if a + da > 0 and b + db > 0:
                a, b = a + da, b + db
            break
        found = _beta_line_search(s, a, b, da, db, f)
        if found is None:
            break  # no ascent left at double precision
        a, b, f, _ = found
        if a >= PARAM_CEIL or b >= PARAM_CEIL:
            break
    return _beta_clamped(a, b)


def _beta_warm_step(s, warm):
    """One Newton step of the beta objective at mean statistic s from the
    warm (params, eta, A) triple, with the exact M-step's step halving; the
    new triple, or ``warm`` where no step gains.

    The line search already checks ascent on s @ eta - A, so the accepted
    point's natural form is built once, from the values it checked.
    """
    p, eta, log_b = warm
    a, b = p.alpha, p.beta
    newton = _beta_newton(s, a, b)
    if newton is None:
        return warm
    found = _beta_line_search(s, a, b, newton[0], newton[1],
                              _mean_log_density(s, eta, log_b))
    if found is None:
        return warm
    na, nb, _, log_b = found
    if not (MIN_ARG <= na <= PARAM_CEIL and MIN_ARG <= nb <= PARAM_CEIL):
        return _no_worse(s, _beta_clamped(na, nb), _beta_natural, warm)
    return BetaParams(alpha=na, beta=nb), (na - 1.0, nb - 1.0), log_b


# ---------------------------------------------------------------------------
# The exponential-family table

def _gamma_statistic(x):
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise SupportError("gamma support violation: x must be > 0")
    return np.column_stack([np.log(x), x])


def _gamma_natural(p):
    a, b = p.alpha, p.beta
    return (a - 1.0, -1.0 / b), a * math.log(b) + math.lgamma(a)


def _gamma_from_natural(eta):
    if eta[0] > -1.0 and eta[1] < 0.0:
        return GammaParams(alpha=eta[0] + 1.0, beta=-1.0 / eta[1])
    return None


def _gamma_m_step(s):
    a = _gamma_shape(math.log(s[1]) - s[0])
    return GammaParams(alpha=a, beta=clamp_positive(s[1] / a))


def _beta_statistic(x):
    x = np.asarray(x, float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise SupportError("beta support violation: x must lie in (0, 1)")
    return np.column_stack([np.log(x), np.log1p(-x)])


def _beta_natural(p):
    a, b = p.alpha, p.beta
    return (a - 1.0, b - 1.0), _log_beta_fn(a, b)


def _beta_from_natural(eta):
    if eta[0] > -1.0 and eta[1] > -1.0:
        return BetaParams(alpha=eta[0] + 1.0, beta=eta[1] + 1.0)
    return None


def _von_mises_statistic(x):
    x = np.asarray(x, float)
    return np.column_stack([np.cos(x), np.sin(x)])


def _von_mises_natural(p):
    k = p.kappa
    return ((k * math.cos(p.mu), k * math.sin(p.mu)),
            LOG_2PI + log_bessel_i0(k))


def _von_mises_from_natural(eta):
    kappa = math.hypot(eta[0], eta[1])
    if kappa > 0.0:
        return VonMisesParams(mu=math.atan2(eta[1], eta[0]), kappa=kappa)
    return None


def _von_mises_m_step(s):
    c, sn = float(s[0]), float(s[1])
    return VonMisesParams(mu=math.atan2(sn, c),
                          kappa=_von_mises_kappa(math.hypot(c, sn)))


def _bivariate_gamma_statistic(x):
    xy = _as_columns(x)
    if np.any(xy <= 0):
        raise SupportError(
            "bivariate gamma support violation: x, y must be > 0")
    xv, yv = xy[:, 0], xy[:, 1]
    return np.column_stack([np.log(xv), np.log(yv), xv, xv * yv])


def _bivariate_gamma_natural(p):
    a, b, c = p.alpha, p.beta, p.a
    return ((a + c - 1.0, c - 1.0, -b, -1.0),
            math.lgamma(a) + math.lgamma(c) - a * math.log(b))


def _bivariate_gamma_from_natural(eta):
    # The last natural parameter, the coefficient of xy, is always -1.
    alpha, beta, a = eta[0] - eta[1], -eta[2], eta[1] + 1.0
    if alpha > 0.0 and beta > 0.0 and a > 0.0:
        return BivariateGammaParams(alpha=alpha, beta=beta, a=a)
    return None


def _bivariate_gamma_m_step(s):
    a = _gamma_shape(math.log(s[2]) - s[0])
    return BivariateGammaParams(alpha=a, beta=clamp_positive(a / s[2]),
                                a=_inverse_digamma(s[0] + s[1]))


@dataclass(frozen=True)
class _Family:
    statistic: object  # x -> T(x), shape (N, k); raises on support violations
    natural: object    # params -> (eta, A), log p(x) = T(x) @ eta - A
    m_step: object     # mean of T -> maximizing params
    from_natural: object  # eta -> params, or None outside the family's domain
    # (mean of T, warm (params, eta, A)) -> a triple no worse than the warm
    # one: EM's warm M-step. None: the exact M-step, guarded.
    warm_step: object = None


def _gaussian_family(center, floor):
    """The Gaussian centred at ``center`` (c), with covariance eigenvalues
    floored at ``floor`` by its M-step.

    With y = x - c, m = mean - c and P the inverse covariance,
    log p = y @ P m - y P y / 2 - A, A = m P m / 2 + log|2 pi cov| / 2. The
    quadratic part pairs the upper triangle of y y^T with -P_ii / 2 on the
    diagonal and -P_ij off it.
    """
    c = np.asarray(center, float)
    d = c.size
    iu, ju = np.triu_indices(d)
    quad = np.where(iu == ju, -0.5, -1.0)

    def statistic(x):
        y = _as_columns(x) - c
        return np.column_stack([y, y[:, iu] * y[:, ju]])

    def natural(p):
        vals, vecs = np.linalg.eigh(p.cov)
        if not vals.min() > 0:
            raise np.linalg.LinAlgError("covariance is not positive definite")
        prec = (vecs / vals) @ vecs.T
        m = p.mean - c
        pm = prec @ m
        a = 0.5 * (float(m @ pm) + d * LOG_2PI + float(np.log(vals).sum()))
        return pm.tolist() + (quad * prec[iu, ju]).tolist(), a

    def m_step(s):
        dm = np.array(s[:d])
        second = np.empty((d, d))
        second[iu, ju] = second[ju, iu] = s[d:]
        cov = second - np.outer(dm, dm)
        return GaussianParams(mean=c + dm, cov=_floor_covariance(cov, floor))

    def from_natural(eta):
        prec = np.empty((d, d))
        prec[iu, ju] = prec[ju, iu] = np.divide(eta[d:], quad)
        vals, vecs = np.linalg.eigh(prec)
        if not vals.min() > 0:
            return None
        cov = (vecs / vals) @ vecs.T
        return GaussianParams(mean=c + cov @ eta[:d], cov=cov)

    return _Family(statistic, natural, m_step, from_natural)


_FAMILIES = {
    "gamma": _Family(_gamma_statistic, _gamma_natural, _gamma_m_step,
                     _gamma_from_natural),
    "beta": _Family(_beta_statistic, _beta_natural, _beta_m_step,
                    _beta_from_natural, _beta_warm_step),
    "von_mises": _Family(_von_mises_statistic, _von_mises_natural,
                         _von_mises_m_step, _von_mises_from_natural),
    "bivariate_gamma": _Family(_bivariate_gamma_statistic,
                               _bivariate_gamma_natural,
                               _bivariate_gamma_m_step,
                               _bivariate_gamma_from_natural),
}


def _family(kind, x, params=None):
    """The family ``kind`` for samples ``x``. A Gaussian is built for them:
    centred at ``params.mean`` when params are given, else at the mean of x,
    and with its covariance floor taken from the variance of x."""
    if kind == "gaussian":
        xs = _as_columns(x)
        center = xs.mean(axis=0) if params is None else params.mean
        return _gaussian_family(center, _cov_floor(xs))
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown family {kind!r}") from None


# ---------------------------------------------------------------------------
# Log-densities and their parameter gradients

def log_pdf(params, x):
    """Per-sample log density of one family; raises on support violations.
    A Gaussian's statistic is centred at its own mean."""
    family = _family(params.kind, x, params)
    eta, a = family.natural(params)
    return family.statistic(x) @ eta - a


def log_pdf_gradient(params, x):
    """Per-sample gradient of log_pdf w.r.t. the family parameters.

    Column order matches the dataclass field order. Gaussians have no
    gradient path.
    """
    if params.kind == "gamma":
        x = np.asarray(x, float)
        a, b = params.alpha, params.beta
        return np.column_stack([
            np.log(x) - math.log(b) - digamma(a),
            (x / b - a) / b,
        ])
    if params.kind == "bivariate_gamma":
        xy = _as_columns(x)
        xv, yv = xy[:, 0], xy[:, 1]
        a, b, c = params.alpha, params.beta, params.a
        return np.column_stack([
            math.log(b) + np.log(xv) - digamma(a),
            a / b - xv,
            np.log(xv) + np.log(yv) - digamma(c),
        ])
    if params.kind == "von_mises":
        x = np.asarray(x, float)
        mu, k = params.mu, params.kappa
        return np.column_stack([
            k * np.sin(x - mu),
            np.cos(x - mu) - bessel_i_ratio(k),
        ])
    if params.kind == "beta":
        x = np.asarray(x, float)
        a, b = params.alpha, params.beta
        dab = digamma(a + b)
        return np.column_stack([
            np.log(x) - digamma(a) + dab,
            np.log1p(-x) - digamma(b) + dab,
        ])
    raise NotImplementedError(f"no analytic gradient path for {params.kind!r}")


# ---------------------------------------------------------------------------
# M-step

# Eigenvalue floor for Gaussian covariances, as a fraction of the total data
# variance of the fit.
COV_FLOOR_FRACTION = 1e-6


def _cov_floor(xs):
    return COV_FLOOR_FRACTION * max(float(np.mean(np.var(xs, axis=0))), 1.0)


def _floor_covariance(cov, floor):
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, max(floor, MIN_ARG))
    return (vecs * vals) @ vecs.T


def _mean_log_density(s, eta, a):
    """s @ eta - a on short float sequences."""
    total = 0.0
    for si, ei in zip(s, eta):
        total += si * ei
    return total - a


def _no_worse(s, new, natural, warm):
    """The (params, eta, A) triple of ``new``, or the triple ``warm`` when
    ``new`` would lower the objective s @ eta - A."""
    eta, a = natural(new)
    obj = _mean_log_density(s, eta, a)
    if not math.isfinite(obj) or obj < _mean_log_density(s, *warm[1:]):
        return warm
    return new, eta, a


def _em_m_step(family, s, warm):
    """EM's M-step at mean statistic s, as a (params, eta, A) triple of the
    new parameters and their natural form.

    With ``warm`` None it is the exact M-step, unguarded: the cold start of
    a run. Otherwise ``warm`` is the previous iteration's triple, and the
    step is the family's warm step from it where it has one, else the exact
    M-step, with ``warm`` kept where that would lower s @ eta - A. So no
    warm M-step lowers Q, which is all generalized EM needs.
    """
    if warm is None:
        new = family.m_step(s)
        return (new, *family.natural(new))
    if family.warm_step is not None:
        return family.warm_step(s, warm)
    return _no_worse(s, family.m_step(s), family.natural, warm)


def m_step_params(x, gamma_l, params):
    """Maximize the gamma-weighted log-likelihood of one cluster/component.

    The family's exact M-step on the weighted mean of T(x), with parameters
    clamped to [MIN_ARG, PARAM_CEIL] and Gaussian covariance eigenvalues
    floored at a fraction of the variance of x; ``params`` is kept if the
    new point would lower the objective.
    """
    g = np.asarray(gamma_l, float)
    gsum = g.sum()
    if gsum <= 1e-8 * g.size:
        raise _EmptyClusterError("cluster responsibility mass vanished")
    family = _family(params.kind, x)
    s = ((g @ family.statistic(x)) / gsum).tolist()
    return _no_worse(s, family.m_step(s), family.natural,
                     (params, *family.natural(params)))[0]


# ---------------------------------------------------------------------------
# Mixture spec and fit record

@dataclass(frozen=True)
class MixtureSpec:
    """L clusters over a factorized list of (feature name, family kind) pairs."""

    n_clusters: int
    components: tuple
    dirichlet_alpha: tuple

    def __post_init__(self):
        if self.n_clusters not in (1, 2):
            raise ValueError("cluster count must be 1 or 2")
        comps = tuple((str(f), str(k)) for f, k in self.components)
        alpha = np.asarray(self.dirichlet_alpha, float)
        if alpha.shape != (self.n_clusters,):
            raise ValueError("one Dirichlet alpha per cluster required")
        if not (np.all(alpha >= 1.0) and sum(alpha.tolist()) < math.inf):
            raise ValueError("Dirichlet alphas must be >= 1 with a finite sum")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dirichlet_alpha", tuple(alpha.tolist()))


class MixtureFit(NamedTuple):
    """The fit one EM run ends in."""
    # Fixed field order: the benchmark's tracer reads result[5] as converged.
    params: list            # params[l][c] -> FamilyParams
    weights: np.ndarray     # pi, shape (L,)
    responsibilities: np.ndarray  # gamma, shape (N, L)
    log_dens: np.ndarray    # per-sample per-cluster log-likelihood, (N, L)
    q_trace: list           # Q at each cycle start and the final state
    converged: bool         # stopped on "tolerance"; see module doc
    e_steps: int            # E-steps of this restart's run
    spec: MixtureSpec
    restart_id: int
    ll_trace: list          # the objective l at the same states

    @property
    def q(self):
        return self.q_trace[-1]

    @property
    def stop(self):
        return "tolerance" if self.converged else "cap"

    def to_json_dict(self):
        def enc(p):
            return {"kind": p.kind,
                    **{k: np.asarray(v, float).tolist()
                       for k, v in vars(p).items()}}

        return {
            "n_clusters": self.spec.n_clusters,
            "components": [list(c) for c in self.spec.components],
            "dirichlet_alpha": list(self.spec.dirichlet_alpha),
            "weights": self.weights.tolist(),
            "params": [[enc(p) for p in row] for row in self.params],
            "q_trace": [float(q) for q in self.q_trace],
            "ll_trace": [float(v) for v in self.ll_trace],
            "e_steps": self.e_steps,
            "converged": self.converged,
            "stop": self.stop,
            "restart_id": self.restart_id,
        }


@dataclass(frozen=True)
class _Component:
    family: _Family
    x: np.ndarray
    rows: slice  # its rows of the stacked T


@dataclass(frozen=True)
class _FitData:
    components: tuple
    stats: np.ndarray  # (K + 1, N), row-major: every T(x).T, then ones
    totals: np.ndarray  # (K + 1,): stats summed over the samples


def _component_data(features, spec):
    """_FitData of ``features``, computed once per fit: each feature is
    checked finite and its statistic T computed, which checks its support.
    The sums of T over the samples, kept as ``totals``, are then checked
    finite feature by feature in spec order: a statistic that overflows, or
    whose sum does, raises SupportError naming its feature."""
    comps, ts = [], []
    n = None
    k = 0
    for fname, kind in spec.components:
        x = np.asarray(features[fname], float)
        if n is None:
            n = x.shape[0]
        elif x.shape[0] != n:
            raise ValueError("feature lengths differ")
        if not np.isfinite(x).all():
            raise SupportError(f"feature {fname!r} holds non-finite values")
        # Finite values can still have a statistic that overflows, such as
        # a Gaussian's centred square above about 1e154; the sums below
        # catch that and an overflowing sum alike.
        with np.errstate(over="ignore", invalid="ignore"):
            family = _family(kind, x)
            t = family.statistic(x)
        comps.append(_Component(family, x, slice(k, k + t.shape[1])))
        ts.append(t)
        k += t.shape[1]
    stats = np.empty((k + 1, n))
    for comp, t in zip(comps, ts):
        stats[comp.rows] = t.T
    stats[k] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        totals = stats.sum(axis=1)
    for (fname, _), comp in zip(spec.components, comps):
        if not np.isfinite(totals[comp.rows]).all():
            raise SupportError(f"feature {fname!r} overflows its statistic")
    return _FitData(tuple(comps), stats, totals)


def e_step(coef, pi, stats, totals):
    """Responsibilities of the clusters whose log-densities are coef @ stats.

    Row l of ``coef`` (L, K + 1) holds cluster l's coefficients of the
    stacked statistics ``stats`` (K + 1, N), whose last row is ones, and
    ``totals`` is ``stats`` summed over samples. Returns (gamma, log_lik):
    gamma (N, L) has contiguous columns, and log_lik = sum_i log sum_l
    pi_l p_il is the observed-data log-likelihood. One cluster takes every
    row.

    Two clusters work on the log-odds d = w1 - w0 of the log-weights
    w_l = log pi_l + log p_il, one product with log pi folded into the
    coefficient of the ones row: gamma_1 = 1 / (1 + exp(-d)), gamma_0 =
    1 - gamma_1, and log_lik = sum_i w1 + log(1 + exp(-d)), where
    sum_i w1 = c1 . totals. A row whose exp(-d) overflows adds -d in place
    of log(1 + exp(-d)).
    """
    c = np.array(coef, float)
    c[:, -1] += np.log(pi)
    if pi.size == 1:
        w = c[0] @ stats
        return np.ones((w.size, 1), order="F"), float(w.sum())
    # The statistics are finite, but an extrapolated state's finite
    # coefficients can still overflow in these products. Such a state's
    # log_lik is -inf or NaN, which fails the run's test
    # l(theta') >= l(theta0).
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.empty((stats.shape[1], 2), order="F")
        d = (c[1] - c[0]) @ stats
        s = np.exp(-d)
        s += 1.0
        np.divide(1.0, s, out=gamma[:, 1])
        np.subtract(1.0, gamma[:, 1], out=gamma[:, 0])
        np.log(s, out=s)
        w1_sum = float(c[1] @ totals)
        log_lik = w1_sum + float(s.sum())
        if not math.isfinite(log_lik):
            # Where exp(-d) overflowed, d < -709.78 and log(1 + exp(-d)) is
            # -d to well under an ulp; such a row's gammas, 0 and 1, are
            # already right.
            over = np.isinf(s)
            s[over] = -d[over]
            log_lik = w1_sum + float(s.sum())
    return gamma, log_lik


def m_step_weights(masses, alpha, n):
    """MAP weights (alpha_l - 1 + m_l) / (n - L + sum(alpha)) of the
    clusters' responsibility masses ``masses`` over ``n`` samples; bitwise
    masses / n when every alpha is 1."""
    return (np.array([a - 1.0 + m for a, m in zip(alpha, masses)])
            / (n - len(alpha) + sum(alpha)))


def log_dirichlet_prior(log_pi, alpha):
    """Unnormalized Dirichlet log-prior sum_l (alpha_l - 1) log pi_l of the
    log-weights ``log_pi``; exactly zero when all alpha = 1."""
    return sum((a - 1.0) * lp for a, lp in zip(alpha, log_pi) if a != 1.0)


MAX_OUTER_ITERS = 300
Q_REL_TOL = 1e-6
# The SQUAREM step-length bound's start and factor; see the module doc. They
# are ``step.max0`` and ``mstep`` of Du & Varadhan (2020).
STEP_MAX0 = 1.0
STEP_GROWTH = 4.0


def _initial_gamma(n, n_clusters, mode, primary, rng):
    if n_clusters == 1:
        return np.ones((n, 1))
    if mode == "split":
        below = primary <= np.median(primary)
        return np.where(below[:, None], (0.95, 0.05), (0.05, 0.95))
    return rng.dirichlet(np.ones(n_clusters), size=n)


class _State(NamedTuple):
    """An EM state. ``rows[l][c]`` is the (params, eta, A) triple of
    component c in cluster l: its parameters and their natural form.
    ``coef`` (L, K + 1) has in row l the coefficients of [T, 1] in cluster
    l's log-density, its etas then -sum(A); ``pi`` holds the weights; and
    ``theta`` is the state's SQUAREM vector [logit pi (two clusters), every
    cluster's etas]."""
    rows: list
    coef: np.ndarray
    pi: np.ndarray
    theta: np.ndarray


def _new_state(rows, pi):
    """The :class:`_State` of the triples ``rows`` and weights ``pi``. Its
    coefficients and SQUAREM vector are built once, from the same Python
    floats."""
    coef = []
    for row in rows:
        coef_row, a_sum = [], 0.0
        for _, eta, a in row:
            coef_row += eta
            a_sum += a
        coef_row.append(-a_sum)
        coef.append(coef_row)
    head = [math.log(pi[1] / pi[0])] if pi.size == 2 else []
    theta = np.array(head + [v for row in coef for v in row[:-1]])
    return _State(rows, np.array(coef), pi, theta)


def _m_step(data, sums, rows, pi):
    """Every cluster's M-step from ``sums`` (K + 1, L): column l holds
    cluster l's responsibility-weighted sums of the stacked statistics, then
    its responsibility mass.

    ``rows[l][c]`` is the warm (params, eta, A) triple of component c in
    cluster l, or None for a cold start. Returns the new :class:`_State` at
    the weights ``pi``. The scalar work runs on Python floats, which cost
    less than numpy scalars.
    """
    new_rows = []
    for warm_row, col in zip(rows, sums.T.tolist()):
        gsum = col[-1]
        means = [v / gsum for v in col[:-1]]
        new_rows.append([_em_m_step(comp.family, means[comp.rows], warm)
                         for comp, warm in zip(data.components, warm_row)])
    return _new_state(new_rows, pi)


def _vector(state):
    """The SQUAREM vector of a :class:`_State`."""
    return state.theta


def _state(data, theta, n_clusters):
    """The :class:`_State` at a SQUAREM vector, or None when it leaves some
    family's domain, puts a weight outside (0, 1) or has a non-finite A."""
    if not np.isfinite(theta).all():
        return None
    pi = np.ones(1)
    if n_clusters == 2:
        # A weight under about exp(-700) counts as 0: exp(t) overflows
        # not far past |t| = 700.
        if not abs(theta[0]) < 700.0:
            return None
        pi = 1.0 / (1.0 + np.exp([theta[0], -theta[0]]))
        theta = theta[1:]
    rows = []
    for eta_row in theta.reshape(n_clusters, -1).tolist():
        row = []
        for comp in data.components:
            p = comp.family.from_natural(eta_row[comp.rows])
            if p is None:
                return None
            row.append((p, *comp.family.natural(p)))
        rows.append(row)
    state = _new_state(rows, pi)
    return state if np.isfinite(state.coef[:, -1]).all() else None


class _Eval(NamedTuple):
    """One E-step of the EM map at a :class:`_State`."""
    state: _State
    gamma: np.ndarray
    sums: np.ndarray  # (K + 1, L) statistic sums, then responsibility mass
    masses: list  # sums[-1] as Python floats
    q: float
    ll: float


def _run_em(data, spec, gamma, restart_id):
    """One SQUAREM-accelerated EM run from initial responsibilities
    ``gamma``. Returns the :class:`MixtureFit` it ends in."""
    alpha = spec.dirichlet_alpha
    prior = [a - 1.0 for a in alpha]
    stats = data.stats
    n = stats.shape[1]
    empty = 1e-8 * n  # responsibility mass of an empty cluster

    def m_step(state, ev):
        # The map's M-step, from the E-step ``ev`` at ``state``.
        if min(ev.masses) <= empty:
            raise _EmptyClusterError("empty cluster during EM")
        return _m_step(data, ev.sums, state.rows,
                       m_step_weights(ev.masses, alpha, n))

    def evaluate(state):
        coef, pi = state.coef, state.pi
        # Cluster l's log-density is [T, 1] @ [eta_l, -A_l], row l of coef.
        gamma, log_lik = e_step(coef, pi, stats, data.totals)
        sums = stats @ gamma
        masses = sums[-1].tolist()
        log_pi = np.log(pi).tolist()
        counts = [p + g for p, g in zip(prior, masses)]
        # sum_i gamma_il log p_il is [eta_l, -A_l] @ sums[:, l], so
        # Q = sum_l coef_l . sums_l + (alpha_l - 1 + gsum_l) log pi_l.
        q = float(np.vdot(coef, sums.T)) + sum(
            c * lp for c, lp in zip(counts, log_pi))
        ll = log_lik + log_dirichlet_prior(log_pi, alpha)
        return _Eval(state, gamma, sums, masses, q, ll)

    def small(ev, start):
        # Whether l gained under the tolerance since ``start``.
        return ev.ll - start.ll < Q_REL_TOL * (1.0 + abs(ev.ll))

    # The first state is the cold M-step of the initial responsibilities.
    sums = stats @ gamma
    cold = [[None] * len(data.components)] * spec.n_clusters
    state = _m_step(data, sums, cold,
                    m_step_weights(sums[-1].tolist(), alpha, n))
    trace = []  # (q, l) at each cycle start, then the last
    evals = 0
    ev0 = None
    converged = False
    step_max = STEP_MAX0
    while True:
        # A cycle: theta1 = F(theta0) and theta2 = F(theta1), then the
        # extrapolation theta' = theta0 + 2 k r + k^2 v.
        start, ev0 = ev0, evaluate(state)
        evals += 1
        last = ev0
        trace.append((ev0.q, ev0.ll))
        if start is not None and small(ev0, start):
            converged = True
            break
        if evals == MAX_OUTER_ITERS:
            break
        s1 = m_step(state, ev0)
        ev1 = evaluate(s1)
        evals += 1
        converged = small(ev1, ev0)
        if converged or evals == MAX_OUTER_ITERS:
            last = ev1
            trace.append((ev1.q, ev1.ll))
            break
        s2 = m_step(s1, ev1)
        t0 = _vector(state)
        r = _vector(s1) - t0
        v = _vector(s2) - t0 - 2.0 * r
        # Bit for bit np.linalg.norm, without its Python-level overhead.
        nr, nv = math.sqrt(float(r.dot(r))), math.sqrt(float(v.dot(v)))
        state = s2
        # k = -a = |r| / |v|, clamped to [1, step_max]; theta' is theta2 at
        # k = 1, and the last map evaluation is kept for it.
        k = max(1.0, min(nr / nv, step_max)) if nv > 0.0 else 1.0
        if k > 1.0 and evals + 1 < MAX_OUTER_ITERS:
            ext = _state(data, t0 + 2.0 * k * r + k * k * v, spec.n_clusters)
            ev = None
            if ext is not None:
                ev = evaluate(ext)
                evals += 1
            # An empty cluster would end the run: theta' is invalid.
            if (ev is not None and ev.ll >= ev0.ll
                    and min(ev.masses) > empty):
                state = m_step(ext, ev)
            else:
                if k == step_max:
                    step_max = max(STEP_MAX0, step_max / STEP_GROWTH)
                k = 1.0
        if k == step_max:
            step_max *= STEP_GROWTH
    q_trace, ll_trace = (list(v) for v in zip(*trace))
    state = last.state
    # The (N, L) log-densities, with contiguous columns, once per run.
    return MixtureFit(params=[[p for p, _, _ in row] for row in state.rows],
                      weights=state.pi, responsibilities=last.gamma,
                      log_dens=(state.coef @ stats).T, q_trace=q_trace,
                      converged=converged, e_steps=evals, spec=spec,
                      restart_id=restart_id, ll_trace=ll_trace)


def fit(features, spec, init_seed=0, restarts=1):
    """Best-Q MAP-EM fit over ``restarts`` initializations.

    The first initialization splits the primary scalar feature at its median,
    and by default it is the only one: on the benchmark pools it gives the
    same layer choices as three starts with a third of the E-steps. Each
    further restart uses random responsibilities drawn from ``init_seed``. A
    one-cluster fit has a single initialization (all responsibilities 1) and
    runs once. Each run returns its fit, and the first of the highest Q is
    kept. Raises :class:`FitError` if every restart degenerates, and
    ``ValueError`` for ``restarts`` under 1.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    data = _component_data(features, spec)
    n = data.stats.shape[1]
    if n < spec.n_clusters:
        raise FitError("fewer samples than clusters")
    primary = _as_columns(data.components[0].x)[:, 0]
    starts = 1 if spec.n_clusters == 1 else restarts
    # Only a random start draws from the generator; one start builds none.
    rng = np.random.default_rng(init_seed) if starts > 1 else None
    runs = []
    for r in range(starts):
        mode = "split" if r == 0 else "random"
        gamma0 = _initial_gamma(n, spec.n_clusters, mode, primary, rng)
        try:
            runs.append(_run_em(data, spec, gamma0, r))
        except _EmptyClusterError:
            continue
    if not runs:
        families = ", ".join(k for _, k in spec.components)
        raise FitError(f"all restarts degenerate for families: {families}")
    # max replaces its pick only on a strictly higher Q: the first best wins.
    return max(runs, key=lambda f: f.q)


def resolve_labels(mixture_fit, temperature_means):
    """Reorder clusters so cluster 1 has the highest mean temperature.

    Ties are broken by larger weight. Idempotent; Q is untouched.
    """
    means = np.asarray(temperature_means, float)
    ncl = mixture_fit.spec.n_clusters
    if means.size != ncl:
        raise ValueError("one temperature mean per cluster required")
    order = sorted(range(ncl),
                   key=lambda l: (-means[l], -mixture_fit.weights[l], l))
    if order == list(range(ncl)):
        return mixture_fit
    idx = np.asarray(order)
    return mixture_fit._replace(
        params=[mixture_fit.params[l] for l in order],
        weights=mixture_fit.weights[idx],
        responsibilities=mixture_fit.responsibilities[:, idx],
        log_dens=mixture_fit.log_dens[:, idx])

"""MAP-EM engine over five likelihood families.

A mixture is described by a :class:`MixtureSpec`: L clusters, a list of
(feature name, family) components whose log-likelihoods add up (factorized
likelihood), and a Dirichlet prior on the weights. Gaussian M-steps are
closed form. The other four families are exponential families, tabled in
``_FAMILIES``: each has a fixed statistic T(x), a log-density
``T(x) @ eta(theta) - A(theta)``, and an exact M-step that maximizes
``s @ eta(theta) - A(theta)`` for the responsibility-weighted mean ``s`` of T:

- gamma, T = [log x, x]: Minka's Newton for the shape, then the scale;
- beta, T = [log x, log(1 - x)]: a 2x2 trigamma Newton;
- von Mises, T = [cos x, sin x]: the mean direction, then I1/I0 = R by Newton;
- bivariate gamma, T = [log x, log y, x, xy]: the gamma shape Newton for
  alpha, beta = alpha / mean(x), and an inverse digamma for ``a``.

One EM run works on data prepared once per fit: the statistics of every
exponential-family component stacked as the rows of one (K + 1, N) array,
with a last row of ones, and a covariance floor per Gaussian component. An
iteration then makes a few passes over contiguous length-N rows:

- log-densities: each cluster carries its natural parameters, with -A in the
  last place, from the M-step that produced them, so one matrix product gives
  the (L, N) log-densities of the exponential-family components; Gaussian
  components add their own. Transposed, this is an (N, L) array with
  contiguous columns;
- E-step: a log-domain softmax. For two clusters it works on the difference
  d = w1 - w0 of the log-weights alone: the row-max form's terms are
  exp(min(d, 0)) and exp(-max(d, 0)), so it needs no row max, and its
  results are the same bit for bit;
- shared statistics: one product of the stacked statistics with the
  responsibilities gives every cluster's sums of T and, from the ones row,
  its responsibility mass. These feed the surrogate objective, the MAP
  weights, the M-step means and the warm-start guard of each M-step.

The surrogate objective recorded per iteration is

    Q = sum_i sum_l gamma_il [log pi_l + log p(x_i | theta_l)]
        + sum_l (alpha_l - 1) log pi_l

i.e. the expected complete-data log-likelihood plus the (unnormalized)
Dirichlet log-prior, which vanishes exactly when all alpha_l = 1. Each run
stops when Q changes by less than ``Q_REL_TOL`` relative ("tolerance"), when
it dips below its previous value by more than rounding ("dip"; the run keeps
the state before the dip), or after ``MAX_OUTER_ITERS`` iterations ("cap").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi as _psi, zeta as _zeta

from .numerics import (MIN_ARG, PARAM_CEIL, bessel_i_ratio, clamp_positive,
                       digamma, log_bessel_i0)

LOG_2PI = math.log(2.0 * math.pi)


class FitError(RuntimeError):
    """Raised when every restart of an EM fit degenerates."""


class SupportError(ValueError):
    """Raised when samples fall outside a family's support."""


class _EmptyClusterError(RuntimeError):
    """Internal: a cluster lost all responsibility mass."""


# ---------------------------------------------------------------------------
# Family parameters

@dataclass(frozen=True)
class GammaParams:
    alpha: float
    beta: float  # scale: density carries exp(-x / beta)

    kind = "gamma"


@dataclass(frozen=True)
class BivariateGammaParams:
    alpha: float
    beta: float
    a: float

    kind = "bivariate_gamma"


@dataclass(frozen=True)
class VonMisesParams:
    mu: float
    kappa: float

    kind = "von_mises"


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    kind = "beta"


@dataclass(frozen=True)
class GaussianParams:
    mean: np.ndarray
    cov: np.ndarray

    kind = "gaussian"

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


def _digamma(x):
    return float(_psi(x))


def _trigamma(x):
    # zeta(2, x) is psi'(x); scalar polygamma(1, x) costs ~10x more.
    return float(_zeta(2.0, x))


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
        resid = math.log(a) - _digamma(a) - gap
        return 1.0 / (1.0 / a + resid / (a * a * (1.0 / a - _trigamma(a))))

    start = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
    return _newton(start, update)


_PSI_CEIL = _digamma(PARAM_CEIL)


def _inverse_digamma(y):
    """x with psi(x) = y, clamped; Minka's start and Newton steps."""
    if not y < _PSI_CEIL:
        return PARAM_CEIL
    start = math.exp(y) + 0.5 if y >= -2.22 else -1.0 / (y + np.euler_gamma)
    return _newton(start, lambda x: x - (_digamma(x) - y) / _trigamma(x))


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
        a = bessel_i_ratio(k)
        return k - (a - r) / (1.0 - a / k - a * a)

    return _newton(r * (2.0 - r * r) / (1.0 - r * r), update)


def _log_beta_fn(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_objective(s, a, b):
    return (a - 1.0) * s[0] + (b - 1.0) * s[1] - _log_beta_fn(a, b)


def _beta_m_step(s, start):
    """Beta parameters maximizing the beta objective at mean statistic s.

    Newton with the trigamma Hessian (Minka, "Estimating a Dirichlet
    distribution"), halving steps that leave the positive quadrant or lower
    the objective. Starts from ``start`` or, without one, from the
    geometric-mean approximation a = 1/2 + G1 / (2 (1 - G1 - G2)).
    """
    if start is not None:
        a, b = start.alpha, start.beta
    else:
        g1, g2 = math.exp(s[0]), math.exp(s[1])
        slack = max(2.0 * (1.0 - g1 - g2), 1.0 / PARAM_CEIL)
        a, b = 0.5 + g1 / slack, 0.5 + g2 / slack
    f = _beta_objective(s, a, b)
    for _ in range(NEWTON_MAX_ITERS):
        # One special-function call per three arguments costs less than three.
        args = [a, b, a + b]
        psa, psb, dab = _psi(args).tolist()
        ta, tb, t = _zeta(2.0, args).tolist()
        g1 = s[0] - psa + dab
        g2 = s[1] - psb + dab
        h11 = ta - t
        h22 = tb - t
        det = h11 * h22 - t * t
        if not det > 0:
            break
        da = (h22 * g1 + t * g2) / det
        db = (t * g1 + h11 * g2) / det
        if g1 * da + g2 * db <= BETA_GAIN_RTOL * (1.0 + abs(f)):
            # The quadratic model's gain is near rounding, where the
            # objective cannot rank the step: take it unchecked, as the last.
            if a + da > 0 and b + db > 0:
                a, b = a + da, b + db
            break
        step = 1.0
        while step > 1e-12:
            na, nb = a + step * da, b + step * db
            if na > 0 and nb > 0:
                fn = _beta_objective(s, na, nb)
                if fn >= f:
                    break
            step *= 0.5
        else:
            break  # no ascent left at double precision
        a, b, f = na, nb, fn
        if a >= PARAM_CEIL or b >= PARAM_CEIL:
            break
    return BetaParams(alpha=clamp_positive(a), beta=clamp_positive(b))


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


def _gamma_m_step(s, start):
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


def _von_mises_statistic(x):
    x = np.asarray(x, float)
    return np.column_stack([np.cos(x), np.sin(x)])


def _von_mises_natural(p):
    k = p.kappa
    return ((k * math.cos(p.mu), k * math.sin(p.mu)),
            LOG_2PI + log_bessel_i0(k))


def _von_mises_m_step(s, start):
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


def _bivariate_gamma_m_step(s, start):
    a = _gamma_shape(math.log(s[2]) - s[0])
    return BivariateGammaParams(alpha=a, beta=clamp_positive(a / s[2]),
                                a=_inverse_digamma(s[0] + s[1]))


@dataclass(frozen=True)
class _Family:
    statistic: object  # x -> T(x), shape (N, k); raises on support violations
    natural: object    # params -> (eta, A), log p(x) = T(x) @ eta - A
    m_step: object     # (mean of T, warm start or None) -> maximizing params


_FAMILIES = {
    "gamma": _Family(_gamma_statistic, _gamma_natural, _gamma_m_step),
    "beta": _Family(_beta_statistic, _beta_natural, _beta_m_step),
    "von_mises": _Family(_von_mises_statistic, _von_mises_natural,
                         _von_mises_m_step),
    "bivariate_gamma": _Family(_bivariate_gamma_statistic,
                               _bivariate_gamma_natural,
                               _bivariate_gamma_m_step),
}


def _family(kind):
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown family {kind!r}") from None


def statistic(kind, x):
    """The family's statistic T(x), one row per sample; raises
    :class:`SupportError` on support violations. Gaussians have none (None)."""
    return None if kind == "gaussian" else _family(kind).statistic(x)


# ---------------------------------------------------------------------------
# Log-densities and their parameter gradients

def _solve_lower(chol, b):
    """chol^-1 @ b for a lower-triangular (d, d) chol, by forward
    substitution: d vector steps over the columns of b."""
    y = np.empty(b.shape)
    for i in range(chol.shape[0]):
        y[i] = (b[i] - chol[i, :i] @ y[:i]) / chol[i, i]
    return y


def log_pdf(params, x, stats=None):
    """Per-sample log density of one family; raises on support violations.

    ``stats`` is T(x) from :func:`statistic` when the caller already holds
    it; the support check then happened when it was computed.
    """
    if params.kind == "gaussian":
        xs = _as_columns(x)
        d = params.mean.size
        chol = np.linalg.cholesky(params.cov)
        diff = xs - params.mean
        sol = _solve_lower(chol, diff.T)
        maha = np.sum(sol * sol, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        return -0.5 * (d * LOG_2PI + logdet + maha)
    family = _family(params.kind)
    t = family.statistic(x) if stats is None else stats
    eta, a = family.natural(params)
    return t @ eta - a


def log_pdf_gradient(params, x):
    """Per-sample gradient of log_pdf w.r.t. the family parameters.

    Column order matches the dataclass field order. Gaussians use a
    closed-form M-step and are not part of the gradient path.
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


def _gaussian_m_step(xs, g, gsum, cov_floor):
    mean = (g @ xs) / gsum
    second = (xs * g[:, None]).T @ xs / gsum
    cov = second - np.outer(mean, mean)
    return GaussianParams(mean=mean, cov=_floor_covariance(cov, cov_floor))


def _mean_log_density(s, eta, a):
    """s @ eta - a on short float sequences."""
    return sum(si * ei for si, ei in zip(s, eta)) - a


def _exact_m_step(family, s, params, eta, a):
    """The family's M-step at mean statistic s, warm-started from ``params``
    whose natural form is (eta, a). Returns the new (params, eta, a).

    The warm start came from the previous EM iteration; it is kept when the
    new point would lower the objective s @ eta - a, so no M-step lowers Q.
    """
    new = family.m_step(s, params)
    new_eta, new_a = family.natural(new)
    obj = _mean_log_density(s, new_eta, new_a)
    if not math.isfinite(obj) or obj < _mean_log_density(s, eta, a):
        return params, eta, a
    return new, new_eta, new_a


def m_step_params(x, gamma_l, params, cov_floor=None):
    """Maximize the gamma-weighted log-likelihood of one cluster/component.

    Gaussian: closed-form weighted moments with an eigenvalue-floored
    covariance (``cov_floor``, by default a fraction of the data variance).
    Other families: the family's exact M-step on the weighted mean of T(x),
    with parameters clamped to [MIN_ARG, PARAM_CEIL]; ``params`` is the warm
    start, and is kept if the new point would lower the objective.
    """
    g = np.asarray(gamma_l, float)
    gsum = g.sum()
    if gsum <= 1e-8 * g.size:
        raise _EmptyClusterError("cluster responsibility mass vanished")
    if params.kind == "gaussian":
        xs = _as_columns(x)
        if cov_floor is None:
            cov_floor = _cov_floor(xs)
        return _gaussian_m_step(xs, g, gsum, cov_floor)
    family = _family(params.kind)
    s = ((g @ family.statistic(x)) / gsum).tolist()
    return _exact_m_step(family, s, params, *family.natural(params))[0]


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
        if alpha.ndim == 0:
            alpha = np.full(self.n_clusters, float(alpha))
        if alpha.size != self.n_clusters:
            raise ValueError("one Dirichlet alpha per cluster required")
        if np.any(alpha < 1.0):
            raise ValueError("Dirichlet alphas must be >= 1")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dirichlet_alpha", tuple(alpha.tolist()))


@dataclass
class MixtureFit:
    spec: MixtureSpec
    params: list            # params[l][c] -> FamilyParams
    weights: np.ndarray     # pi, shape (L,)
    responsibilities: np.ndarray  # gamma, shape (N, L)
    log_dens: np.ndarray    # per-sample per-cluster log-likelihood, (N, L)
    q_trace: list
    converged: bool
    restart_id: int
    stop: str               # "tolerance", "dip" or "cap"; see module doc
    flagged_rows: int = 0

    @property
    def q(self):
        return self.q_trace[-1]

    def to_json_dict(self):
        def enc(p):
            if p.kind == "gaussian":
                return {"kind": p.kind, "mean": p.mean.tolist(),
                        "cov": p.cov.tolist()}
            d = {"kind": p.kind}
            d.update({k: float(v) for k, v in vars(p).items()})
            return d

        return {
            "n_clusters": self.spec.n_clusters,
            "components": [list(c) for c in self.spec.components],
            "dirichlet_alpha": list(self.spec.dirichlet_alpha),
            "weights": self.weights.tolist(),
            "params": [[enc(p) for p in row] for row in self.params],
            "q_trace": [float(q) for q in self.q_trace],
            "converged": self.converged,
            "stop": self.stop,
            "restart_id": self.restart_id,
            "flagged_rows": self.flagged_rows,
        }


@dataclass(frozen=True)
class _Component:
    kind: str
    x: np.ndarray
    rows: slice = None       # exponential families: its rows of the stacked T
    cov_floor: float = None  # Gaussians: the covariance eigenvalue floor


@dataclass(frozen=True)
class _FitData:
    components: tuple
    stats: np.ndarray  # (K + 1, N): every component's T(x).T, then ones


def _component_data(features, spec):
    """(n, _FitData): T is computed, the support checked and the covariance
    floor taken once per fit."""
    comps, blocks = [], []
    n = None
    k = 0
    for fname, kind in spec.components:
        x = np.asarray(features[fname], float)
        if n is None:
            n = x.shape[0]
        elif x.shape[0] != n:
            raise ValueError("feature lengths differ")
        if kind == "gaussian":
            comps.append(_Component(kind, x,
                                    cov_floor=_cov_floor(_as_columns(x))))
        else:
            t = statistic(kind, x)
            comps.append(_Component(kind, x, rows=slice(k, k + t.shape[1])))
            blocks.append(t.T)
            k += t.shape[1]
    blocks.append(np.ones((1, n)))
    return n, _FitData(tuple(comps), np.concatenate(blocks))


def log_dirichlet_prior(pi, alpha):
    """Unnormalized Dirichlet log-prior; exactly zero when all alpha = 1."""
    alpha = np.asarray(alpha, float)
    if np.all(alpha == 1.0):
        return 0.0
    return float(np.sum((alpha - 1.0) * np.log(pi)))


def e_step(log_dens, pi):
    """Responsibilities from per-cluster log densities; log-domain softmax.

    Rows where every cluster has zero likelihood become uniform and are
    counted. Returns (gamma, flagged_row_count); gamma has contiguous
    columns.
    """
    lp = np.log(pi)
    # Work column by column: numpy loops over the short row axis cost
    # several times more than over the long sample axis, for the same values.
    logw = [log_dens[:, l] + lp[l] for l in range(lp.size)]
    gamma = np.empty(log_dens.shape, order="F")
    if lp.size == 2:
        # The row-max softmax gives the larger weight exp(0) = 1 and the
        # smaller exp(-|w1 - w0|): exp(min(d, 0)) and exp(-max(d, 0)) are
        # those terms, bit for bit, with no row max and no select.
        with np.errstate(invalid="ignore"):  # inf - inf on flagged rows
            d = logw[1] - logw[0]
            finite = math.isfinite(d.sum())
        e1 = np.minimum(d, 0.0)
        np.exp(e1, out=e1)
        e0 = np.maximum(d, 0.0)
        np.negative(e0, out=e0)
        np.exp(e0, out=e0)
        s = e0 + e1
        np.divide(e0, s, out=gamma[:, 0])
        np.divide(e1, s, out=gamma[:, 1])
        # d is finite on every row unless some weight is infinite or NaN.
        if finite:
            return gamma, 0
        bad = ~np.isfinite(np.maximum(logw[0], logw[1]))
    else:
        m = functools.reduce(np.maximum, logw)
        bad = ~np.isfinite(m)
        m[bad] = 0.0
        e = [np.exp(w - m) for w in logw]
        # Where m is finite its column contributes exp(0) = 1, so s >= 1;
        # only flagged rows can sum to 0, and those are overwritten below.
        s = functools.reduce(np.add, e)
        s[bad] = 1.0
        for l, el in enumerate(e):
            np.divide(el, s, out=gamma[:, l])
    n_bad = int(bad.sum())
    if n_bad:
        gamma[bad] = 1.0 / pi.size
    return gamma, n_bad


def m_step_weights(gamma, dirichlet_alpha, n, n_clusters):
    """MAP weight update; reduces bitwise to sum(gamma)/N when alpha = 1."""
    alpha = np.asarray(dirichlet_alpha, float)
    gsum = np.asarray(gamma).sum(axis=0)
    return (alpha - 1.0 + gsum) / (n - n_clusters + alpha.sum())


def cdll(log_dens, gamma, pi, alpha):
    """Expected complete-data log-likelihood plus the Dirichlet log-prior."""
    core = float(np.sum(gamma * (np.log(pi)[None, :] + log_dens)))
    return core + log_dirichlet_prior(pi, alpha)


MAX_OUTER_ITERS = 300
Q_REL_TOL = 1e-6


def _initial_gamma(n, n_clusters, mode, primary, rng):
    if n_clusters == 1:
        return np.ones((n, 1))
    if mode == "split":
        med = np.median(primary)
        gamma = np.full((n, 2), 0.05)
        below = primary <= med
        gamma[below, 0] = 0.95
        gamma[~below, 1] = 0.95
        gamma /= gamma.sum(axis=1, keepdims=True)
        return gamma
    gamma = rng.dirichlet(np.ones(n_clusters), size=n)
    return gamma


def _m_step(data, gamma, sums, params, natural):
    """Every cluster's M-step from the responsibilities ``gamma`` and their
    sums ``sums`` (K + 1, L) of the stacked statistics and the ones row.

    ``params[l][c]`` and ``natural[l][c]``, the (eta, A) of the exponential
    families, are the warm starts; ``None`` starts without one. Returns the
    new (params, natural, coef), where row l of ``coef`` (L, K + 1) holds the
    coefficients of [T, 1] in cluster l's log-density: its natural
    parameters, then -sum(A). The scalar work runs on Python floats, which
    cost less than numpy scalars.
    """
    new_params, new_natural, coef = [], [], []
    for l, col in enumerate(sums.T.tolist()):
        gsum = col[-1]
        means = [v / gsum for v in col[:-1]]
        p_row, n_row, coef_row, a_sum = [], [], [], 0.0
        for c, comp in enumerate(data.components):
            if comp.rows is None:
                p_row.append(_gaussian_m_step(_as_columns(comp.x), gamma[:, l],
                                              gsum, comp.cov_floor))
                n_row.append(None)
                continue
            family = _FAMILIES[comp.kind]
            s = means[comp.rows]
            if params is None:
                p = family.m_step(s, None)
                eta, a = family.natural(p)
            else:
                p, eta, a = _exact_m_step(family, s, params[l][c],
                                          *natural[l][c])
            p_row.append(p)
            n_row.append((eta, a))
            coef_row += eta
            a_sum += a
        coef_row.append(-a_sum)
        new_params.append(p_row)
        new_natural.append(n_row)
        coef.append(coef_row)
    return new_params, new_natural, np.array(coef)


def _run_em(n, data, spec, gamma):
    """One EM run from initial responsibilities ``gamma``. Returns (params,
    pi, gamma, log_dens, q_trace, converged, flagged_rows, stop)."""
    # MAP weights are (alpha - 1 + gsum) / denom, as in m_step_weights.
    prior = [a - 1.0 for a in spec.dirichlet_alpha]
    denom = n - spec.n_clusters + sum(spec.dirichlet_alpha)
    stats = data.stats
    gaussians = [(c, comp.x) for c, comp in enumerate(data.components)
                 if comp.rows is None]
    # The initial parameters are the M-step of the initial responsibilities.
    sums = stats @ gamma
    params, natural, coef = _m_step(data, gamma, sums, None, None)
    counts = [p + g for p, g in zip(prior, sums[-1].tolist())]
    pi = np.array(counts) / denom
    q_trace = []
    best = None
    flagged = 0
    stop = "cap"
    for _ in range(MAX_OUTER_ITERS):
        # Row l is cluster l's log-density [T, 1] @ [eta_l, -A_l]; the
        # transpose is (N, L) with contiguous columns.
        ld = coef @ stats
        for c, x in gaussians:
            for l in range(spec.n_clusters):
                ld[l] += log_pdf(params[l][c], x)
        log_dens = ld.T
        gamma, nbad = e_step(log_dens, pi)
        flagged = max(flagged, nbad)
        sums = stats @ gamma
        gsum = sums[-1].tolist()
        counts = [p + g for p, g in zip(prior, gsum)]
        # sum_l gamma_l . log_dens_l + (alpha_l - 1 + gsum_l) log pi_l
        q = float(np.vdot(gamma.T, ld)) + sum(
            c * math.log(p) for c, p in zip(counts, pi.tolist()))
        if q_trace and q - q_trace[-1] < -1e-12 * (1.0 + abs(q_trace[-1])):
            # Surrogate dipped below the ascent slack near a stationary
            # point: stop and keep the best recorded state.
            stop = "dip"
            break
        q_trace.append(q)
        best = (params, pi, gamma, log_dens)
        if (len(q_trace) > 1
                and abs(q - q_trace[-2]) < Q_REL_TOL * (1.0 + abs(q))):
            stop = "tolerance"
            break
        if min(gsum) <= 1e-8 * n:
            raise _EmptyClusterError("empty cluster during EM")
        pi = np.array(counts) / denom
        params, natural, coef = _m_step(data, gamma, sums, params, natural)
    params, pi, gamma, log_dens = best
    return params, pi, gamma, log_dens, q_trace, stop != "cap", flagged, stop


def fit(features, spec, init_seed=0, restarts=3):
    """Best-Q MAP-EM fit over ``restarts`` initializations.

    The first initialization splits the primary scalar feature at its median;
    the rest use random responsibilities. A one-cluster fit has a single
    initialization (all responsibilities 1) and runs once. Raises
    :class:`FitError` if every restart degenerates.
    """
    n, data = _component_data(features, spec)
    if n < spec.n_clusters:
        raise FitError("fewer samples than clusters")
    primary = _as_columns(data.components[0].x)[:, 0]
    rng = np.random.default_rng(init_seed)
    best_fit = None
    failures = []
    for r in range(1 if spec.n_clusters == 1 else max(1, restarts)):
        mode = "split" if r == 0 else "random"
        gamma0 = _initial_gamma(n, spec.n_clusters, mode, primary, rng)
        try:
            (params, pi, gamma, log_dens, q_trace, conv, flagged,
             stop) = _run_em(n, data, spec, gamma0)
        except _EmptyClusterError as exc:
            failures.append(str(exc))
            continue
        if best_fit is None or q_trace[-1] > best_fit.q:
            best_fit = MixtureFit(spec=spec, params=params, weights=pi,
                                  responsibilities=gamma, log_dens=log_dens,
                                  q_trace=q_trace, converged=conv,
                                  restart_id=r, stop=stop,
                                  flagged_rows=flagged)
    if best_fit is None:
        families = ", ".join(k for _, k in spec.components)
        raise FitError(f"all restarts degenerate for families: {families}")
    return best_fit


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
    return MixtureFit(
        spec=mixture_fit.spec,
        params=[mixture_fit.params[l] for l in order],
        weights=mixture_fit.weights[idx],
        responsibilities=mixture_fit.responsibilities[:, idx],
        log_dens=mixture_fit.log_dens[:, idx],
        q_trace=list(mixture_fit.q_trace),
        converged=mixture_fit.converged,
        restart_id=mixture_fit.restart_id,
        stop=mixture_fit.stop,
        flagged_rows=mixture_fit.flagged_rows,
    )

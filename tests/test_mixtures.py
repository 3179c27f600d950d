"""Likelihood families, analytic gradients and the MAP-EM driver."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats
from scipy.special import logsumexp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudlayers import mixtures
from cloudlayers.mixtures import (BetaParams, BivariateGammaParams, FitError,
                                  GammaParams, GaussianParams, MixtureSpec,
                                  SupportError, VonMisesParams, e_step, fit,
                                  log_dirichlet_prior, log_pdf,
                                  log_pdf_gradient, m_step_params,
                                  m_step_weights, resolve_labels)
from cloudlayers.numerics import MIN_ARG, PARAM_CEIL, digamma, trigamma
from oracles import cdll, em_starts, finite_diff_gradient

# ---------------------------------------------------------------------------
# Log-densities against scipy.stats / direct quadrature


def test_gamma_log_pdf_matches_scipy():
    p = GammaParams(alpha=2.3, beta=1.7)  # beta is the scale
    x = np.array([0.1, 1.0, 3.5, 10.0])
    expected = scipy.stats.gamma(a=2.3, scale=1.7).logpdf(x)
    np.testing.assert_allclose(log_pdf(p, x), expected, rtol=1e-12)


def test_beta_log_pdf_matches_scipy():
    p = BetaParams(alpha=2.0, beta=5.0)
    x = np.array([0.05, 0.3, 0.5, 0.9])
    expected = scipy.stats.beta(2.0, 5.0).logpdf(x)
    np.testing.assert_allclose(log_pdf(p, x), expected, rtol=1e-12)


def test_von_mises_log_pdf_matches_scipy():
    p = VonMisesParams(mu=0.7, kappa=2.5)
    x = np.array([-3.0, -0.5, 0.7, 2.0])
    expected = scipy.stats.vonmises(kappa=2.5, loc=0.7).logpdf(x)
    np.testing.assert_allclose(log_pdf(p, x), expected, rtol=1e-12)


def test_von_mises_log_pdf_at_zero_concentration_one():
    # 1 - ln(2 pi) - ln I0(1), checked once against high-precision series.
    p = VonMisesParams(mu=0.0, kappa=1.0)
    assert log_pdf(p, np.array([0.0]))[0] == pytest.approx(
        -1.0737914249165241, abs=1e-12)


def test_gaussian_log_pdf_matches_scipy():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    p = GaussianParams(mean=mean, cov=cov)
    x = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]])
    expected = scipy.stats.multivariate_normal(mean, cov).logpdf(x)
    np.testing.assert_allclose(log_pdf(p, x), expected, rtol=1e-12)


@pytest.mark.parametrize("mean,cov", [
    ([280.0], [[0.25]]),
    ([280.0, 265.0], [[0.25, 0.05], [0.05, 0.36]]),
], ids=["1d", "2d"])
def test_gaussian_log_pdf_at_kelvin_scale(mean, cov):
    # Temperatures sit far from zero, where an uncentred quadratic form
    # loses digits: log_pdf and a one-cluster fit's log-densities must match
    # scipy in absolute terms.
    rng = np.random.default_rng(38)
    x = rng.multivariate_normal(mean, cov, size=2000)
    if len(mean) == 1:
        x = x[:, 0]
    p = GaussianParams(mean=np.array(mean), cov=np.array(cov))
    np.testing.assert_allclose(
        log_pdf(p, x), scipy.stats.multivariate_normal(mean, cov).logpdf(x),
        rtol=0, atol=1e-12)
    f = fit({"x": x}, MixtureSpec(n_clusters=1, components=(("x", "gaussian"),),
                                  dirichlet_alpha=(1.0,)))
    q = f.params[0][0]
    expected = scipy.stats.multivariate_normal(q.mean, q.cov).logpdf(x)
    np.testing.assert_allclose(f.log_dens[:, 0], expected, rtol=0, atol=1e-12)


def test_gaussian_log_pdf_rejects_indefinite_covariance():
    p = GaussianParams(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        log_pdf(p, np.zeros((3, 2)))


def test_bivariate_gamma_log_pdf_direct_formula():
    p = BivariateGammaParams(alpha=2.0, beta=1.5, a=1.2)
    xy = np.array([[0.5, 0.2], [1.0, 1.0], [3.0, 0.1]])

    def direct(x, y):
        return (2.0 * math.log(1.5) + (2.0 + 1.2 - 1.0) * math.log(x)
                + (1.2 - 1.0) * math.log(y) - 1.5 * x - x * y
                - math.lgamma(2.0) - math.lgamma(1.2))

    expected = [direct(x, y) for x, y in xy]
    np.testing.assert_allclose(log_pdf(p, xy), expected, rtol=1e-12)


def test_bivariate_gamma_y_marginal_is_gamma():
    # Integrating the second coordinate out must leave a Gamma(alpha, rate
    # beta) marginal in the first; checks the joint density normalizes.
    p = BivariateGammaParams(alpha=1.8, beta=2.0, a=1.4)
    for x in (0.3, 1.0, 2.5):
        marginal, _ = scipy.integrate.quad(
            lambda y: np.exp(log_pdf(p, np.array([[x, y]]))[0]),
            1e-12, np.inf)
        expected = scipy.stats.gamma(a=1.8, scale=1.0 / 2.0).pdf(x)
        assert marginal == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("params,bad", [
    (GammaParams(1.0, 1.0), np.array([-0.1])),
    (GammaParams(1.0, 1.0), np.array([0.0])),
    (BetaParams(1.0, 1.0), np.array([1.0])),
    (BetaParams(1.0, 1.0), np.array([-0.5])),
    (BivariateGammaParams(1.0, 1.0, 1.0), np.array([[1.0, 0.0]])),
])
def test_support_violations_raise(params, bad):
    with pytest.raises(SupportError):
        log_pdf(params, bad)


def _direct_log_pdf(p, x):
    """Each family's density written out term by term (reference)."""
    if p.kind == "gamma":
        a, b = p.alpha, p.beta
        return (a - 1) * np.log(x) - x / b - a * math.log(b) - math.lgamma(a)
    if p.kind == "beta":
        a, b = p.alpha, p.beta
        log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return (a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - log_b
    if p.kind == "von_mises":
        log_i0 = float(mpmath.log(mpmath.besseli(0, p.kappa)))
        return p.kappa * np.cos(x - p.mu) - math.log(2 * math.pi) - log_i0
    xv, yv = x[:, 0], x[:, 1]
    a, b, c = p.alpha, p.beta, p.a
    return (a * math.log(b) + (a + c - 1) * np.log(xv) + (c - 1) * np.log(yv)
            - b * xv - xv * yv - math.lgamma(a) - math.lgamma(c))


def _form_case(kind, rng):
    if kind.startswith("gaussian"):
        d = 1 if kind == "gaussian_1d" else 2
        m = rng.normal(size=(d, d))
        p = GaussianParams(mean=rng.uniform(-5, 5, d),
                           cov=m @ m.T + 0.1 * np.eye(d))
        x = rng.multivariate_normal(p.mean, 4.0 * p.cov, size=20)
        return p, (x[:, 0] if d == 1 else x)
    return _grad_case(kind, rng)[:2]


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma", "gaussian_1d",
                                  "gaussian_2d"])
def test_exponential_family_form_matches_direct_formula(kind):
    # log_pdf is T(x) @ eta - A; it must equal the density written out term
    # by term, or scipy's for the Gaussian.
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, x = _form_case(kind, rng)
        if p.kind == "gaussian":
            expected = scipy.stats.multivariate_normal(p.mean, p.cov).logpdf(x)
        else:
            expected = _direct_log_pdf(p, x)
        np.testing.assert_allclose(log_pdf(p, x), expected,
                                   rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Analytic gradients against central finite differences


def _grad_case(kind, rng):
    if kind == "gamma":
        p = GammaParams(alpha=rng.uniform(0.5, 5), beta=rng.uniform(0.5, 5))
        x = rng.gamma(2.0, 2.0, size=20) + 1e-3
        rebuild = lambda v: GammaParams(*v)
    elif kind == "beta":
        p = BetaParams(alpha=rng.uniform(0.5, 5), beta=rng.uniform(0.5, 5))
        x = rng.uniform(0.05, 0.95, size=20)
        rebuild = lambda v: BetaParams(*v)
    elif kind == "von_mises":
        p = VonMisesParams(mu=rng.uniform(-2, 2), kappa=rng.uniform(0.2, 8))
        x = rng.uniform(-np.pi, np.pi, size=20)
        rebuild = lambda v: VonMisesParams(*v)
    else:
        p = BivariateGammaParams(alpha=rng.uniform(0.5, 4),
                                 beta=rng.uniform(0.5, 4),
                                 a=rng.uniform(0.5, 4))
        x = np.column_stack([rng.gamma(2, 1, 20) + 1e-3,
                             rng.gamma(2, 1, 20) + 1e-3])
        rebuild = lambda v: BivariateGammaParams(*v)
    return p, x, rebuild


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, x, rebuild = _grad_case(kind, rng)
        analytic = log_pdf_gradient(p, x)
        v0 = np.array([getattr(p, f) for f in vars(p)])
        for i in range(x.shape[0]):
            xi = x[i:i + 1]
            fd = finite_diff_gradient(
                lambda v: log_pdf(rebuild(v), xi)[0], v0)
            np.testing.assert_allclose(analytic[i], fd, rtol=1e-4, atol=1e-6)


def test_gaussian_gradient_not_implemented():
    p = GaussianParams(mean=np.zeros(1), cov=np.eye(1))
    with pytest.raises(NotImplementedError):
        log_pdf_gradient(p, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# E-step, weight update, CDLL


def _as_statistics(log_dens):
    """(coef, stats, totals) for ``e_step`` whose log-densities coef @ stats
    are the columns of ``log_dens``: the statistics [log_dens.T; ones] with
    coefficients eye(L, L + 1), whose products add exact zeros."""
    ld = np.asarray(log_dens, float)
    n, ncl = ld.shape
    stats = np.vstack([ld.T, np.ones(n)])
    return np.eye(ncl, ncl + 1), stats, stats.sum(axis=1)


def _e_step(log_dens, pi):
    """``e_step`` at the (N, L) log-densities ``log_dens``."""
    coef, stats, totals = _as_statistics(log_dens)
    return e_step(coef, pi, stats, totals)


def test_e_step_two_cluster_example():
    # log densities chosen so softmax is computable by hand.
    log_dens = np.array([[0.0, 0.0], [math.log(3.0), 0.0]])
    pi = np.array([0.5, 0.5])
    gamma, _ = _e_step(log_dens, pi)
    np.testing.assert_allclose(gamma[0], [0.5, 0.5])
    np.testing.assert_allclose(gamma[1], [0.75, 0.25])


def _row_reduction_e_step(log_dens, pi):
    """Reference E-step reducing along the row axis."""
    logw = log_dens + np.log(pi)[None, :]
    e = np.exp(logw - logw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _e_step_cases(n_clusters):
    """(log_dens, pi) for the E-step comparisons: finite rows, then for two
    clusters finite rows some of whose log-odds d = w1 - w0 fall below
    -709.78, where exp(-d) overflows."""
    rng = np.random.default_rng(30)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(n_clusters))
        finite = rng.normal(scale=50.0, size=(500, n_clusters))
        yield finite, pi
        if n_clusters == 2:
            overflow = finite.copy()
            overflow[4::9] = [0.0, -800.0]
            overflow[8::15] = [5.0, -1e4]
            overflow[12::31] = [800.0, 0.0]
            yield overflow, pi


# Fixed before the comparison was first run: d = w1 - w0 is rounded once more
# than in the row-max reference, about 1e-14 at these magnitudes.
LOG_ODDS_GAMMA_ATOL = 1e-12


@pytest.mark.parametrize("n_clusters", [1, 2])
def test_e_step_matches_row_reduction(n_clusters):
    # Two clusters work on the log-odds, also where exp(-d) overflows.
    for log_dens, pi in _e_step_cases(n_clusters):
        gamma, _ = _e_step(log_dens, pi)
        assert gamma.flags.f_contiguous
        np.testing.assert_allclose(gamma, _row_reduction_e_step(log_dens, pi),
                                   rtol=0, atol=LOG_ODDS_GAMMA_ATOL)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_e_step_rows_lie_on_simplex(seed):
    rng = np.random.default_rng(seed)
    log_dens = rng.normal(scale=5.0, size=(17, 2))
    pi = rng.dirichlet([1.0, 1.0])
    gamma, _ = _e_step(log_dens, pi)
    assert np.all(gamma >= 0) and np.all(gamma <= 1)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_map_weights_reduce_to_ml_bitwise():
    rng = np.random.default_rng(12)
    masses = rng.dirichlet([1, 1], size=50).sum(axis=0)
    mapw = m_step_weights(masses.tolist(), (1.0, 1.0), 50)
    assert np.array_equal(masses / 50, mapw)  # bitwise, not approx


def test_map_weights_with_informative_prior():
    w = m_step_weights([5.0, 5.0], (1.0, 11.0), 10)
    # (0 + 5) / (10 - 2 + 12) = 0.25 and (10 + 5) / 20 = 0.75.
    np.testing.assert_allclose(w, [0.25, 0.75])


def test_dirichlet_prior_is_exactly_zero_at_alpha_one():
    log_pi = np.log([0.3, 0.7]).tolist()
    assert log_dirichlet_prior(log_pi, (1.0, 1.0)) == 0.0
    nonzero = log_dirichlet_prior(log_pi, (1.0, 3.0))
    assert nonzero == pytest.approx(2.0 * math.log(0.7))


@pytest.mark.parametrize("alpha", [(1.0, 1.0), (1.5, 4.0)])
def test_run_takes_its_weights_and_prior_from_the_public_functions(
        monkeypatch, alpha):
    returned, prior_calls = [], []

    def weights_spy(*args):
        returned.append(m_step_weights(*args))
        return returned[-1]

    def prior_spy(*args):
        prior_calls.append(args)
        return log_dirichlet_prior(*args)

    monkeypatch.setattr(mixtures, "m_step_weights", weights_spy)
    monkeypatch.setattr(mixtures, "log_dirichlet_prior", prior_spy)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.gamma(2, 1, 150), rng.gamma(9, 1, 150)])
    spec = MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                       dirichlet_alpha=alpha)
    f = fit({"x": x}, spec)
    # Every state's weights come from an M-step, so the fit's are one of
    # the arrays the spy returned; and each E-step adds the prior once.
    assert any(w is f.weights for w in returned)
    assert len(prior_calls) == f.e_steps


def test_cdll_hand_example():
    log_dens = np.array([[math.log(0.5), math.log(0.25)]])
    gamma = np.array([[0.8, 0.2]])
    pi = np.array([0.6, 0.4])
    expected = (0.8 * (math.log(0.6) + math.log(0.5))
                + 0.2 * (math.log(0.4) + math.log(0.25)))
    assert cdll(log_dens, gamma, pi, np.ones(2)) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# M-step against an independent optimizer


def _weighted_ll(dist_logpdf, x, g):
    return lambda v: float(g @ dist_logpdf(v, x))


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma"])
def test_m_step_attains_oracle_objective(kind):
    rng = np.random.default_rng(13)
    g = rng.uniform(0.2, 1.0, size=300)
    if kind == "gamma":
        x = rng.gamma(2.5, 1.8, size=300) + 1e-6
        start = GammaParams(1.0, 1.0)
        ll = _weighted_ll(
            lambda v, x: scipy.stats.gamma(a=v[0], scale=v[1]).logpdf(x), x, g)
        bounds = [(1e-3, 100)] * 2
    elif kind == "beta":
        x = np.clip(rng.beta(2.0, 5.0, size=300), 1e-6, 1 - 1e-6)
        start = BetaParams(1.0, 1.0)
        ll = _weighted_ll(
            lambda v, x: scipy.stats.beta(v[0], v[1]).logpdf(x), x, g)
        bounds = [(1e-3, 100)] * 2
    elif kind == "von_mises":
        x = rng.vonmises(0.8, 3.0, size=300)
        start = VonMisesParams(0.0, 1.0)
        ll = _weighted_ll(
            lambda v, x: scipy.stats.vonmises(kappa=v[1], loc=v[0]).logpdf(x),
            x, g)
        bounds = [(-np.pi, np.pi), (1e-3, 100)]
    else:
        xv = rng.gamma(2.5, 1.0 / 1.5, size=300) + 1e-6
        x = np.column_stack([xv, rng.gamma(1.8, 1.0 / xv) + 1e-6])
        start = BivariateGammaParams(1.0, 1.0, 1.0)
        ll = _weighted_ll(
            lambda v, x: _direct_log_pdf(BivariateGammaParams(*v), x), x, g)
        bounds = [(1e-3, 100)] * 3

    fitted = m_step_params(x, g, start)
    achieved = ll([getattr(fitted, f) for f in vars(fitted)])
    oracle = scipy.optimize.differential_evolution(
        lambda v: -ll(v), bounds, seed=0, tol=1e-10, polish=True)
    assert achieved >= -oracle.fun - 1e-4 * (1 + abs(oracle.fun))


def test_m_step_gaussian_closed_form():
    rng = np.random.default_rng(14)
    x = rng.normal(2.0, 3.0, size=(500, 1))
    g = np.ones(500)
    p = m_step_params(x, g, GaussianParams(np.zeros(1), np.eye(1)))
    assert p.mean[0] == pytest.approx(x.mean(), abs=1e-12)
    assert p.cov[0, 0] == pytest.approx(x.var(), rel=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_m_step_gaussian_point_mass_is_floored(d):
    # Every responsibility on one point: the covariance is the floor, a
    # fraction of the mean variance of all the samples.
    rng = np.random.default_rng(37)
    x = rng.normal(280.0, 3.0, size=(100, d))
    x[:50] = x[0]
    g = np.r_[np.ones(50), np.zeros(50)]
    p = m_step_params(x, g, GaussianParams(np.zeros(d), np.eye(d)))
    floor = mixtures.COV_FLOOR_FRACTION * max(x.var(axis=0).mean(), 1.0)
    np.testing.assert_allclose(p.mean, x[0], rtol=1e-12)
    np.testing.assert_allclose(p.cov, floor * np.eye(d), rtol=1e-9,
                               atol=1e-9 * floor)


def _m_step_case(kind, rng, n=400):
    if kind == "gamma":
        x = rng.gamma(rng.uniform(0.5, 20), rng.uniform(0.1, 5), n) + 1e-9
        return x, GammaParams(1.0, 1.0)
    if kind == "beta":
        x = np.clip(rng.beta(rng.uniform(0.3, 50), rng.uniform(0.3, 50), n),
                    1e-9, 1 - 1e-9)
        return x, BetaParams(1.0, 1.0)
    if kind == "von_mises":
        return (rng.vonmises(rng.uniform(-3, 3), rng.uniform(0.1, 200), n),
                VonMisesParams(0.0, 1.0))
    xv = rng.gamma(rng.uniform(0.5, 10), rng.uniform(0.2, 3), n) + 1e-9
    x = np.column_stack([xv, rng.gamma(rng.uniform(0.5, 10), 1.0 / xv) + 1e-9])
    return x, BivariateGammaParams(1.0, 1.0, 1.0)


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma"])
def test_exact_m_step_is_stationary(kind):
    # The weighted mean score vanishes at the M-step's output.
    rng = np.random.default_rng(32)
    for _ in range(20):
        x, start = _m_step_case(kind, rng)
        g = rng.uniform(0.0, 1.0, size=x.shape[0])
        fitted = m_step_params(x, g, start)
        score = g @ log_pdf_gradient(fitted, x) / g.sum()
        v = np.array([getattr(fitted, f) for f in vars(fitted)])
        # In units of each parameter's own size; mu is an angle.
        scaled = score * np.where(v > 0, np.abs(v), 1.0)
        np.testing.assert_allclose(scaled, 0.0, atol=1e-9)


def test_m_step_von_mises_point_mass_is_clamped_not_stationary():
    x = np.full(50, -1.2)
    fitted = m_step_params(x, np.ones(50), VonMisesParams(0.0, 1.0))
    assert fitted.kappa == PARAM_CEIL
    score = log_pdf_gradient(fitted, x).mean(axis=0)
    assert score[0] == pytest.approx(0.0, abs=1e-6)
    assert score[1] > 0  # the likelihood still rises past the ceiling


def test_m_step_keeps_a_warm_start_it_cannot_beat():
    # The ceiling holds the M-step's kappa under a point mass's optimum, so
    # a warm start past the ceiling has the higher objective and is kept.
    x = np.full(50, -1.2)
    start = VonMisesParams(-1.2, 4.0 * PARAM_CEIL)
    assert m_step_params(x, np.ones(50), start) is start


@pytest.mark.parametrize("x", [[0.25, 0.25], [0.25, 0.25 + 1e-7], [0.9, 0.9]])
def test_m_step_beta_point_mass_is_clamped_along_its_mean(x):
    # The optimum of a point mass is past the ceiling. Both shapes scale
    # together, so the clamped beta keeps the mean, and its objective beats
    # a neutral start; so does a warm step whose Newton step passes the
    # ceiling.
    x = np.array(x)
    mean = float(x.mean())
    family = mixtures._family("beta", x)
    s = family.statistic(x).mean(axis=0).tolist()
    start = BetaParams(1.0, 1.0)
    warm = BetaParams(8e5 * mean, 8e5 * (1.0 - mean))
    for before, got in (
            (start, m_step_params(x, np.ones(2), start)),
            (warm, mixtures._em_m_step(family, s,
                                       (warm, *family.natural(warm)))[0])):
        assert max(got.alpha, got.beta) == PARAM_CEIL
        assert got.alpha / (got.alpha + got.beta) == pytest.approx(mean,
                                                                  abs=1e-6)
        assert (mixtures._mean_log_density(s, *family.natural(got))
                > mixtures._mean_log_density(s, *family.natural(before)))


@st.composite
def _m_step_params_case(draw, kind):
    """(samples, weights, params) of one family, params anywhere in its
    domain."""
    n = draw(st.integers(2, 12))
    shape = _log_uniform(0.05, 500.0)
    if kind == "gamma":
        xs = _log_uniform(1e-3, 1e3)
        params = GammaParams(draw(shape), draw(shape))
    elif kind == "beta":
        xs = st.floats(1e-4, 1.0 - 1e-4)
        params = BetaParams(draw(shape), draw(shape))
    elif kind == "von_mises":
        xs = st.floats(-math.pi, math.pi)
        params = VonMisesParams(draw(st.floats(-math.pi, math.pi)),
                                draw(_log_uniform(1e-3, 1e4)))
    elif kind == "bivariate_gamma":
        xs = st.tuples(_log_uniform(1e-2, 1e2), _log_uniform(1e-2, 1e2))
        params = BivariateGammaParams(draw(shape), draw(shape), draw(shape))
    else:
        d = draw(st.integers(1, 2))
        xs = st.tuples(*[st.floats(-50.0, 50.0)] * d)
        params = GaussianParams(
            np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=d,
                                   max_size=d))),
            np.diag(draw(st.lists(_log_uniform(1e-3, 1e3), min_size=d,
                                  max_size=d))))
    x = np.array(draw(st.lists(xs, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return x, g, params


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma", "gaussian"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_m_step_params_never_lowers_the_objective(kind, data):
    # The exact M-step is guarded only by keeping ``params`` where the new
    # point would be worse on s @ eta - A.
    x, g, params = data.draw(_m_step_params_case(kind))
    family = mixtures._family(kind, x)
    s = ((g @ family.statistic(x)) / g.sum()).tolist()
    new = m_step_params(x, g, params)
    assert (mixtures._mean_log_density(s, *family.natural(new))
            >= mixtures._mean_log_density(s, *family.natural(params)))


# ---------------------------------------------------------------------------
# EM's warm M-step: one guarded Newton step for beta, the guarded exact
# M-step for von Mises

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _warm_case(draw, kind):
    """(family, weighted mean statistic, samples, weights, warm triple)."""
    n = draw(st.integers(2, 12))
    if kind == "beta":
        xs = st.floats(1e-4, 1.0 - 1e-4)
        warm = BetaParams(draw(_log_uniform(0.05, 500.0)),
                          draw(_log_uniform(0.05, 500.0)))
    else:
        xs = st.floats(-math.pi, math.pi)
        warm = VonMisesParams(draw(st.floats(-math.pi, math.pi)),
                              draw(_log_uniform(1e-3, 1e4)))
    x = np.array(draw(st.lists(xs, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    family = mixtures._family(kind, x)
    s = ((g @ family.statistic(x)) / g.sum()).tolist()
    return family, s, x, g, (warm, *family.natural(warm))


def _assert_in_domain(p):
    if p.kind == "beta":
        assert MIN_ARG <= p.alpha <= PARAM_CEIL
        assert MIN_ARG <= p.beta <= PARAM_CEIL
    else:
        assert -math.pi <= p.mu <= math.pi
        assert MIN_ARG <= p.kappa <= PARAM_CEIL


@pytest.mark.parametrize("kind", ["beta", "von_mises"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_warm_step_never_lowers_the_objective(kind, data):
    family, s, _, _, warm = data.draw(_warm_case(kind))
    new = mixtures._em_m_step(family, s, warm)
    _assert_in_domain(new[0])
    # The triple is the new parameters' natural form, as built from them.
    eta, a = family.natural(new[0])
    assert list(new[1]) == list(eta) and new[2] == a
    assert (mixtures._mean_log_density(s, *new[1:])
            >= mixtures._mean_log_density(s, *warm[1:]))


# m_step_params is exact to rounding, not to the last bit. The beta Newton
# takes its last step unchecked once the gain it predicts is under
# BETA_GAIN_RTOL, which leaves up to about 5e-12 relative in the shapes
# against a 40-digit root where the beta is not concentrated. The von Mises
# warm M-step is the exact one, so it is fixed to the last bit. A warm step
# that is not fixed at the optimum moves the parameters far more.
FIXED_POINT_RTOL = 1e-10


def _beta_fixed_point_rtol(p, s):
    """The relative error in the shapes of a beta optimum that double
    precision can resolve, or FIXED_POINT_RTOL where that is larger.

    Both solvers stop at a root of the gradient g_i = s_i - psi(theta_i) +
    psi(n), n = a + b, as computed in double precision. Its terms each round
    by about an ulp, so g_i is off by about e_i = eps (|s_i| + |psi(theta_i)|
    + |psi(n)|), and to first order the root moves by (-H)^-1 e, with the
    trigamma Hessian -H = [[psi1(a) - psi1(n), -psi1(n)], [-psi1(n),
    psi1(b) - psi1(n)]]. As a and b grow, -H tends to singular along
    (a, b), where its curvature a^2 psi1(a) + b^2 psi1(b) - n^2 psi1(n)
    tends to 1/2, so a concentrated optimum is resolved only to about
    2 (a e_0 + b e_1) relative: 6e-10 at shapes (16546, 45533), where the
    exact and the warm shapes lie 3.0e-10 and 1.4e-10 from a 40-digit root.
    The exact M-step and the warm step each land within that of the root,
    so they can differ by twice it.
    """
    a, b = p.alpha, p.beta
    n = a + b
    tn = trigamma(n)
    h_inv = np.linalg.inv([[trigamma(a) - tn, -tn], [-tn, trigamma(b) - tn]])
    err = np.finfo(float).eps * np.array(
        [abs(s[0]) + abs(digamma(a)) + abs(digamma(n)),
         abs(s[1]) + abs(digamma(b)) + abs(digamma(n))])
    shift = np.abs(h_inv) @ err / [a, b]
    return max(FIXED_POINT_RTOL, 2.0 * float(shift.max()))


def _assert_fixed_at_the_exact_optimum(kind, x, g):
    family = mixtures._family(kind, x)
    s = ((g @ family.statistic(x)) / g.sum()).tolist()
    exact = m_step_params(x, g, _STARTS[kind])
    got = mixtures._em_m_step(family, s, (exact, *family.natural(exact)))[0]
    rtol = (_beta_fixed_point_rtol(exact, s) if kind == "beta"
            else FIXED_POINT_RTOL)
    for field in vars(exact):
        assert getattr(got, field) == pytest.approx(getattr(exact, field),
                                                    rel=rtol, abs=1e-300)


@pytest.mark.parametrize("kind", ["beta", "von_mises"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_warm_step_is_fixed_at_the_exact_optimum(kind, data):
    _, _, x, g, _ = data.draw(_warm_case(kind))
    # Samples all but equal have their optimum past the parameter ceiling.
    assume(np.ptp(x) > 0.01)
    _assert_fixed_at_the_exact_optimum(kind, x, g)


@pytest.mark.parametrize("x, g", [
    # Shapes near (16546, 45533): the warm step moves them by 4.4e-10.
    ([0.266025248866769, 0.2673392222421123, 0.2553841679503113,
      0.267205568074604],
     [0.5651595874100863, 0.3651547156973956, 0.03230500069207744,
      0.5342192278081739]),
    # Shapes near (122592, 133260): the warm step moves them by 9.1e-10.
    ([0.4871729507701966, 0.4798595189722663, 0.47788482883885713,
      0.4792517197715457, 0.47825463476588526, 0.47969194483170396,
      0.4795568391796051, 0.4807334344133155, 0.4761417548773411],
     [0.01470772614443706, 0.5725496947383794, 0.2878326485604957,
      0.8213259741090445, 0.6639969831360338, 0.2687239348985245,
      0.6887142719315412, 0.1081012461906406, 0.07948723106250355]),
])
def test_beta_warm_step_is_fixed_at_a_concentrated_optimum(x, g):
    # Samples 0.01 to 0.1 apart, which the property test above admits, can
    # have an optimum so concentrated that double precision resolves its
    # shapes only to a few 1e-10 relative.
    _assert_fixed_at_the_exact_optimum("beta", np.array(x), np.array(g))


@pytest.mark.parametrize("kappa", [2.418, 0.5])
def test_von_mises_warm_step_takes_the_exact_kappa_past_the_root(kappa):
    # At R = 0.476 the root is near kappa = 1.08. From kappa = 2.418, right
    # of it, one Newton step would overshoot to about 0.013, where
    # s @ eta - A is lower; from 0.5, left of it, one step would stop short
    # at about 1.012. The warm M-step takes the exact root from either side.
    family = mixtures._family("von_mises", np.zeros(1))
    s = [0.476, 0.0]
    warm = VonMisesParams(0.0, kappa)
    triple = (warm, *family.natural(warm))
    new = mixtures._em_m_step(family, s, triple)
    assert (mixtures._mean_log_density(s, *new[1:])
            > mixtures._mean_log_density(s, *triple[1:]))
    assert new[0].kappa == mixtures._von_mises_kappa(0.476)


@pytest.mark.parametrize("kappa", [1e7, 1e9, 1e300])
def test_von_mises_warm_step_takes_a_warm_kappa_past_the_ceiling(kappa):
    # An extrapolated natural parameter can rebuild a kappa of any size;
    # past about 1e8, A'(kappa) rounds to 0 and an unclamped step divides
    # by it.
    family = mixtures._family("von_mises", np.zeros(1))
    s = [0.3, 0.4]
    warm = VonMisesParams(0.5, kappa)
    triple = (warm, *family.natural(warm))
    new = mixtures._em_m_step(family, s, triple)
    _assert_in_domain(new[0])
    assert (mixtures._mean_log_density(s, *new[1:])
            > mixtures._mean_log_density(s, *triple[1:]))


def test_warm_beta_m_step_evaluates_the_trigammas_once(monkeypatch):
    # Generalized EM: each warm beta M-step inside _run_em takes one Newton
    # step, so it evaluates zeta(2, [a, b, a + b]) once.
    zetas, per_step = [], []
    real_zeta, real_step = mixtures._zeta, mixtures._beta_warm_step

    def zeta(*args):
        zetas.append(args)
        return real_zeta(*args)

    def warm_step(s, warm):
        before = len(zetas)
        out = real_step(s, warm)
        per_step.append(len(zetas) - before)
        return out

    monkeypatch.setattr(mixtures, "_zeta", zeta)
    monkeypatch.setitem(mixtures._FAMILIES, "beta", dataclasses.replace(
        mixtures._FAMILIES["beta"], warm_step=warm_step))
    spec = MixtureSpec(n_clusters=2, components=(("x", "beta"),),
                       dirichlet_alpha=(1.0, 1.0))
    fit(_reference_case("beta", np.random.default_rng(41)), spec)
    assert len(per_step) > 10 and set(per_step) == {1}


def test_one_cluster_fit_runs_em_once(monkeypatch):
    calls = []
    run_em = mixtures._run_em

    def counted(*args):
        calls.append(args[1].n_clusters)
        return run_em(*args)

    monkeypatch.setattr(mixtures, "_run_em", counted)
    x = np.random.default_rng(33).gamma(2, 1, 200) + 1e-6
    for l in (1, 2):
        spec = MixtureSpec(n_clusters=l, components=(("x", "gamma"),),
                           dirichlet_alpha=(1.0,) * l)
        f = fit({"x": x}, spec)
    assert calls == [1, 2]
    assert f.spec.n_clusters == 2


def test_m_step_von_mises_point_mass_hits_ceiling():
    # A point mass on the circle drives kappa to infinity; the ceiling
    # keeps it finite without error.
    x = np.full(100, 0.4)
    p = m_step_params(x, np.ones(100), VonMisesParams(0.0, 1.0))
    assert np.isfinite(p.kappa)
    assert p.kappa <= PARAM_CEIL
    assert p.mu == pytest.approx(0.4, abs=1e-3)


def test_m_step_rejects_empty_cluster():
    from cloudlayers.mixtures import _EmptyClusterError
    with pytest.raises(_EmptyClusterError):
        m_step_params(np.ones(10), np.zeros(10), GammaParams(1.0, 1.0))


# ---------------------------------------------------------------------------
# Full EM fits


def _two_gaussian_features(rng, n=600):
    z = rng.random(n) < 0.5
    x = np.where(z, rng.normal(0.0, 1.0, n), rng.normal(10.0, 1.0, n))
    return {"x": x}


def test_fit_recovers_separated_gaussians():
    rng = np.random.default_rng(15)
    feats = _two_gaussian_features(rng)
    spec = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    f = fit(feats, spec)
    means = sorted(p[0].mean[0] for p in f.params)
    assert means[0] == pytest.approx(0.0, abs=0.3)
    assert means[1] == pytest.approx(10.0, abs=0.3)
    np.testing.assert_allclose(f.weights.sum(), 1.0, atol=1e-12)


def test_fit_ll_trace_is_monotone():
    rng = np.random.default_rng(16)
    feats = {"x": np.clip(rng.beta(2, 5, 400), 1e-6, 1 - 1e-6)}
    spec = MixtureSpec(n_clusters=2, components=(("x", "beta"),),
                       dirichlet_alpha=(1.0, 1.0))
    f = fit(feats, spec)
    ll = np.asarray(f.ll_trace)
    assert len(ll) == len(f.q_trace) > 2
    assert np.all(np.diff(ll) >= -1e-9 * (1 + np.abs(ll[:-1])))
    assert f.q == f.q_trace[-1]


def test_fit_is_deterministic():
    rng = np.random.default_rng(17)
    feats = _two_gaussian_features(rng, n=200)
    spec = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    a = fit(feats, spec)
    b = fit(feats, spec)
    np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
    assert a.q == b.q


def test_fit_informative_prior_pulls_weights_together():
    rng = np.random.default_rng(18)
    z = rng.random(500) < 0.9
    x = np.where(z, rng.normal(0, 1, 500), rng.normal(10, 1, 500))
    flat = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    strong = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                         dirichlet_alpha=(200.0, 200.0))
    wf = np.sort(fit({"x": x}, flat).weights)
    ws = np.sort(fit({"x": x}, strong).weights)
    assert ws[0] > wf[0]  # prior shrinks weights toward 1/2


def test_fit_errors():
    spec = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    with pytest.raises(FitError):
        fit({"x": np.array([1.0])}, spec)


@pytest.mark.parametrize("kind", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma", "gaussian_1d",
                                  "gaussian_2d"])
@pytest.mark.parametrize("n_clusters", [1, 2])
def test_non_finite_feature_fails_at_the_fit_boundary(kind, n_clusters):
    # A non-finite value would give a NaN Q, or an error outside the frame
    # data errors, so the fit rejects it before computing any statistic.
    _, x = _form_case(kind, np.random.default_rng(39))
    family = "gaussian" if kind.startswith("gaussian") else kind
    spec = MixtureSpec(n_clusters=n_clusters,
                       components=(("ok", "gamma"), ("bad", family)),
                       dirichlet_alpha=(1.0,) * n_clusters)
    for value in (np.nan, np.inf, -np.inf):
        bad = x.copy()
        bad.flat[bad.size - 1] = value
        feats = {"ok": np.linspace(0.5, 3.0, x.shape[0]), "bad": bad}
        with pytest.raises(SupportError,
                           match="feature 'bad' holds non-finite values"):
            fit(feats, spec)


@pytest.mark.parametrize("kind, big", [
    ("gaussian", [1e200]),               # centred square overflows
    ("gaussian", [1e154, -1e154] * 40),  # every square finite, their sum not
    ("bivariate_gamma", [[1e200, 1e200]]),  # x y overflows
], ids=["gaussian-square", "gaussian-sum", "bivariate_gamma"])
def test_overflowing_statistic_fails_at_the_fit_boundary(kind, big):
    # Finite values whose statistic overflows would give NaN moments, or a
    # RuntimeWarning first; the fit rejects them before anything can warn.
    x = np.linspace(1.0, 3.0, 100)
    if kind == "bivariate_gamma":
        x = np.column_stack([x, x[::-1]])
    x = np.concatenate([x, big])
    spec = MixtureSpec(n_clusters=2, components=(("x", kind),),
                       dirichlet_alpha=(1.0, 1.0))
    with pytest.raises(SupportError, match="'x' overflows its statistic"):
        fit({"x": x}, spec)


@pytest.mark.parametrize("n_clusters", [1, 2])
def test_an_overflowing_statistic_names_its_feature(n_clusters):
    # The check reads the sums of every feature's statistic at once; the
    # feature named is the one whose sums overflow, not the first.
    x = np.linspace(1.0, 3.0, 101)
    big = np.concatenate([x[:-1], [1e200]])
    spec = MixtureSpec(n_clusters=n_clusters,
                       components=(("ok", "gaussian"), ("big", "gaussian"),
                                   ("also_ok", "gamma")),
                       dirichlet_alpha=(1.0,) * n_clusters)
    feats = {"ok": x, "big": big, "also_ok": x}
    with pytest.raises(SupportError,
                       match="^feature 'big' overflows its statistic$"):
        fit(feats, spec)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(n_clusters=3, components=(("x", "gamma"),),
                    dirichlet_alpha=(1.0,) * 3)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="Dirichlet"):
            MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                        dirichlet_alpha=(bad, 1.0))
    with pytest.raises(ValueError):
        MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                    dirichlet_alpha=(1.0,))
    with pytest.raises(ValueError, match="one Dirichlet alpha per cluster"):
        MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                    dirichlet_alpha=1.0)


def test_mixture_spec_rejects_alphas_whose_sum_overflows():
    # The MAP weights divide by the sum; an infinite one makes them NaN.
    with pytest.raises(ValueError, match="finite sum"):
        MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                    dirichlet_alpha=(1e308, 1e308))


def test_factorized_log_density_is_additive():
    rng = np.random.default_rng(19)
    x = rng.gamma(2, 1, 100) + 1e-6
    phi = rng.vonmises(0, 1, 100)
    joint = MixtureSpec(n_clusters=1,
                        components=(("x", "gamma"), ("phi", "von_mises")),
                        dirichlet_alpha=(1.0,))
    f = fit({"x": x, "phi": phi}, joint)
    parts = (log_pdf(f.params[0][0], x) + log_pdf(f.params[0][1], phi))
    np.testing.assert_allclose(f.log_dens[:, 0], parts, rtol=1e-12)


def test_resolve_labels_orders_by_temperature():
    rng = np.random.default_rng(20)
    feats = _two_gaussian_features(rng, n=300)
    spec = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    f = fit(feats, spec)
    means = np.array([p[0].mean[0] for p in f.params])
    resolved = resolve_labels(f, means)
    m2 = np.array([p[0].mean[0] for p in resolved.params])
    assert m2[0] > m2[1]
    # Idempotent and Q-preserving.
    again = resolve_labels(resolved, m2)
    assert again.q == resolved.q == f.q
    np.testing.assert_array_equal(again.responsibilities,
                                  resolved.responsibilities)
    np.testing.assert_allclose(resolved.responsibilities.sum(axis=1), 1.0,
                               atol=1e-12)


# Neutral warm starts: the reference takes its initial parameters from
# m_step_params, which keeps its start only where the new point is worse.
# A Gaussian start has its data's dimension.
_STARTS = {
    "gamma": GammaParams(1.0, 1.0),
    "beta": BetaParams(1.0, 1.0),
    "von_mises": VonMisesParams(0.0, 1.0),
    "bivariate_gamma": BivariateGammaParams(1.0, 1.0, 1.0),
}


def _start(kind, x):
    if kind == "gaussian":
        d = mixtures._as_columns(x).shape[1]
        return GaussianParams(np.zeros(d), np.eye(d))
    return _STARTS[kind]


def _log_posterior(log_dens, pi, alpha):
    """The observed-data MAP objective, written out with logsumexp."""
    return (float(logsumexp(log_dens + np.log(pi), axis=1).sum())
            + log_dirichlet_prior(np.log(pi), alpha))


def _warm_m_step_params(x, gamma_l, params):
    """The EM loop's warm M-step from ``params`` at the gamma-weighted mean
    of T(x): one guarded Newton step for beta, else exact."""
    g = np.asarray(gamma_l, float)
    family = mixtures._family(params.kind, x)
    s = ((g @ family.statistic(x)) / g.sum()).tolist()
    return mixtures._em_m_step(family, s, (params, *family.natural(params)))[0]


def _plain_em(xs, kinds, spec, gamma, steps=None, m_step=m_step_params):
    """Plain MAP-EM from the public steps, one cluster and component at a
    time: log_pdf, e_step, m_step_weights and m_step_params, with ``m_step``
    in place of the latter from the second M-step on. Runs ``steps``
    E-steps, or without a count stops when an E-step finds the objective
    gained less than the fit's tolerance. Returns (objective trace, Q
    trace)."""
    n, ncl, alpha = xs[0].shape[0], spec.n_clusters, spec.dirichlet_alpha
    params = [[m_step_params(x, gamma[:, l], _start(k, x))
               for x, k in zip(xs, kinds)] for l in range(ncl)]
    pi = m_step_weights(gamma.sum(axis=0), alpha, n)
    ll_trace, q_trace = [], []
    for _ in range(steps or mixtures.MAX_OUTER_ITERS):
        log_dens = np.column_stack([
            sum(log_pdf(p, x) for p, x in zip(params[l], xs))
            for l in range(ncl)])
        gamma, _ = _e_step(log_dens, pi)
        ll = _log_posterior(log_dens, pi, alpha)
        ll_trace.append(ll)
        q_trace.append(cdll(log_dens, gamma, pi, alpha))
        if (steps is None and len(ll_trace) > 1 and ll - ll_trace[-2]
                < mixtures.Q_REL_TOL * (1 + abs(ll))):
            break
        pi = m_step_weights(gamma.sum(axis=0), alpha, n)
        params = [[m_step(x, gamma[:, l], params[l][c])
                   for c, x in enumerate(xs)] for l in range(ncl)]
    return ll_trace, q_trace


def _columns(features, spec):
    return ([np.asarray(features[f], float) for f, _ in spec.components],
            [k for _, k in spec.components])


def _fit_objective(f, features):
    """A fit's objective at its parameters, from log_pdf and logsumexp."""
    xs, _ = _columns(features, f.spec)
    log_dens = np.column_stack([sum(log_pdf(p, x) for p, x in zip(row, xs))
                                for row in f.params])
    return _log_posterior(log_dens, f.weights, f.spec.dirichlet_alpha)


def _reference_case(name, rng, n=300):
    z = rng.random(n) < 0.4
    if name == "gamma":
        return {"x": np.where(z, rng.gamma(2, 1, n), rng.gamma(9, 1, n))}
    if name == "beta":
        return {"x": np.clip(np.where(z, rng.beta(2, 8, n), rng.beta(7, 3, n)),
                             1e-6, 1 - 1e-6)}
    if name == "von_mises":
        return {"x": np.where(z, rng.vonmises(-1.5, 4, n),
                              rng.vonmises(1.0, 2, n))}
    if name == "bivariate_gamma":
        xv = np.where(z, rng.gamma(2, 1, n), rng.gamma(8, 1, n))
        return {"x": np.column_stack([xv, rng.gamma(1.5, 1.0 / xv)])}
    if name == "gaussian":
        return {"x": np.where(z, rng.normal(0, 1, n), rng.normal(4, 2, n))}
    # Factorized: two exponential families and a 2-D Gaussian.
    feats = _reference_case("beta", rng, n)
    feats["phi"] = _reference_case("von_mises", rng, n)["x"]
    feats["uv"] = rng.normal(size=(n, 2)) + np.where(z, 3.0, 0.0)[:, None]
    return feats


_REFERENCE_SPECS = {
    "factorized": (("x", "beta"), ("phi", "von_mises"), ("uv", "gaussian")),
}


# How far the fit's winning objective may fall below plain EM's, relative
# to its size. Both stop once a gain falls under Q_REL_TOL relative, and
# plain EM creeps, so it stops at least as far from its limit.
REFERENCE_REL_TOL = 1e-4


_REFERENCE_NAMES = ["gamma", "beta", "von_mises", "bivariate_gamma",
                    "gaussian", "factorized"]


def _reference_cases(name, n_clusters):
    """(features, spec) of ``name``'s three reference cases, with Dirichlet
    alphas 1, 2 and 3."""
    rng = np.random.default_rng(34)
    comps = _REFERENCE_SPECS.get(name, (("x", name),))
    for a in (1.0, 2.0, 3.0):
        yield _reference_case(name, rng), MixtureSpec(
            n_clusters=n_clusters, components=comps,
            dirichlet_alpha=(a,) * n_clusters)


def _assert_run_matches_plain_reference_em(f, feats, gamma):
    """The run ``f`` from ``gamma``: its l trace rises, its last l is its
    objective, and that is no lower than plain EM's from ``gamma``."""
    ll = np.asarray(f.ll_trace)
    assert np.all(np.diff(ll) >= -1e-9 * (1 + np.abs(ll[:-1])))
    # The recorded objective is the fit's own, Dirichlet term included.
    objective = _fit_objective(f, feats)
    assert ll[-1] == pytest.approx(objective, rel=1e-9)
    reference = _plain_em(*_columns(feats, f.spec), f.spec, gamma)[0][-1]
    assert objective >= reference - REFERENCE_REL_TOL * (1 + abs(reference))


@pytest.mark.parametrize("name", _REFERENCE_NAMES)
@pytest.mark.parametrize("n_clusters", [1, 2])
def test_fit_matches_plain_reference_em(name, n_clusters):
    # Every run, from the split start and from two random ones, against
    # plain EM from the same responsibilities.
    runs = 0
    for seed, (feats, spec) in enumerate(_reference_cases(name, n_clusters)):
        data = mixtures._component_data(feats, spec)
        for gamma in em_starts(data, n_clusters, (2 * seed, 2 * seed + 1)):
            try:
                f = mixtures._run_em(data, spec, gamma)
            except mixtures._EmptyClusterError:
                continue
            _assert_run_matches_plain_reference_em(f, feats, gamma)
            runs += 1
    assert runs >= (3 if n_clusters == 1 else 6)


@pytest.mark.parametrize("name", _REFERENCE_NAMES)
def test_one_start_fit_matches_plain_reference_em(name):
    # fit itself, from the split start on both sides.
    for feats, spec in _reference_cases(name, 2):
        data = mixtures._component_data(feats, spec)
        _assert_run_matches_plain_reference_em(
            fit(feats, spec), feats, mixtures._initial_gamma(data, 2))


@pytest.mark.parametrize("name", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma", "gaussian_2d",
                                  "factorized"])
@pytest.mark.parametrize("n_clusters", [1, 2])
def test_state_round_trips_through_its_natural_form(name, n_clusters):
    # _state maps a SQUAREM vector back through each family's from_natural
    # and natural; at an M-step's own vector it must rebuild that state.
    rng = np.random.default_rng(40)
    if name == "gaussian_2d":
        z = rng.random(300) < 0.4
        feats = {"x": rng.normal(size=(300, 2)) * [1.0, 3.0]
                 + np.where(z, 4.0, 0.0)[:, None]}
    else:
        feats = _reference_case(name, rng)
    comps = _REFERENCE_SPECS.get(name, (("x", name.removesuffix("_2d")),))
    spec = MixtureSpec(n_clusters=n_clusters, components=comps,
                       dirichlet_alpha=(1.0,) * n_clusters)
    data = mixtures._component_data(feats, spec)
    n = data.stats.shape[1]
    sums = data.stats @ mixtures._initial_gamma(data, n_clusters)
    cold = [[None] * len(comps)] * n_clusters
    state = mixtures._m_step(data, sums, cold, sums[-1] / n)
    rebuilt = mixtures._state(data, mixtures._vector(state), n_clusters)
    assert rebuilt is not None
    np.testing.assert_allclose(rebuilt.coef, state.coef, rtol=1e-9)
    np.testing.assert_allclose(rebuilt.pi, state.pi, rtol=1e-9)


@pytest.mark.parametrize("name", ["gamma", "beta", "von_mises",
                                  "bivariate_gamma", "gaussian",
                                  "bivariate_gamma+von_mises"])
def test_statistics_block_is_row_major(name):
    # Each pass of an EM iteration runs along the rows of the block.
    rng = np.random.default_rng(41)
    if name == "bivariate_gamma+von_mises":
        feats = _reference_case("bivariate_gamma", rng)
        feats["phi"] = _reference_case("von_mises", rng)["x"]
        comps = (("x", "bivariate_gamma"), ("phi", "von_mises"))
    else:
        feats = _reference_case(name, rng)
        comps = (("x", name),)
    spec = MixtureSpec(n_clusters=2, components=comps,
                       dirichlet_alpha=(1.0, 1.0))
    data = mixtures._component_data(feats, spec)
    assert data.stats.flags.c_contiguous
    assert data.totals.tobytes() == data.stats.sum(axis=1).tobytes()
    assert np.all(data.stats[-1] == 1.0)


def test_one_start_fit_builds_no_generator(monkeypatch):
    rng = np.random.default_rng(42)
    feats = _reference_case("factorized", rng)
    spec = MixtureSpec(n_clusters=2, components=_REFERENCE_SPECS["factorized"],
                       dirichlet_alpha=(1.0, 1.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a one-start fit drew a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    assert fit(feats, spec).converged


def _fallback_case(monkeypatch, name, edit):
    """Fit ``name``'s reference case with every extrapolated vector passed
    through ``edit`` first. Returns the fit, plain EM's objective trace over
    twice the fit's trace, with the fit's warm M-steps, and the states
    _state built."""
    feats = _reference_case(name, np.random.default_rng(38))
    spec = MixtureSpec(n_clusters=2, components=(("x", name),),
                       dirichlet_alpha=(1.0, 1.0))
    real, built = mixtures._state, []

    def edited(data, theta, n_clusters):
        theta = theta.copy()
        edit(theta)
        built.append(real(data, theta, n_clusters))
        return built[-1]

    monkeypatch.setattr(mixtures, "_state", edited)
    f = fit(feats, spec)
    xs, kinds = _columns(feats, spec)
    gamma = mixtures._initial_gamma(mixtures._component_data(feats, spec), 2)
    ll_trace, _ = _plain_em(xs, kinds, spec, gamma, steps=2 * len(f.ll_trace),
                            m_step=_warm_m_step_params)
    return f, ll_trace, built


def _assert_fell_back_to_theta2(f, ll_trace):
    # Every cycle restarted at theta2: its starts are plain EM's even steps.
    starts = f.ll_trace[:-1]
    assert len(starts) >= 2
    np.testing.assert_allclose(starts, ll_trace[0:2 * len(starts):2],
                               rtol=1e-9)


def _set(i, value):
    def edit(theta):
        theta[i] = value
    return edit


# theta is [logit pi, cluster 0's natural parameters, cluster 1's].
@pytest.mark.parametrize("name, edit", [
    ("beta", _set(1, -1.5)),             # alpha = eta0 + 1 <= 0
    ("gamma", _set(2, 0.1)),             # eta1 = -1 / scale >= 0
    ("bivariate_gamma", _set(2, -1.5)),  # shape a = eta1 + 1 <= 0
    ("gaussian", _set(2, 0.5)),          # precision -2 eta1 not positive
    ("gamma", _set(0, 800.0)),           # a weight of exp(-800)
], ids=["beta", "gamma", "bivariate_gamma", "gaussian", "weights"])
def test_extrapolation_outside_the_domain_falls_back(monkeypatch, name, edit):
    f, ll_trace, built = _fallback_case(monkeypatch, name, edit)
    assert built and all(state is None for state in built)
    _assert_fell_back_to_theta2(f, ll_trace)


def test_extrapolation_that_lowers_the_objective_falls_back(monkeypatch):
    def one_cluster_twice(theta):
        theta[3:5] = theta[1:3]  # cluster 1 takes cluster 0's parameters

    def overflowing_weights(theta):
        # Finite natural parameters whose log-densities overflow: l is -inf
        # or NaN.
        theta[1], theta[3] = 1e308, -1e308

    for name, edit in (("gamma", one_cluster_twice),
                       ("von_mises", overflowing_weights)):
        with monkeypatch.context() as mp:
            f, ll_trace, built = _fallback_case(mp, name, edit)
        assert built and all(state is not None for state in built)
        _assert_fell_back_to_theta2(f, ll_trace)


def test_e_step_log_lik_matches_logsumexp():
    rng = np.random.default_rng(37)
    cases = ((1, (2.0,)), (2, (1.0, 1.0)), (2, (1.5, 4.0)))
    for ncl, _ in cases:
        log_dens = rng.normal(scale=30.0, size=(200, ncl))
        pi = rng.dirichlet(np.ones(ncl))
        _, log_lik = _e_step(log_dens, pi)
        assert log_lik == pytest.approx(
            _log_posterior(log_dens, pi, np.ones(ncl)), rel=1e-12)
    pi = np.array([0.3, 0.7])
    # A row whose exp(-d) overflows, with d < -709.78, adds -d.
    for row in ([0.0, -800.0], [5.0, -1e4], [800.0, 0.0]):
        log_dens = np.array([row, [0.5, -3.0]])
        _, log_lik = _e_step(log_dens, pi)
        np.testing.assert_allclose(log_lik,
                                   _log_posterior(log_dens, pi, (1.0, 1.0)),
                                   rtol=1e-12)
    # A run adds the Dirichlet term: the l it records last is the objective
    # at the log-densities and weights it returns.
    x = rng.gamma(2, 1, 200) + 1e-6
    for ncl, alpha in cases:
        spec = MixtureSpec(n_clusters=ncl, components=(("x", "gamma"),),
                           dirichlet_alpha=alpha)
        f = fit({"x": x}, spec)
        assert f.ll_trace[-1] == pytest.approx(
            _log_posterior(f.log_dens, f.weights, alpha), rel=1e-12)


def test_iteration_cap_stop(monkeypatch):
    # The cap counts map evaluations, each one e_step call.
    calls = []
    real = mixtures.e_step
    monkeypatch.setattr(mixtures, "e_step",
                        lambda *args: calls.append(1) or real(*args))
    x = np.random.default_rng(35).gamma(2, 1, 200) + 1e-6
    spec = MixtureSpec(n_clusters=1, components=(("x", "gamma"),),
                       dirichlet_alpha=(1.0,))
    f = fit({"x": x}, spec)
    assert (f.stop, f.converged, len(f.q_trace)) == ("tolerance", True, 2)
    assert f.e_steps == len(calls) == 2
    feats = _reference_case("gamma", np.random.default_rng(35))
    spec2 = MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                        dirichlet_alpha=(1.0, 1.0))
    calls.clear()
    f = fit(feats, spec2)
    assert f.stop == "tolerance"
    assert f.e_steps == len(calls) > 9
    monkeypatch.setattr(mixtures, "MAX_OUTER_ITERS", 1)
    f = fit({"x": x}, spec)
    assert (f.stop, f.converged, len(f.q_trace)) == ("cap", False, 1)
    assert f.to_json_dict()["stop"] == "cap"
    spec = spec2
    for cap in (7, 8, 9):
        calls.clear()
        monkeypatch.setattr(mixtures, "MAX_OUTER_ITERS", cap)
        f = fit(feats, spec)
        assert (f.stop, f.converged, len(calls)) == ("cap", False, cap)
        assert f.e_steps == cap
        assert len(f.ll_trace) == len(f.q_trace)


def test_one_population_two_cluster_fit_stops_on_tolerance():
    # Gamma trial 8 of acceptance criterion 2: one population, fitted with
    # two clusters, where unbounded extrapolation ran to the E-step cap.
    rng = np.random.default_rng(7)
    for _ in range(9):
        x = rng.gamma(rng.uniform(1, 4), rng.uniform(0.5, 3), 300) + 1e-9
    spec = MixtureSpec(n_clusters=2, components=(("x", "gamma"),),
                       dirichlet_alpha=(1.0, 1.0))
    # From the split start and from that trial's random start.
    data = mixtures._component_data({"x": x}, spec)
    for gamma in em_starts(data, 2, (8,)):
        f = mixtures._run_em(data, spec, gamma)
        assert (f.stop, f.converged) == ("tolerance", True)
        assert f.e_steps < mixtures.MAX_OUTER_ITERS


def test_squarem_step_length_schedule(monkeypatch):
    """k = max(1, min(|r| / |v|, step_max)), with step_max from STEP_MAX0
    growing by STEP_GROWTH on a kept step at the bound and shrinking by it,
    never under STEP_MAX0, on a rejected one."""
    vectors, built = [], []
    real_vector, real_state = mixtures._vector, mixtures._state

    def vector(state):
        vectors.append(real_vector(state))
        return vectors[-1]

    def state(data, theta, n_clusters):
        built.append((len(vectors), theta, real_state(data, theta, n_clusters)))
        return built[-1][2]

    monkeypatch.setattr(mixtures, "_vector", vector)
    monkeypatch.setattr(mixtures, "_state", state)
    # A two-cluster fit of one population, whose ridge gives long steps.
    x = np.random.default_rng(1).normal(size=300)
    spec = MixtureSpec(n_clusters=2, components=(("x", "gaussian"),),
                       dirichlet_alpha=(1.0, 1.0))
    fit({"x": x}, spec)
    # Each cycle takes the vectors of theta0, theta1 and theta2, in turn.
    cycles = [vectors[i:i + 3] for i in range(0, len(vectors), 3)]
    extrapolated = {at: (theta, ext) for at, theta, ext in built}
    assert 3 not in extrapolated  # the first cycle makes no extrapolation
    step_max, grown, shrunk = mixtures.STEP_MAX0, 0, 0
    # A cycle's outcome shows in the next one's start, so the last has none.
    for i, (t0, t1, t2) in enumerate(cycles[:-1]):
        r, v = t1 - t0, t2 - 2.0 * t1 + t0
        k = max(1.0, min(np.linalg.norm(r) / np.linalg.norm(v), step_max))
        assert (3 * i + 3 in extrapolated) == (k > 1.0)
        if k > 1.0:
            theta, ext = extrapolated[3 * i + 3]
            np.testing.assert_allclose(theta, t0 + 2.0 * k * r + k * k * v,
                                       rtol=1e-12, atol=1e-12)
            # A rejected step restarts at theta2 itself.
            if ext is None or np.array_equal(cycles[i + 1][0], t2):
                if k == step_max:
                    step_max = max(mixtures.STEP_MAX0,
                                   step_max / mixtures.STEP_GROWTH)
                    shrunk += 1
                k = 1.0
        if k == step_max:
            step_max *= mixtures.STEP_GROWTH
            grown += 1
    assert grown > 1 and shrunk > 0


def test_fit_json_dump_round_trips():
    import json
    rng = np.random.default_rng(21)
    feats = {"x": rng.gamma(2, 1, 100) + 1e-6}
    spec = MixtureSpec(n_clusters=1, components=(("x", "gamma"),),
                       dirichlet_alpha=(1.0,))
    f = fit(feats, spec)
    doc = json.loads(json.dumps(f.to_json_dict(), sort_keys=True))
    assert doc["n_clusters"] == 1
    assert doc["params"][0][0]["kind"] == "gamma"
    assert doc["q_trace"][-1] == pytest.approx(f.q)
    assert doc["ll_trace"] == pytest.approx(f.ll_trace)
    assert doc["e_steps"] == f.e_steps == 2

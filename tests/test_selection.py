"""Model-selection metrics and the per-criterion chooser."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers import selection
from cloudlayers.mixtures import (BetaParams, BivariateGammaParams,
                                  GammaParams, GaussianParams, MixtureSpec,
                                  VonMisesParams, fit)
from cloudlayers.pipeline import PipelineConfig, frame_evidence
from cloudlayers.selection import (CRITERIA, MetricReport, entropy,
                                   hard_log_likelihood, metrics, select)
from cloudlayers.synth import LayerSpec, SynthSpec, generate


def _spec(n_clusters, components):
    return MixtureSpec(n_clusters=n_clusters, components=components,
                       dirichlet_alpha=(1.0,) * n_clusters)


def test_parameter_count_enumeration():
    # Gamma, beta and von Mises: 2 parameters each per cluster.
    assert GammaParams(2.0, 1.0).n_params == 2
    assert BetaParams(2.0, 3.0).n_params == 2
    assert VonMisesParams(0.5, 4.0).n_params == 2
    # Bivariate gamma has three parameters.
    assert BivariateGammaParams(2.0, 1.0, 0.5).n_params == 3
    # A scalar Gaussian: 1 mean + 1 variance.
    assert GaussianParams(0.0, 1.0).n_params == 2
    # A 2-D Gaussian: 2 means + 3 covariance entries.
    assert GaussianParams(np.zeros(2), np.eye(2)).n_params == 5


def test_entropy_uniform_rows():
    # Ten rows of (0.5, 0.5): H = 10 * 2 * 0.5 ln 0.5 = -10 ln 2.
    g = np.full((10, 2), 0.5)
    assert entropy(g) == pytest.approx(-10.0 * math.log(2.0), abs=1e-12)
    assert entropy(g) == pytest.approx(-6.931471805599453, abs=1e-12)


def test_entropy_hard_assignment_is_zero():
    g = np.zeros((8, 2))
    g[:, 0] = 1.0
    assert entropy(g) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_entropy_is_nonpositive(seed):
    rng = np.random.default_rng(seed)
    g = rng.dirichlet([1.0, 1.0], size=23)
    assert entropy(g) <= 0.0


def _responsibilities(rng, n, l, kind):
    """(n, l) responsibilities: soft, soft with rows of exact ties, or
    exactly 0 and 1."""
    if kind == "hard":
        return np.eye(l)[rng.integers(0, l, size=n)]
    g = rng.dirichlet(np.ones(l), size=n)
    if kind == "ties":
        g[::3] = 1.0 / l
    return g


_GAMMA_CASES = [(1, "hard"), (2, "soft"), (2, "ties"), (2, "hard"),
                (3, "soft"), (3, "ties"), (3, "hard")]


@pytest.mark.parametrize("l,kind", _GAMMA_CASES)
def test_hard_log_likelihood_is_bitwise_the_argmax_formula(l, kind):
    # Ties go to the lower cluster, as np.argmax sends them.
    rng = np.random.default_rng(21)
    n = 301
    fit_like = SimpleNamespace(
        weights=rng.dirichlet(np.ones(l)),
        responsibilities=_responsibilities(rng, n, l, kind),
        log_dens=rng.normal(scale=50.0, size=(n, l)))
    got = hard_log_likelihood(fit_like)
    ref = oracles.hard_log_likelihood(fit_like.weights,
                                      fit_like.responsibilities,
                                      fit_like.log_dens)
    assert got.hex() == ref.hex()


@pytest.mark.parametrize("l,kind", _GAMMA_CASES)
def test_entropy_is_bitwise_the_masked_formula(l, kind):
    g = _responsibilities(np.random.default_rng(22), 301, l, kind)
    assert entropy(g).hex() == oracles.entropy(g).hex()


def test_entropy_of_one_cluster():
    ones = np.ones((50, 1))
    assert entropy(ones).hex() == oracles.entropy(ones).hex() == "0x0.0p+0"


@pytest.mark.parametrize("n_clusters", [1, 2])
def test_fit_report_is_bitwise_the_reference_formulas(n_clusters):
    f = _fitted(n_clusters)
    r = metrics(f)
    ref_q = oracles.hard_log_likelihood(f.weights, f.responsibilities,
                                        f.log_dens)
    assert r.log_q.hex() == ref_q.hex()
    assert r.entropy.hex() == oracles.entropy(f.responsibilities).hex()


def test_metrics_sums_several_fits_in_argument_order():
    fits = [_fitted(2, seed=s) for s in (0, 1, 2)]
    reports = [metrics(f) for f in fits]
    total = metrics(*fits)
    assert total.n == 400
    names = [f.name for f in dataclasses.fields(MetricReport)]
    for k in (name for name in names if name != "n"):
        value = getattr(reports[0], k)
        for r in reports[1:]:
            value += getattr(r, k)
        assert getattr(total, k) == value, k


def test_bic_hand_value():
    # lambda = 2, n = 100, log Q-hat = -50:
    # BIC = 2 ln 100 + 100 = 109.21034037...
    r = MetricReport(log_q=-50.0, n_params=2, n=100, entropy=0.0,
                     bic=2 * math.log(100) + 100.0,
                     aic=2 * 2 + 100.0,
                     clc=100.0, icl=2 * math.log(100) + 100.0)
    assert r.bic == pytest.approx(109.21034037197618, abs=1e-10)
    assert r.bic - r.aic == pytest.approx(2 * (math.log(100) - 2.0))


def _fitted(n_clusters, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.random(400) < 0.5
    x = np.where(z, rng.normal(0, 1, 400), rng.normal(8, 1, 400))
    return fit({"x": x}, _spec(n_clusters, (("x", "gaussian"),)),
               init_seed=seed)


def test_metrics_internal_consistency():
    f = _fitted(2)
    r = metrics(f)
    lam = r.n_params
    assert lam == 5  # 2 * (1 + 1) + 1
    assert r.n == 400
    assert r.entropy <= 0.0
    assert r.log_q == pytest.approx(hard_log_likelihood(f))
    assert r.bic == pytest.approx(lam * math.log(400) - 2 * r.log_q)
    assert r.aic == pytest.approx(2 * lam - 2 * r.log_q)
    assert r.clc == pytest.approx(2 * abs(r.entropy) - 2 * r.log_q)
    assert r.icl == pytest.approx(r.bic + 2 * abs(r.entropy))


def test_metrics_rejects_fits_of_different_samples():
    f = _fitted(2)
    other = fit({"x": np.arange(1.0, 11.0)},
                _spec(1, (("x", "gaussian"),)), init_seed=0)
    with pytest.raises(ValueError, match="sample counts"):
        metrics(f, other)


def test_hard_log_likelihood_upper_bounds_soft_assignments():
    # Hard assignment drops the assignment uncertainty, so log Q-hat is at
    # least the soft CDLL when the prior term is zero.
    f = _fitted(2, seed=3)
    assert hard_log_likelihood(f) >= f.q - 1e-9


def test_select_on_separated_data():
    reports = [metrics(_fitted(l, seed=1)) for l in (1, 2)]
    for criterion in CRITERIA:
        assert select(reports, criterion) == 2


def test_select_tie_goes_to_smaller_l():
    a = MetricReport(log_q=-5.0, n_params=2, n=10, entropy=0.0,
                     bic=1.0, aic=1.0, clc=1.0, icl=1.0)
    b = MetricReport(log_q=-5.0, n_params=4, n=10, entropy=0.0,
                     bic=1.0, aic=1.0, clc=1.0, icl=1.0)
    for criterion in CRITERIA:
        assert select([a, b], criterion) == 1


def test_select_ml_uses_argmax_log_q():
    a = MetricReport(log_q=-5.0, n_params=2, n=10, entropy=0.0,
                     bic=0.0, aic=0.0, clc=0.0, icl=0.0)
    b = MetricReport(log_q=-2.0, n_params=4, n=10, entropy=0.0,
                     bic=9.0, aic=9.0, clc=9.0, icl=9.0)
    assert select([a, b], "ml") == 2
    assert select([a, b], "bic") == 1


def test_select_rejects_unknown_criterion():
    a = MetricReport(log_q=0, n_params=1, n=1, entropy=0.0,
                     bic=0, aic=0, clc=0, icl=0)
    with pytest.raises(ValueError):
        select([a], "dic")


def test_report_json_dict_is_plain():
    r = MetricReport(log_q=-1.5, n_params=3, n=7, entropy=-0.2,
                     bic=1.0, aic=2.0, clc=3.0, icl=4.0)
    d = r.to_json_dict()
    assert d["n_params"] == 3 and d["log_q"] == -1.5
    assert set(d) == {"log_q", "n_params", "n", "entropy",
                      "bic", "aic", "clc", "icl"}


@pytest.mark.parametrize("model,n_params", [("beta_T+vm_phi", [4, 10]),
                                            ("gauss_T_uv", [7, 16])])
def test_hypothesis_report_sums_its_fits(monkeypatch, model, n_params):
    # The report of a real frame's hypothesis equals the field-by-field sum
    # of its temperature and velocity fits' reports.
    calls = []

    def recording(*fits):
        calls.append(fits)
        return metrics(*fits)

    monkeypatch.setattr(selection, "metrics", recording)
    spec = SynthSpec(frames=2, seed=3,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0)),
                             LayerSpec(base_temp=265.0, velocity=(-1, 1))))
    (prev, prev_mask, _), (cur, cur_mask, _) = generate(spec)[0]
    rec = frame_evidence(prev, prev_mask, cur, cur_mask,
                         PipelineConfig(model=model))
    assert [r.n_params for r in rec.metric_reports] == n_params
    assert len(calls) == len(rec.metric_reports) == 2
    for (tfit, vfit), report in zip(calls, rec.metric_reports):
        tm, vm = metrics(tfit), metrics(vfit)
        assert report.n == tm.n == vm.n
        for k in ("log_q", "n_params", "entropy", "bic", "aic", "clc",
                  "icl"):
            assert getattr(report, k) == getattr(tm, k) + getattr(vm, k), k

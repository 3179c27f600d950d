"""Bayesian model-selection metrics over fitted mixtures.

``metrics`` reports one hypothesis from its fits, whatever their families:
each fit counts its free parameters as L times the ``n_params`` of one
cluster's fitted parameters, plus L - 1 weights, and the report sums the
fits' values. The hard-assignment complete-data log-likelihood log Q-hat
(argmax-gamma assignments) feeds BIC/AIC; the soft EM objective is reported
separately on the fit itself. The mixture entropy H = sum gamma log gamma is
<= 0 by construction; CLC and ICL use its magnitude as the penalty so that
higher assignment uncertainty worsens both criteria. Lower is better for
every criterion except ML (higher log Q-hat wins); ``select`` applies one
criterion to a frame's reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

CRITERIA = ("ml", "bic", "aic", "clc", "icl")


@dataclass(frozen=True, slots=True)
class MetricReport:
    log_q: float        # hard-assignment complete-data log-likelihood
    n_params: int       # free parameter count
    n: int              # sample count
    entropy: float      # raw H = sum gamma log gamma, <= 0
    bic: float
    aic: float
    clc: float
    icl: float

    def to_json_dict(self):
        return {k: (int(v) if isinstance(v, int) else float(v))
                for k, v in asdict(self).items()}


def entropy(gamma):
    """H = sum_i sum_l gamma log gamma with 0 log 0 = 0; always <= 0."""
    g = np.asarray(gamma, float)
    positive = g > 0
    terms = np.zeros_like(g)
    np.log(g, out=terms, where=positive)
    np.multiply(g, terms, out=terms, where=positive)
    return float(terms.sum())


def hard_log_likelihood(mixture_fit):
    """log Q-hat: complete-data log-likelihood under argmax assignments,
    where a tie goes to the lower cluster."""
    r = mixture_fit.responsibilities
    d = mixture_fit.log_dens
    log_w = np.log(mixture_fit.weights)
    if r.shape[1] == 1:
        terms = d[:, 0] + log_w[0]
    elif r.shape[1] == 2:
        z = r[:, 1] > r[:, 0]
        terms = np.where(z, d[:, 1] + log_w[1], d[:, 0] + log_w[0])
    else:
        z = np.argmax(r, axis=1)
        terms = log_w[z] + d[np.arange(z.size), z]
    return float(np.sum(terms))


def _fit_report(mixture_fit):
    log_q = hard_log_likelihood(mixture_fit)
    l = mixture_fit.spec.n_clusters
    lam = l * sum(p.n_params for p in mixture_fit.params[0]) + l - 1
    n = mixture_fit.responsibilities.shape[0]
    h = entropy(mixture_fit.responsibilities)
    bic = lam * math.log(n) - 2.0 * log_q
    aic = 2.0 * lam - 2.0 * log_q
    clc = 2.0 * abs(h) - 2.0 * log_q
    icl = bic + 2.0 * abs(h)
    return MetricReport(log_q=log_q, n_params=lam, n=n, entropy=h,
                        bic=bic, aic=aic, clc=clc, icl=icl)


def metrics(*fits):
    """One MetricReport for one or more fits of the same samples: each
    value but ``n`` is the sum of the fits' own values, in argument order."""
    first, *rest = map(_fit_report, fits)
    if any(r.n != first.n for r in rest):
        raise ValueError("fits of different sample counts")

    def total(name):
        value = getattr(first, name)
        for r in rest:
            value += getattr(r, name)
        return value

    return MetricReport(**{f.name: first.n if f.name == "n" else total(f.name)
                            for f in fields(MetricReport)})


def select(reports, criterion):
    """Chosen cluster count from per-L reports (ordered L = 1, 2, ...).

    Argmin of the criterion value (argmax of log Q-hat for ML); ties go to
    the smaller L.
    """
    criterion = criterion.lower()
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if criterion == "ml":
        values = [-r.log_q for r in reports]
    else:
        values = [getattr(r, criterion) for r in reports]
    best = min(range(len(values)), key=lambda i: (values[i], i))
    return best + 1

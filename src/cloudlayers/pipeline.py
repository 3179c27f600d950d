"""Per-frame evidence, then the sequential decision. ``frame_evidence`` is
pure and total: features -> mixture fits under both hypotheses -> weighted
flow -> velocity mixtures -> metrics in an undecided record, or a failed one.
``decide`` applies the sticky HMM prior; ``decode`` re-decides at any ``beta``.

Model ids name a temperature component (whose posteriors weight the flow
solver) and one or more velocity components fitted on the merged flow field.
Coupled table rows (e.g. a joint Gaussian over temperature and velocity) are
realized factorized, since the temperature mixture must exist before any
velocity feature does.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import flow as flow_mod
from . import hmm as hmm_mod
from . import mixtures, selection
from .imaging import (DegenerateNormalizationError, EmptyMaskError,
                      normalize_beta, normalize_gamma)
from .numerics import is_int


class InsufficientMaskError(ValueError):
    """Raised when a frame has fewer masked pixels than one solver window."""


# Margin that keeps normalized temperatures inside the beta and gamma supports
# and flow speeds above zero.
EPS = 1e-6

# What a frame's own data can raise. frame_evidence returns these as the
# frame's failed record; anything else is a fault and propagates.
FRAME_DATA_ERRORS = (InsufficientMaskError, mixtures.FitError,
                     DegenerateNormalizationError, EmptyMaskError,
                     mixtures.SupportError)


@dataclass(frozen=True)
class ModelSpec:
    temperature: tuple          # (feature, family kind)
    velocity: tuple             # ((feature, kind), ...)


MODEL_ZOO = {
    "beta_T+vm_phi": ModelSpec(("tbar", "beta"), (("phi", "von_mises"),)),
    "beta_T+gauss_uv": ModelSpec(("tbar", "beta"), (("uv", "gaussian"),)),
    "beta_T+gamma_r": ModelSpec(("tbar", "beta"), (("r", "gamma"),)),
    "beta_T+vm_phi+gamma_r": ModelSpec(("tbar", "beta"),
                                       (("phi", "von_mises"), ("r", "gamma"))),
    "gamma_T+vm_phi": ModelSpec(("ttilde", "gamma"), (("phi", "von_mises"),)),
    "gamma_T+gauss_uv": ModelSpec(("ttilde", "gamma"), (("uv", "gaussian"),)),
    "gamma_T+gamma_r": ModelSpec(("ttilde", "gamma"), (("r", "gamma"),)),
    "gauss_T+vm_phi": ModelSpec(("t", "gaussian"), (("phi", "von_mises"),)),
    "gauss_T_uv": ModelSpec(("t", "gaussian"), (("uv", "gaussian"),)),
    "bga_T_r+vm_phi": ModelSpec(("ttilde", "gamma"),
                                (("ttilde_r", "bivariate_gamma"),
                                 ("phi", "von_mises"))),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults follow the best cross-validated factorized model row."""

    model: str = "beta_T+vm_phi"
    alpha0: float = 1.0       # Dirichlet prior, temperature component
    alpha1: float = 10.0      # Dirichlet prior, velocity component
    hmm_beta: float = 650.0
    wlk: flow_mod.WlkConfig = field(default_factory=flow_mod.WlkConfig)
    init_l: int = 1

    def __post_init__(self):
        if self.model not in MODEL_ZOO:
            raise ValueError(
                f"unknown model {self.model!r}; valid ids: "
                + ", ".join(sorted(MODEL_ZOO)))
        # A two-cluster fit's weights divide by the sum of two alphas.
        if not (1 <= self.alpha0 and 1 <= self.alpha1
                and 2.0 * max(self.alpha0, self.alpha1) < math.inf):
            raise ValueError("Dirichlet alphas must be >= 1, and the sum "
                             "of two must be finite")
        if not 0 <= self.hmm_beta < math.inf:
            raise ValueError("hmm_beta must be finite and >= 0")
        if not is_int(self.init_l):
            raise ValueError(f"init_l must be an int: {self.init_l!r}")
        if self.init_l not in (1, 2):
            raise ValueError("init_l must be 1 or 2")


@dataclass(slots=True)
class DetectionRecord:
    t: int
    chosen_l: int                # None until decided
    scores: list                 # HypothesisScore per hypothesis
    metric_reports: list         # MetricReport per hypothesis
    # All fit summaries, {"L<l>": {role: summary}}, as one sorted JSON text
    # compressed by zlib at level 1, or {} when no fit succeeded. Callers
    # keep every record; compressed, the summaries take about a tenth of the
    # memory of their dicts, lists and floats, and under half of their text.
    # Read them with ``fit_summaries``.
    fits: bytes | dict
    flow_summary: dict
    flags: dict
    error: str = None

    def fit_summaries(self):
        """{"L<l>": {role: summary dict}} of the record's fits."""
        return json.loads(zlib.decompress(self.fits)) if self.fits else {}

    def to_json_dict(self):
        return {
            "t": self.t,
            "chosen_l": self.chosen_l,
            "scores": [s.to_json_dict() for s in self.scores],
            "metrics": [m.to_json_dict() for m in self.metric_reports],
            "fits": self.fit_summaries(),
            "flow_summary": self.flow_summary,
            "flags": self.flags,
            "error": self.error,
        }

    def to_json_line(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _temperature_features(frame, mask, cfg):
    feat, kind = MODEL_ZOO[cfg.model].temperature
    raw = frame.temperatures[mask.values]
    if feat == "tbar":
        values = normalize_beta(frame, mask, EPS)
    elif feat == "ttilde":
        values = normalize_gamma(frame, mask, EPS)
    else:
        values = raw
    return {feat: values, "_raw_temp": raw}


def _velocity_features(field, mask, temp_features, model):
    u, v = field.u[mask.values], field.v[mask.values]
    r = np.maximum(np.hypot(u, v), EPS)
    feats = {"uv": np.column_stack([u, v]), "r": r,
             "phi": np.arctan2(u, v)}
    if any(f == "ttilde_r" for f, _ in model.velocity):
        feats["ttilde_r"] = np.column_stack([temp_features["ttilde"], r])
    return feats


def _fit(features, components, alpha, l):
    """An ``l``-cluster MAP mixture with Dirichlet ``alpha`` per cluster."""
    return mixtures.fit(features, mixtures.MixtureSpec(
        n_clusters=l, components=components, dirichlet_alpha=(alpha,) * l))


def fit_temperature(temp_feats, l, cfg):
    """The temperature mixture under ``l`` layers, as a detection record
    holds it: cluster 1 the warmest."""
    tfit = _fit(temp_feats, (MODEL_ZOO[cfg.model].temperature,), cfg.alpha0,
                l)
    gsum = tfit.responsibilities.sum(axis=0)
    means = (tfit.responsibilities.T @ temp_feats["_raw_temp"]) / gsum
    return mixtures.resolve_labels(tfit, means)


def frame_evidence(prev, prev_mask, cur, cur_mask, cfg):
    """The undecided record of the transition prev -> cur: ``chosen_l`` is
    None and each score holds its hypothesis's posterior sum, ``-inf`` where
    its fits failed. If the frame's data raise ``FRAME_DATA_ERRORS`` or both
    hypotheses fail, the failed record: flag ``frame_failed`` and the error."""
    try:
        return _evidence(prev, prev_mask, cur, cur_mask, cfg)
    except FRAME_DATA_ERRORS as exc:
        return DetectionRecord(
            t=prev.index, chosen_l=None, scores=[], metric_reports=[],
            fits={}, flow_summary={}, flags={"frame_failed": True},
            error=str(exc))


def _evidence(prev, prev_mask, cur, cur_mask, cfg):
    model = MODEL_ZOO[cfg.model]
    w_full = cfg.wlk.window_width
    if prev_mask.n_cloud < w_full * w_full:
        raise InsufficientMaskError(
            f"frame {prev.index}: {prev_mask.n_cloud} masked pixels < "
            f"{w_full * w_full}")

    temp_feats = _temperature_features(prev, prev_mask, cfg)

    # degenerate_restarts counts the hypotheses whose fit failed.
    flags = {"degenerate_restarts": 0, "singular_pixels": 0,
             "empty_windows": 0}
    deriv = flow_mod.derivatives(flow_mod.intensity_image(prev, prev_mask),
                                 flow_mod.intensity_image(cur, cur_mask))

    scores, reports, summaries, flow_summaries, failed = [], [], {}, {}, {}
    for l in (1, 2):
        try:
            tfit = fit_temperature(temp_feats, l, cfg)

            weights = [np.zeros(prev_mask.values.shape) for _ in range(l)]
            for c, g in enumerate(weights):
                g[prev_mask.values] = tfit.responsibilities[:, c]
            fields, stats = flow_mod.wlk_solve(deriv, weights, cfg.wlk)
            merged = flow_mod.merge_layers(fields, weights)
            for st in stats:
                flags["singular_pixels"] += st.singular_pixels
                flags["empty_windows"] += st.empty_windows

            vel_feats = _velocity_features(merged, prev_mask, temp_feats, model)
            vfit = _fit(vel_feats, model.velocity, cfg.alpha1, l)

            posterior_sum = float(tfit.q + vfit.q)
            scores.append(hmm_mod.HypothesisScore(l, posterior_sum, 0.0,
                                                  posterior_sum))
            reports.append(selection.metrics(tfit, vfit))
            summaries[f"L{l}"] = {"temperature": tfit.to_json_dict(),
                                  "velocity": vfit.to_json_dict()}
            mu, mv = merged.u[prev_mask.values], merged.v[prev_mask.values]
            flow_summaries[f"L{l}"] = {
                "mean_u": float(mu.mean()), "mean_v": float(mv.mean()),
                "median_u": float(np.median(mu)),
                "median_v": float(np.median(mv)),
            }
        except mixtures.FitError as exc:
            failed[l] = str(exc)
            scores.append(hmm_mod.HypothesisScore(l, -np.inf, 0.0, -np.inf))
            flags["degenerate_restarts"] += 1

    if len(failed) == 2:
        raise mixtures.FitError("both hypotheses failed: " + str(failed))
    return DetectionRecord(
        t=prev.index, chosen_l=None, scores=scores,
        metric_reports=reports,
        fits=zlib.compress(json.dumps(summaries, sort_keys=True).encode(), 1),
        flow_summary=flow_summaries, flags=flags,
        error=("; ".join(f"L{l}: {m}" for l, m in failed.items()) or None))


def decide(record, state):
    """``record`` rescored from its posterior sums and chosen under the prior
    of ``state``, which advances to the choice; a failed frame keeps it."""
    if record.flags.get("frame_failed"):
        return replace(record, chosen_l=state.previous_l)
    scores = [hmm_mod.score_from_sum(s.l, s.posterior_sum, state)
              for s in record.scores]
    chosen, _ = hmm_mod.step(scores, state)
    return replace(record, chosen_l=chosen, scores=scores)


def decode(records, beta, init_l):
    """A sequence's records, in frame order, re-decided under stickiness
    ``beta`` from state ``init_l``, without refitting."""
    state = hmm_mod.HmmState(previous_l=init_l, beta=beta)
    return [decide(rec, state) for rec in records]


def process_frame(prev, prev_mask, cur, cur_mask, state, cfg):
    """Detection for the transition prev -> cur; threads the HMM state."""
    return decide(frame_evidence(prev, prev_mask, cur, cur_mask, cfg), state)


def process_sequence(sequence, cfg):
    """Records for frames 0..T-2 (each scores the transition t -> t+1);
    the HMM state is threaded sequentially, and a failed frame leaves it
    unchanged."""
    if len(sequence) < 2:
        raise ValueError("a sequence needs at least 2 frames")
    state = hmm_mod.HmmState(previous_l=cfg.init_l, beta=cfg.hmm_beta)
    pairs = zip(sequence, sequence[1:])
    return [process_frame(prev, prev_mask, cur, cur_mask, state, cfg)
            for (prev, prev_mask), (cur, cur_mask) in pairs]

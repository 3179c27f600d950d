"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest
tests/test_acceptance.py -s`` to see them live). Tolerances are pinned in
the asserts; a failing criterion fails its test.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from cloudlayers.cli import main as cli_main
from cloudlayers.flow import DerivativeStack, WlkConfig, derivatives, \
    intensity_image, wlk_solve
from cloudlayers.hmm import HmmState, score_from_sum, step
from cloudlayers.mixtures import (BetaParams, BivariateGammaParams,
                                  FitError, GammaParams, MixtureSpec,
                                  VonMisesParams, e_step, fit, log_pdf,
                                  log_pdf_gradient, m_step_weights)
from cloudlayers.pipeline import PipelineConfig, decode, process_sequence
from cloudlayers.selection import CRITERIA, metrics, select
from cloudlayers.synth import LayerSpec, SynthSpec, generate
from oracles import finite_diff_gradient


def _report(name, ok):
    print(f"\n{'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, name


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients vs central finite differences


def _random_family_case(kind, rng):
    if kind == "gamma":
        p = GammaParams(alpha=rng.uniform(0.3, 8), beta=rng.uniform(0.3, 8))
        x = np.array([rng.uniform(0.05, 20.0)])
        rebuild = lambda v: GammaParams(*v)
    elif kind == "beta":
        p = BetaParams(alpha=rng.uniform(0.3, 8), beta=rng.uniform(0.3, 8))
        x = np.array([rng.uniform(0.02, 0.98)])
        rebuild = lambda v: BetaParams(*v)
    elif kind == "von_mises":
        p = VonMisesParams(mu=rng.uniform(-3, 3), kappa=rng.uniform(0.1, 20))
        x = np.array([rng.uniform(-np.pi, np.pi)])
        rebuild = lambda v: VonMisesParams(*v)
    else:
        p = BivariateGammaParams(alpha=rng.uniform(0.3, 6),
                                 beta=rng.uniform(0.3, 6),
                                 a=rng.uniform(0.3, 6))
        x = np.array([[rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)]])
        rebuild = lambda v: BivariateGammaParams(*v)
    return p, x, rebuild


def test_criterion_gradient_correctness():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for kind in ("gamma", "bivariate_gamma", "von_mises", "beta"):
        for _ in range(200):
            p, x, rebuild = _random_family_case(kind, rng)
            analytic = log_pdf_gradient(p, x)[0]
            v0 = np.array([getattr(p, f) for f in vars(p)])
            fd = finite_diff_gradient(lambda v: log_pdf(rebuild(v), x)[0],
                                      v0, h=1e-6)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(f"gradient correctness (4 families x 200 pts, worst rel err "
            f"{worst:.2e}, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# Criterion 2: EM ascent over randomized fits


def _random_fit_case(kind, rng, n=300):
    if kind == "gamma":
        x = rng.gamma(rng.uniform(1, 4), rng.uniform(0.5, 3), n) + 1e-9
    elif kind == "beta":
        x = np.clip(rng.beta(rng.uniform(0.8, 4), rng.uniform(0.8, 4), n),
                    1e-9, 1 - 1e-9)
    elif kind == "von_mises":
        x = rng.vonmises(rng.uniform(-3, 3), rng.uniform(0.5, 6), n)
    elif kind == "gaussian":
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n)
    else:
        xv = rng.gamma(2.0, 1.0, n) + 1e-9
        x = np.column_stack([xv, xv * rng.gamma(1.5, 1.0, n) + 1e-9])
    return {"x": x}


def test_criterion_em_ascent():
    rng = np.random.default_rng(7)
    start = time.time()
    worst_dip = 0.0
    n_fits = 0
    stops = Counter()
    for kind in ("gamma", "bivariate_gamma", "von_mises", "beta",
                 "gaussian"):
        for trial in range(50):
            feats = _random_fit_case(kind, rng)
            spec = MixtureSpec(n_clusters=2, components=(("x", kind),),
                               dirichlet_alpha=(1.0, 1.0))
            try:
                f = fit(feats, spec, init_seed=trial, restarts=2)
            except FitError:
                continue  # every restart degenerated: no trace to check
            # The observed-data objective, which EM cannot lower.
            ll = np.asarray(f.ll_trace)
            dips = np.diff(ll) + 1e-9 * (1 + np.abs(ll[:-1]))
            worst_dip = min(worst_dip, float(dips.min(initial=0.0)))
            n_fits += 1
            stops[f.stop] += 1
    elapsed = time.time() - start
    ok = worst_dip >= 0.0 and elapsed < 60.0 and n_fits >= 200
    by_stop = ", ".join(f"{k} {v}" for k, v in sorted(stops.items()))
    _report(f"EM ascent ({n_fits} fits: {by_stop}; worst slack-adjusted "
            f"dip {worst_dip:.2e}, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# Criterion 3: MAP weight update reduces to ML bitwise at alpha = 1


def test_criterion_map_to_ml_reduction():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        n = rng.integers(5, 400)
        log_dens = rng.normal(scale=4.0, size=(n, 2))
        pi = rng.dirichlet([1.0, 1.0])
        # Statistics [log p_0, log p_1, 1], taken with coefficients eye(2, 3).
        stats = np.vstack([log_dens.T, np.ones(n)])
        gamma, _ = e_step(np.eye(2, 3), pi, stats, stats.sum(axis=1))
        # The responsibility masses as a run takes them: the ones row of
        # the statistic sums.
        masses = (stats @ gamma)[-1]
        mapw = m_step_weights(masses.tolist(), (1.0, 1.0), n)
        ok = ok and np.array_equal(masses / n, mapw)
    _report("MAP-to-ML reduction (100 E-steps, bitwise)", ok)


# ---------------------------------------------------------------------------
# Criterion 4: WLS solver vs brute-force normal equations


def test_criterion_wls_oracle_equivalence():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        n = rng.integers(6, 80)
        ix = rng.normal(scale=rng.uniform(0.5, 3), size=n)
        iy = rng.normal(scale=rng.uniform(0.5, 3), size=n)
        y = rng.normal(size=n)
        # One 1 x n window; It = 2 y makes the calibrated flow (gain -1/2
        # on the solution for -It) the WLS solution for y.
        deriv = DerivativeStack(ix=ix[None, :], iy=iy[None, :],
                                it=2.0 * y[None, :])
        (field,), (stats,) = wlk_solve(
            deriv, [np.ones((1, n))],
            WlkConfig(window_half_width=int(n), tau=0.0))
        X = np.column_stack([ix, iy])
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert stats.singular_pixels == 0
        worst = max(worst, np.max(np.abs(field.u - expected[0])),
                    np.max(np.abs(field.v - expected[1])))
    ok = worst <= 1e-10
    _report(f"WLS oracle equivalence (1000 windows, max err {worst:.2e})",
            ok)


# ---------------------------------------------------------------------------
# Criterion 5: flow recovery on rigid translations


def test_criterion_flow_recovery():
    start = time.time()
    cfg = WlkConfig()  # w = 8, tau = 1e-8
    worst_mag = 0.0
    worst_ang = 0.0
    for vel in ((1, 0), (0, -1), (2, 0), (0, 2)):
        spec = SynthSpec(shape=(60, 80), frames=10, noise_sigma=0.0, seed=5,
                         layers=(LayerSpec(base_temp=280.0, velocity=vel),))
        seq, _ = generate(spec)
        us, vs = [], []
        for (f0, m0, _), (f1, m1, _) in zip(seq, seq[1:]):
            d = derivatives(intensity_image(f0, m0),
                            intensity_image(f1, m1))
            (field,), _ = wlk_solve(d, [m0.values.astype(float)], cfg)
            us.append(np.median(field.u[m0.values]))
            vs.append(np.median(field.v[m0.values]))
        u, v = np.median(us), np.median(vs)
        truth = np.array(vel, dtype=float)
        mag_err = abs(np.hypot(u, v) - np.hypot(*truth)) / np.hypot(*truth)
        ang = np.arctan2(u, v) - np.arctan2(truth[0], truth[1])
        ang_err = abs(np.degrees(np.arctan2(np.sin(ang), np.cos(ang))))
        worst_mag = max(worst_mag, mag_err)
        worst_ang = max(worst_ang, ang_err)
    elapsed = time.time() - start
    ok = worst_mag <= 0.25 and worst_ang <= 15.0 and elapsed < 30.0
    _report(f"flow recovery (mag err {100 * worst_mag:.1f}%, angle err "
            f"{worst_ang:.1f} deg, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# Criterion 6: hysteresis identity


def test_criterion_hysteresis_identity():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(10_000):
        prev = int(rng.integers(1, 3))
        beta = float(rng.uniform(0, 1e3))
        sum_keep = float(rng.normal(scale=1e3))
        sum_switch = float(rng.normal(scale=1e3))
        state = HmmState(previous_l=prev, beta=beta)
        chosen, _ = step([score_from_sum(prev, sum_keep, state),
                          score_from_sum(3 - prev, sum_switch, state)],
                         state)
        switched = chosen != prev
        ok = ok and (switched == (sum_switch - sum_keep > 2.0 * beta))
    _report("hysteresis identity (10000 score pairs, switch iff "
            "advantage > 2 beta)", ok)


# ---------------------------------------------------------------------------
# Criterion 7: criterion sanity on separated vs single-cluster data


def test_criterion_selection_sanity():
    rng = np.random.default_rng(19)
    z = rng.random(2000) < 0.5
    two = np.where(z, rng.normal(0.0, 1.0, 2000),
                   rng.normal(5.0, 1.0, 2000))  # means 5 sigma apart
    one = rng.normal(0.0, 1.0, 2000)
    ok = True
    detail = {}
    for name, data, expect in (("two-cluster", two, 2),
                               ("one-cluster", one, 1)):
        reports = []
        for l in (1, 2):
            spec = MixtureSpec(n_clusters=l, components=(("x", "gaussian"),),
                               dirichlet_alpha=(1.0,) * l)
            reports.append(metrics(fit({"x": data}, spec, init_seed=0)))
        picks = {c: select(reports, c) for c in CRITERIA}
        detail[name] = picks
        ok = ok and all(p == expect for p in picks.values())
    _report(f"criterion sanity (all of {CRITERIA} pick L=2 then L=1: "
            f"{detail})", ok)


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end synthetic detection and the sequential prior


def _suite_runs(specs, beta):
    """(records, truth) of each spec's sequence, detected at ``beta``."""
    runs = []
    for spec in specs:
        seq, truth = generate(spec)
        pairs = [(f, m) for f, m, _ in seq]
        runs.append((process_sequence(
            pairs, PipelineConfig(seed=0, hmm_beta=beta)), truth))
    return runs


def _score(runs):
    correct = sum(r.chosen_l == truth[r.t] for recs, truth in runs
                  for r in recs)
    return correct, sum(len(recs) for recs, _ in runs)


def test_criterion_end_to_end_detection():
    start = time.time()
    one = [SynthSpec(frames=31, seed=s,
                     layers=(LayerSpec(base_temp=278.0, velocity=(1, 0)),))
           for s in range(5)]
    two = [SynthSpec(frames=31, seed=100 + s,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0)),
                             LayerSpec(base_temp=265.0, velocity=(-1, 1))))
           for s in range(5)]
    correct, total = _score(_suite_runs(one + two, beta=650.0))
    accuracy = 100.0 * correct / total

    # Change-point suite: heavy noise makes per-frame evidence marginal,
    # which is exactly where the sticky prior has to earn its keep.
    cp = [SynthSpec(frames=13, change_point=6, noise_sigma=3.0, seed=s,
                    layers=(LayerSpec(base_temp=278.0, velocity=(1, 0),
                                      amplitude=1.5),
                            LayerSpec(base_temp=266.0, velocity=(-1, 1),
                                      amplitude=1.5)))
          for s in (2, 3, 5, 6)]
    cp_runs = _suite_runs(cp, beta=650.0)
    cp_sticky, cp_total = _score(cp_runs)
    # beta = 0 re-decides the same per-frame evidence: no frame is refitted.
    cp_flat, _ = _score([(decode(recs, 0.0, PipelineConfig().init_l), truth)
                         for recs, truth in cp_runs])
    elapsed = time.time() - start

    ok = (accuracy >= 90.0 and cp_flat < cp_sticky and elapsed < 600.0)
    _report(f"end-to-end detection ({accuracy:.2f}% on {total} frames; "
            f"change-point suite beta=650: {cp_sticky}/{cp_total} vs "
            f"beta=0: {cp_flat}/{cp_total}; {elapsed:.0f}s)", ok)


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism


def test_criterion_cli_determinism(tmp_path):
    seq_dir = tmp_path / "seq"
    rc = cli_main(["synth", "--out", str(seq_dir), "--layers", "2",
                   "--frames", "4", "--seed", "3"])
    assert rc == 0
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        dst = tmp_path / name
        rc = cli_main(["detect", "--manifest", str(seq_dir / "manifest.json"),
                       "--out", str(dst), "--seed", "42"])
        assert rc == 0
        outs.append(dst.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report("CLI determinism (repeated detect runs byte-identical)", ok)

"""Frame-level orchestration: hypotheses, flow weighting and sequencing."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudlayers import hmm as hmm_mod
from cloudlayers import mixtures, selection
from cloudlayers.flow import FlowField, WlkConfig
from cloudlayers.imaging import Frame, SegmentationMask
from cloudlayers.pipeline import (EPS, MODEL_ZOO, DetectionRecord,
                                  PipelineConfig, _velocity_features, decide,
                                  decode, frame_evidence, process_frame,
                                  process_sequence)
from cloudlayers.synth import LayerSpec, SynthSpec, generate


def _pairs(spec):
    seq, truth = generate(spec)
    return [(f, m) for f, m, lab in seq], truth


def _two_layer_spec(frames=4, seed=3):
    return SynthSpec(frames=frames, seed=seed,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0)),
                             LayerSpec(base_temp=265.0, velocity=(-1, 1))))


def _one_layer_spec(frames=4, seed=7):
    return SynthSpec(frames=frames, seed=seed,
                     layers=(LayerSpec(base_temp=278.0, velocity=(1, 0)),))


def test_two_layer_sequence_is_detected():
    pairs, truth = _pairs(_two_layer_spec())
    recs = process_sequence(pairs, PipelineConfig())
    assert len(recs) == len(pairs) - 1
    assert [r.chosen_l for r in recs] == truth[:-1] == [2] * 3


def test_one_layer_sequence_is_detected():
    pairs, truth = _pairs(_one_layer_spec())
    recs = process_sequence(pairs, PipelineConfig())
    assert [r.chosen_l for r in recs] == truth[:-1] == [1] * 3


def test_default_frame_builds_no_generator(monkeypatch):
    # Each mixture is fitted from its median split alone.
    pairs, _ = _pairs(_two_layer_spec(frames=2))

    def refuse(*args, **kwargs):
        raise AssertionError("a fit drew a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    state = hmm_mod.HmmState(previous_l=1, beta=0.0)
    rec = process_frame(*pairs[0], *pairs[1], state, PipelineConfig())
    assert rec.error is None and rec.chosen_l == 2


def test_records_carry_scores_and_metrics():
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    rec = process_sequence(pairs, PipelineConfig())[0]
    assert rec.t == 0
    assert sorted(s.l for s in rec.scores) == [1, 2]
    assert len(rec.metric_reports) == 2
    assert set(rec.fit_summaries()) == {"L1", "L2"}
    assert rec.error is None
    doc = rec.to_json_dict()
    assert doc["chosen_l"] == rec.chosen_l
    assert rec.to_json_line().startswith("{")
    # Fit summaries are kept compressed and come back as their dicts.
    summary = doc["fits"]["L2"]["velocity"]
    assert summary == rec.fit_summaries()["L2"]["velocity"]
    assert summary["n_clusters"] == 2
    assert summary["stop"] in ("tolerance", "cap")
    assert len(summary["ll_trace"]) == len(summary["q_trace"])


def test_record_stores_each_fit_summary_compressed(monkeypatch):
    # selection.metrics sees each hypothesis's (temperature, velocity) fits.
    seen = []
    metrics = selection.metrics

    def keep(*fits):
        seen.append(fits)
        return metrics(*fits)

    monkeypatch.setattr(selection, "metrics", keep)
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    rec = process_sequence(pairs, PipelineConfig())[0]
    assert rec.fit_summaries() == rec.to_json_dict()["fits"] == {
        f"L{l}": {"temperature": t.to_json_dict(),
                  "velocity": v.to_json_dict()}
        for l, (t, v) in zip((1, 2), seen)}
    assert isinstance(rec.fits, bytes)
    assert len(rec.fits) < len(json.dumps(rec.fit_summaries(),
                                          sort_keys=True))


def test_record_types_have_no_instance_dict():
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    rec = process_sequence(pairs, PipelineConfig())[0]
    for obj in (rec, rec.scores[0], rec.metric_reports[0]):
        assert not hasattr(obj, "__dict__")


def test_a_record_built_with_empty_fits_encodes():
    # The shape of a failed record that a caller builds itself.
    rec = DetectionRecord(t=4, chosen_l=1, scores=[], metric_reports=[],
                          fits={}, flow_summary={},
                          flags={"frame_failed": True}, error="no mask")
    assert rec.fit_summaries() == {}
    assert json.loads(rec.to_json_line())["fits"] == {}


def test_two_cluster_fits_take_one_start_by_default(monkeypatch):
    starts = []
    run_em = mixtures._run_em

    def counted(data, spec, gamma):
        starts.append(spec.n_clusters)
        return run_em(data, spec, gamma)

    monkeypatch.setattr(mixtures, "_run_em", counted)
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    process_sequence(pairs, PipelineConfig())
    assert sorted(starts) == [1, 1, 2, 2]


def test_detection_is_deterministic():
    pairs, _ = _pairs(_two_layer_spec(frames=3))
    a = process_sequence(pairs, PipelineConfig())
    b = process_sequence(pairs, PipelineConfig())
    assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]


def test_insufficient_mask_fails_the_frame():
    rng = np.random.default_rng(0)
    temps = rng.uniform(250, 290, size=(30, 30))
    mask = np.zeros((30, 30), dtype=bool)
    mask[:3, :3] = True  # 9 px < one 17 x 17 window
    f0 = Frame(temps, index=0)
    f1 = Frame(temps, index=1)
    m = SegmentationMask(mask)
    cfg = PipelineConfig()
    evidence = frame_evidence(f0, m, f1, m, cfg)
    assert evidence.chosen_l is None
    assert evidence.flags == {"frame_failed": True}
    assert evidence.error == "frame 0: 9 masked pixels < 289"
    assert (evidence.scores, evidence.metric_reports, evidence.fits,
            evidence.flow_summary) == ([], [], {}, {})
    state = hmm_mod.HmmState(previous_l=2, beta=0.0)
    rec = process_frame(f0, m, f1, m, state, cfg)
    assert rec.chosen_l == state.previous_l == 2
    assert state == hmm_mod.HmmState(previous_l=2, beta=0.0)


def test_failed_frame_keeps_state_and_is_flagged():
    pairs, _ = _pairs(_one_layer_spec(frames=3))
    # Break the middle transition by shrinking its mask.
    small = np.zeros(pairs[1][1].values.shape, dtype=bool)
    small[:2, :2] = True
    pairs[1] = (pairs[1][0], SegmentationMask(small))
    recs = process_sequence(pairs, PipelineConfig())
    assert recs[1].flags.get("frame_failed")
    assert recs[1].chosen_l == recs[0].chosen_l  # state carried over
    assert recs[1].to_json_line() == (
        '{"chosen_l": 1, "error": "frame 1: 4 masked pixels < 289", '
        '"fits": {}, "flags": {"frame_failed": true}, "flow_summary": {}, '
        '"metrics": [], "scores": [], "t": 1}')


def _fail_fits(monkeypatch, n_clusters):
    """Make ``mixtures.fit`` raise ``FitError`` for the given cluster
    counts and fit as usual otherwise."""
    fit = mixtures.fit

    def failing_fit(features, spec):
        if spec.n_clusters in n_clusters:
            raise mixtures.FitError("EM emptied a cluster")
        return fit(features, spec)

    monkeypatch.setattr(mixtures, "fit", failing_fit)


def test_a_failed_hypothesis_scores_minus_infinity(monkeypatch):
    _fail_fits(monkeypatch, (2,))
    (f0, m0), (f1, m1) = _pairs(_two_layer_spec(frames=2))[0]
    state = hmm_mod.HmmState(previous_l=2, beta=650.0)
    rec = process_frame(f0, m0, f1, m1, state, PipelineConfig())
    assert set(rec.fit_summaries()) == set(rec.flow_summary) == {"L1"}
    assert len(rec.metric_reports) == 1
    assert [s.l for s in rec.scores] == [1, 2]
    assert rec.scores[1].posterior_sum == -np.inf
    assert np.isfinite(rec.scores[0].posterior_sum)
    assert rec.flags["degenerate_restarts"] == 1
    assert "frame_failed" not in rec.flags
    assert rec.error == "L2: EM emptied a cluster"
    assert rec.chosen_l == state.previous_l == 1


def test_both_hypotheses_failing_fails_the_frame(monkeypatch):
    _fail_fits(monkeypatch, (1, 2))
    (f0, m0), (f1, m1) = _pairs(_two_layer_spec(frames=2))[0]
    state = hmm_mod.HmmState(previous_l=2, beta=650.0)
    rec = process_frame(f0, m0, f1, m1, state, PipelineConfig())
    assert rec.flags == {"frame_failed": True}
    assert rec.error.startswith("both hypotheses failed")
    assert rec.scores == rec.metric_reports == []
    assert rec.chosen_l == state.previous_l == 2


def _lines(records):
    return [r.to_json_line() for r in records]


def test_process_frame_decides_the_frame_evidence():
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    (f0, m0), (f1, m1) = pairs
    cfg = PipelineConfig()
    evidence = frame_evidence(f0, m0, f1, m1, cfg)
    assert evidence.chosen_l is None
    assert [s.l for s in evidence.scores] == [1, 2]
    state = hmm_mod.HmmState(previous_l=1, beta=cfg.hmm_beta)
    rec = process_frame(f0, m0, f1, m1, state, cfg)
    assert state.previous_l == rec.chosen_l
    assert ([s.posterior_sum for s in rec.scores]
            == [s.posterior_sum for s in evidence.scores])
    again = decide(evidence, hmm_mod.HmmState(previous_l=1,
                                              beta=cfg.hmm_beta))
    assert again.to_json_line() == rec.to_json_line()


@pytest.fixture(scope="module")
def noisy_records():
    """A noisy change-point sequence whose middle transition fails (its
    first frame's mask is smaller than one solver window), detected at the
    default beta from L=2: the state holds 2 over the failure, then
    switches."""
    pairs, _ = _pairs(SynthSpec(
        frames=5, change_point=2, noise_sigma=3.0, seed=2,
        layers=(LayerSpec(base_temp=278.0, velocity=(1, 0), amplitude=1.5),
                LayerSpec(base_temp=266.0, velocity=(-1, 1),
                          amplitude=1.5))))
    small = np.zeros(pairs[2][1].values.shape, dtype=bool)
    small[:2, :2] = True
    pairs[2] = (pairs[2][0], SegmentationMask(small))
    return pairs, process_sequence(pairs, PipelineConfig(init_l=2))


def test_decode_at_the_same_beta_reproduces_the_records(noisy_records):
    _, recs = noisy_records
    cfg = PipelineConfig(init_l=2)
    assert recs[2].flags == {"frame_failed": True}
    assert [r.chosen_l for r in recs] == [2, 2, 2, 1]
    assert _lines(decode(recs, cfg.hmm_beta, cfg.init_l)) == _lines(recs)


def test_decode_at_another_beta_equals_a_refit(noisy_records):
    pairs, recs = noisy_records
    flat = process_sequence(pairs, PipelineConfig(hmm_beta=0.0))
    assert _lines(decode(recs, 0.0, 1)) == _lines(flat)


@pytest.mark.parametrize("init_l", [1, 2])
def test_decode_keeps_the_state_over_a_failed_frame(noisy_records, init_l):
    _, recs = noisy_records
    beta = 650.0
    decoded = decode(recs, beta, init_l)
    assert decoded[2].chosen_l == decoded[1].chosen_l
    # The frame after the failure is scored against the kept state.
    for s in decoded[3].scores:
        assert s.psi == (-beta if s.l == decoded[1].chosen_l else beta)


@pytest.mark.parametrize("exc,caught", [
    (mixtures.SupportError("beta support violation"), True),
    (ValueError("a fault, not frame data"), False),
])
def test_only_frame_data_errors_become_failed_frames(monkeypatch, exc,
                                                     caught):
    pairs, _ = _pairs(_one_layer_spec(frames=2))

    def broken_fit(*args, **kwargs):
        raise exc

    monkeypatch.setattr(mixtures, "fit", broken_fit)
    if caught:
        (rec,) = process_sequence(pairs, PipelineConfig())
        assert rec.flags == {"frame_failed": True}
        assert rec.error == str(exc)
    else:
        with pytest.raises(ValueError, match="a fault"):
            process_sequence(pairs, PipelineConfig())


def test_sequence_needs_two_frames():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    with pytest.raises(ValueError):
        process_sequence(pairs[:1], PipelineConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="beta_T\\+vm_phi"):
        PipelineConfig(model="nosuch")
    for bad in (0.5, math.nan, math.inf):
        for name in ("alpha0", "alpha1"):
            with pytest.raises(ValueError, match="Dirichlet"):
                PipelineConfig(**{name: bad})
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hmm_beta"):
            PipelineConfig(hmm_beta=bad)
    with pytest.raises(ValueError):
        PipelineConfig(init_l=3)


# A float or a bool equal to 1 or 2 would pass the range check.
@pytest.mark.parametrize("bad", [True, 1.0, 2.0, "1"])
def test_config_requires_int_init_l(bad):
    with pytest.raises(ValueError, match="init_l must be an int"):
        PipelineConfig(init_l=bad)


def test_config_takes_numpy_ints():
    assert PipelineConfig(init_l=np.int8(2)).init_l == 2


def test_model_zoo_ids_are_well_formed():
    assert len(MODEL_ZOO) == 10
    for model_id in MODEL_ZOO:
        cfg = PipelineConfig(model=model_id)
        assert cfg.model == model_id


@pytest.mark.parametrize("model_id", ["gamma_T+gamma_r", "gauss_T_uv",
                                      "bga_T_r+vm_phi"])
def test_alternate_models_run_one_frame(model_id):
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    state = hmm_mod.HmmState(previous_l=1, beta=650.0)
    (f0, m0), (f1, m1) = pairs
    rec = process_frame(f0, m0, f1, m1, state,
                        PipelineConfig(model=model_id))
    assert rec.chosen_l in (1, 2)
    assert rec.error is None


def test_smaller_window_config_threads_through():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    cfg = PipelineConfig(wlk=WlkConfig(window_half_width=4))
    recs = process_sequence(pairs, cfg)
    assert recs[0].chosen_l == 1


def test_empty_window_flag_counts_windows_without_mask_pixels():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    (f0, m0), (f1, m1) = pairs
    cols = np.arange(m0.values.shape[1])
    sparse = m0.values & (cols < 30)[None, :]
    state = hmm_mod.HmmState(previous_l=1, beta=650.0)
    cfg = PipelineConfig()
    rec = process_frame(f0, SegmentationMask(sparse), f1, m1, state, cfg)
    # A pixel whose whole window misses the mask is empty for every layer
    # of both hypotheses (1 + 2 layer fields).
    w = cfg.wlk.window_half_width
    rows, width = sparse.shape
    far = sum(not sparse[max(i - w, 0):i + w + 1, max(j - w, 0):j + w + 1].any()
              for i in range(rows) for j in range(width))
    assert far > 0
    assert rec.flags["empty_windows"] >= 3 * far


def _speed_and_angle(u, v):
    feats = _velocity_features(
        FlowField(u=np.array([[u]]), v=np.array([[v]])),
        SegmentationMask(np.ones((1, 1), bool)), {},
        MODEL_ZOO["beta_T+vm_phi"])
    return feats["r"][0], feats["phi"][0]


def test_velocity_features_angle_convention():
    r, phi = _speed_and_angle(1.0, 0.0)
    assert phi == pytest.approx(np.pi / 2)  # arctan2(u, v)
    assert r == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_velocity_features_angle_round_trip(u, v):
    assume(np.hypot(u, v) >= EPS)  # slower flow is floored at EPS
    r, phi = _speed_and_angle(u, v)
    assert r * np.sin(phi) == pytest.approx(u, abs=1e-9)
    assert r * np.cos(phi) == pytest.approx(v, abs=1e-9)


@st.composite
def _frame_and_mask(draw, shape, index):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    temps = draw(st.sampled_from(["constant", "random", "two-level",
                                  "extreme"]))
    if temps == "constant":
        t = np.full(shape, draw(st.floats(1.0, 400.0)))
    elif temps == "random":
        t = rng.uniform(200.0, 300.0, shape)
    elif temps == "two-level":
        t = np.where(rng.random(shape) < 0.5, 250.0, 280.0)
    else:
        t = 10.0 ** rng.uniform(-300.0, 300.0, shape)
    sky = draw(st.sampled_from(["all-sky", "one-pixel", "random", "empty"]))
    if sky == "all-sky":
        m = np.ones(shape, bool)
    elif sky == "one-pixel":
        m = np.zeros(shape, bool)
        m.flat[rng.integers(t.size)] = True
    elif sky == "random":
        m = rng.random(shape) < 0.8
    else:
        m = np.zeros(shape, bool)
    return Frame(t, index=index), SegmentationMask(m)


@st.composite
def _transitions(draw):
    # Frames of 9 or more pixels can pass a 3x3 window: drawn first.
    n = draw(st.sampled_from(range(12, 2, -1)))
    height = draw(st.sampled_from([h for h in range(1, n + 1) if n % h == 0]))
    shape = (height, n // height)
    return (*draw(_frame_and_mask(shape, 0)), *draw(_frame_and_mask(shape, 1)))


@settings(max_examples=400, deadline=None)
@given(_transitions(), st.sampled_from(sorted(MODEL_ZOO)), st.integers(1, 2))
def test_frame_evidence_is_total_on_small_frames(frames, model, window):
    cfg = PipelineConfig(model=model,
                         wlk=WlkConfig(window_half_width=window))
    rec = frame_evidence(*frames, cfg)
    # NaN anywhere in the record would break the round trip's equality.
    assert json.loads(rec.to_json_line()) == rec.to_json_dict()
    for s in rec.scores:
        assert math.isfinite(s.posterior_sum) or s.posterior_sum == -math.inf
    assert rec.flags.get("frame_failed", False) == (not rec.scores)

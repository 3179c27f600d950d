"""Frame-level orchestration: hypotheses, flow weighting and sequencing."""

import json

import numpy as np
import pytest

from cloudlayers import hmm as hmm_mod
from cloudlayers import mixtures
from cloudlayers.flow import WlkConfig
from cloudlayers.imaging import Frame, SegmentationMask
from cloudlayers.pipeline import (MODEL_ZOO, InsufficientMaskError,
                                  PipelineConfig, process_frame,
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
    recs = process_sequence(pairs, PipelineConfig(seed=0))
    assert len(recs) == len(pairs) - 1
    assert [r.chosen_l for r in recs] == truth[:-1] == [2] * 3


def test_one_layer_sequence_is_detected():
    pairs, truth = _pairs(_one_layer_spec())
    recs = process_sequence(pairs, PipelineConfig(seed=0))
    assert [r.chosen_l for r in recs] == truth[:-1] == [1] * 3


def test_records_carry_scores_and_metrics():
    pairs, _ = _pairs(_two_layer_spec(frames=2))
    rec = process_sequence(pairs, PipelineConfig(seed=0))[0]
    assert rec.t == 0
    assert sorted(s.l for s in rec.scores) == [1, 2]
    assert len(rec.metric_reports) == 2
    assert set(rec.fits) == {"L1", "L2"}
    assert rec.error is None
    doc = rec.to_json_dict()
    assert doc["chosen_l"] == rec.chosen_l
    assert rec.to_json_line().startswith("{")
    # Fit summaries are kept as JSON text and come back as their dicts.
    summary = doc["fits"]["L2"]["velocity"]
    assert summary == json.loads(rec.fits["L2"]["velocity"])
    assert summary["n_clusters"] == 2
    assert summary["stop"] in ("tolerance", "dip", "cap")


def test_detection_is_deterministic():
    pairs, _ = _pairs(_two_layer_spec(frames=3))
    a = process_sequence(pairs, PipelineConfig(seed=0))
    b = process_sequence(pairs, PipelineConfig(seed=0))
    assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]


def test_insufficient_mask_raises():
    rng = np.random.default_rng(0)
    temps = rng.uniform(250, 290, size=(30, 30))
    mask = np.zeros((30, 30), dtype=bool)
    mask[:3, :3] = True  # 9 px < one 17 x 17 window
    f0 = Frame(temps, index=0)
    f1 = Frame(temps, index=1)
    state = hmm_mod.HmmState(previous_l=1, beta=0.0)
    with pytest.raises(InsufficientMaskError):
        process_frame(f0, SegmentationMask(mask), f1, SegmentationMask(mask),
                      state, PipelineConfig(seed=0))


def test_failed_frame_keeps_state_and_is_flagged():
    pairs, _ = _pairs(_one_layer_spec(frames=3))
    # Break the middle transition by shrinking its mask.
    small = np.zeros(pairs[1][1].values.shape, dtype=bool)
    small[:2, :2] = True
    pairs[1] = (pairs[1][0], SegmentationMask(small))
    recs = process_sequence(pairs, PipelineConfig(seed=0))
    assert recs[1].flags.get("frame_failed")
    assert recs[1].error is not None
    assert recs[1].chosen_l == recs[0].chosen_l  # state carried over


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
        (rec,) = process_sequence(pairs, PipelineConfig(seed=0))
        assert rec.flags == {"frame_failed": True}
        assert rec.error == str(exc)
    else:
        with pytest.raises(ValueError, match="a fault"):
            process_sequence(pairs, PipelineConfig(seed=0))


def test_sequence_needs_two_frames():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    with pytest.raises(ValueError):
        process_sequence(pairs[:1], PipelineConfig(seed=0))


def test_config_validation():
    with pytest.raises(ValueError, match="beta_T\\+vm_phi"):
        PipelineConfig(model="nosuch")
    with pytest.raises(ValueError):
        PipelineConfig(alpha0=0.5)
    with pytest.raises(ValueError):
        PipelineConfig(init_l=3)


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
                        PipelineConfig(model=model_id, seed=0))
    assert rec.chosen_l in (1, 2)
    assert rec.error is None


def test_smaller_window_config_threads_through():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    cfg = PipelineConfig(seed=0, wlk=WlkConfig(window_half_width=4))
    recs = process_sequence(pairs, cfg)
    assert recs[0].chosen_l == 1


def test_empty_window_flag_counts_windows_without_mask_pixels():
    pairs, _ = _pairs(_one_layer_spec(frames=2))
    (f0, m0), (f1, m1) = pairs
    cols = np.arange(m0.values.shape[1])
    sparse = m0.values & (cols < 30)[None, :]
    state = hmm_mod.HmmState(previous_l=1, beta=650.0)
    cfg = PipelineConfig(seed=0)
    rec = process_frame(f0, SegmentationMask(sparse), f1, m1, state, cfg)
    # A pixel whose whole window misses the mask is empty for every layer
    # of both hypotheses (1 + 2 layer fields).
    w = cfg.wlk.window_half_width
    rows, width = sparse.shape
    far = sum(not sparse[max(i - w, 0):i + w + 1, max(j - w, 0):j + w + 1].any()
              for i in range(rows) for j in range(width))
    assert far > 0
    assert rec.flags["empty_windows"] >= 3 * far

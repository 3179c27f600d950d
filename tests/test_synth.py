"""Synthetic sequence generator: advection exactness, labels and truth."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers import synth
from cloudlayers.synth import (COVERAGE_THRESHOLD, LayerSpec, SynthSpec,
                               generate, write_with_truth)


def _one_layer_spec(**kw):
    defaults = dict(shape=(48, 64), frames=5, noise_sigma=0.0, seed=0,
                    layers=(LayerSpec(base_temp=280.0, velocity=(1, 0),
                                      n_blobs=4),))
    defaults.update(kw)
    return SynthSpec(**defaults)


def test_rigid_advection_is_exact_for_integer_velocity():
    # Noise-free integer translation with periodic wrap: frame t+1 is a
    # roll of frame t, up to floating-point reassociation of the bump sum.
    seq, _ = generate(_one_layer_spec())
    for (f0, m0, l0), (f1, m1, l1) in zip(seq, seq[1:]):
        np.testing.assert_allclose(np.roll(f0.temperatures, 1, axis=1),
                                   f1.temperatures, atol=1e-10)
        np.testing.assert_array_equal(np.roll(m0.values, 1, axis=1),
                                      m1.values)


def test_advection_both_axes():
    spec = _one_layer_spec(
        layers=(LayerSpec(base_temp=280.0, velocity=(2, 1), n_blobs=4),))
    seq, _ = generate(spec)
    f0, f1 = seq[0][0], seq[1][0]
    np.testing.assert_allclose(
        np.roll(f0.temperatures, (1, 2), axis=(0, 1)), f1.temperatures,
        atol=1e-10)


def test_generation_is_deterministic_in_seed():
    a, ta = generate(_one_layer_spec(noise_sigma=0.5, seed=4))
    b, tb = generate(_one_layer_spec(noise_sigma=0.5, seed=4))
    c, _ = generate(_one_layer_spec(noise_sigma=0.5, seed=5))
    assert ta == tb
    for (fa, ma, la), (fb, mb, lb) in zip(a, b):
        np.testing.assert_array_equal(fa.temperatures, fb.temperatures)
        np.testing.assert_array_equal(la, lb)
    assert not np.array_equal(a[0][0].temperatures, c[0][0].temperatures)


def test_mask_matches_labels_and_occlusion_prefers_warm_layer():
    spec = SynthSpec(shape=(48, 64), frames=3, noise_sigma=0.0, seed=1,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0),
                                       n_blobs=4),
                             LayerSpec(base_temp=265.0, velocity=(-1, 0),
                                       n_blobs=4)))
    seq, truth = generate(spec)
    for frame, mask, labels in seq:
        np.testing.assert_array_equal(mask.values, labels > 0)
        # Warm-layer pixels sit near 285 K, never near the cold base.
        warm = frame.temperatures[labels == 1]
        cold = frame.temperatures[labels == 2]
        if warm.size and cold.size:
            assert warm.min() > cold.max()
    assert truth == [2] * 3


def test_temperatures_are_separated_from_background():
    seq, _ = generate(_one_layer_spec())
    frame, mask, _ = seq[0]
    assert frame.temperatures[~mask.values].max() <= 240.0 + 1e-9
    cloudy = frame.temperatures[mask.values]
    assert cloudy.min() >= 280.0 - 3.0 * COVERAGE_THRESHOLD


def test_change_point_truth():
    spec = SynthSpec(shape=(48, 64), frames=7, noise_sigma=0.0, seed=2,
                     change_point=3,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0),
                                       n_blobs=4),
                             LayerSpec(base_temp=265.0, velocity=(0, 1),
                                       n_blobs=4)))
    seq, truth = generate(spec)
    assert truth[:3] == [1, 1, 1]
    assert truth[3:] == [2] * 4
    for t, (_, _, labels) in enumerate(seq):
        assert (2 in labels) == (t >= 3)


def test_cloud_volume_is_preserved_under_advection():
    seq, _ = generate(_one_layer_spec(frames=8))
    counts = [mask.n_cloud for _, mask, _ in seq]
    assert len(set(counts)) == 1  # exact with periodic wrap


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(layers=())
    with pytest.raises(ValueError):
        SynthSpec(frames=1)
    for shape in [(0, 80), (60,), (60, 80.0), 60]:
        with pytest.raises(ValueError, match="shape"):
            SynthSpec(shape=shape)
    with pytest.raises(ValueError):
        SynthSpec(change_point=2)  # needs two layers
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=10.0,
                  layers=(LayerSpec(base_temp=280.0),
                          LayerSpec(base_temp=270.0)))  # 10 K < 4 * sigma
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SynthSpec(seed=-1)
    two = (LayerSpec(base_temp=280.0), LayerSpec(base_temp=260.0))
    for change_point in (-3, 0, 3, 40):
        with pytest.raises(ValueError, match="change_point"):
            SynthSpec(frames=3, layers=two, change_point=change_point)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(noise_sigma=sigma)


@settings(max_examples=60, deadline=None)
@given(st.integers(-1, 5), st.integers(1, 2), st.floats(0.0, 6.0),
       st.one_of(st.none(), st.integers(-3, 7)), st.integers(1, 9),
       st.integers(1, 9))
def test_spec_raises_or_generates_its_truth(frames, n_layers, noise,
                                            change_point, height, width):
    layers = (LayerSpec(base_temp=285.0, n_blobs=2, blob_scale=2.0),
              LayerSpec(base_temp=265.0, velocity=(-1.0, 1.0), n_blobs=2,
                        blob_scale=2.0))[:n_layers]
    try:
        spec = SynthSpec(shape=(height, width), frames=frames, layers=layers,
                         noise_sigma=noise, change_point=change_point)
    except ValueError:
        return
    seq, truth = generate(spec)
    assert len(seq) == len(truth) == frames
    # A change point lies inside the sequence: some frames before it, some
    # from it on.
    assert change_point is None or 0 < change_point < frames
    for t, l in enumerate(truth):
        active = 1 if change_point is not None and t < change_point else n_layers
        assert 0 <= l <= active


def test_write_with_truth_round_trip(tmp_path):
    from cloudlayers.imaging import load_sequence
    spec = _one_layer_spec(frames=3)
    seq, truth = generate(spec)
    manifest, truth_path = write_with_truth(tmp_path / "seq", seq, truth)
    loaded = load_sequence(manifest)
    assert len(loaded) == 3
    np.testing.assert_array_equal(loaded[1][0].temperatures,
                                  seq[1][0].temperatures)
    doc = json.loads(truth_path.read_text())
    assert [e["l"] for e in doc["frames"]] == truth
    assert [e["t"] for e in doc["frames"]] == [0, 1, 2]


def _mgrid_bump_field(shape, centers, scale):
    """The elementwise bump field over a full index grid: the oracle that
    ``synth._bump_field`` must match bit for bit."""
    m, n = shape
    ii, jj = np.mgrid[0:m, 0:n]
    total = np.zeros(shape)
    for ci, cj in centers:
        di = (ii - ci + m / 2) % m - m / 2
        dj = (jj - cj + n / 2) % n - n / 2
        total += np.exp(-(di * di + dj * dj) / (2.0 * scale * scale))
    return total


def _set_truth(labels):
    """The layer count of a label image, one pixel at a time: the oracle."""
    return len({k for k in labels.ravel() if k > 0})


@pytest.mark.parametrize("shape", [(1, 37), (29, 1), (1, 1), (7, 13),
                                   (31, 45), (60, 80)])
def test_bump_field_matches_mgrid_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    m, n = shape
    for scale in (2, 3.7, 8.0, 12.5):
        # Centres inside the grid, past its far edges and at negative
        # positions, as advection by any velocity puts them.
        centers = rng.uniform([-3 * m, -3 * n], [4 * m, 4 * n], size=(7, 2))
        centers[0] = (0.0, 0.0)
        centers[1] = (-0.5, n + 0.25)
        got = synth._bump_field(shape, centers, scale)
        assert np.array_equal(got, _mgrid_bump_field(shape, centers, scale))


def _assert_same_sequence(a, b):
    assert len(a) == len(b)
    for (fa, ma, la), (fb, mb, lb) in zip(a, b):
        assert np.array_equal(fa.temperatures, fb.temperatures)
        assert np.array_equal(ma.values, mb.values)
        assert np.array_equal(la, lb)


_ORACLE_SPECS = pytest.mark.parametrize("spec", [
    SynthSpec(shape=(1, 23), frames=3, seed=3),
    SynthSpec(shape=(17, 1), frames=3, seed=4),
    SynthSpec(shape=(21, 33), frames=4, noise_sigma=3.0, seed=5,
              change_point=2,
              layers=(LayerSpec(base_temp=280.0, velocity=(1.5, -0.25),
                                n_blobs=3, blob_scale=4.5),
                      LayerSpec(base_temp=266.0, velocity=(-2.75, 3.125),
                                n_blobs=5, blob_scale=2.0))),
    SynthSpec(shape=(60, 80), frames=3, noise_sigma=0.0, seed=6,
              layers=(LayerSpec(base_temp=285.0, velocity=(0.3, 0.7)),
                      LayerSpec(base_temp=265.0, velocity=(-1, 1)))),
    SynthSpec(shape=(8, 10), frames=3, noise_sigma=0.5, seed=9,
              layers=(LayerSpec(base_temp=285.0, velocity=(1, 0),
                                n_blobs=8, blob_scale=12.0),
                      LayerSpec(base_temp=265.0, velocity=(0.5, 1),
                                n_blobs=4, blob_scale=3.0))),
], ids=["1xN", "Nx1", "odd-change-point", "fractional-velocity",
        "occluded"])


@_ORACLE_SPECS
def test_generate_matches_mgrid_oracle(monkeypatch, spec):
    seq, truth = generate(spec)
    assert truth == [_set_truth(labels) for _, _, labels in seq]
    assert all(type(t) is int for t in truth)
    monkeypatch.setattr(synth, "_bump_field", _mgrid_bump_field)
    oracle_seq, oracle_truth = generate(spec)
    _assert_same_sequence(seq, oracle_seq)
    assert truth == oracle_truth


def _gathered_frames(spec):
    """generate's temperatures and labels written through boolean-index
    gathers and scatters: the oracle its where-masked writes must match bit
    for bit."""
    rng = np.random.default_rng(spec.seed)
    m, n = spec.shape
    centers0 = [rng.uniform([0, 0], [m, n], size=(layer.n_blobs, 2))
                for layer in spec.layers]
    frames = []
    for t in range(spec.frames):
        active = range(len(spec.layers))
        if spec.change_point is not None and t < spec.change_point:
            active = [0]
        temp = np.full(spec.shape, spec.background_temp)
        labels = np.zeros(spec.shape, dtype=int)
        best_base = np.full(spec.shape, -np.inf)
        for k in active:
            layer = spec.layers[k]
            u, v = layer.velocity
            centers = centers0[k] + t * np.array([v, u])
            cov = synth._bump_field(spec.shape, centers, layer.blob_scale)
            take = (cov > COVERAGE_THRESHOLD) & (layer.base_temp > best_base)
            temp[take] = (layer.base_temp
                          + layer.amplitude * (cov[take] - COVERAGE_THRESHOLD))
            labels[take] = k + 1
            best_base[take] = layer.base_temp
        if spec.noise_sigma > 0:
            temp = temp + rng.normal(0.0, spec.noise_sigma, size=spec.shape)
        frames.append((temp, labels))
    return frames


@_ORACLE_SPECS
def test_generate_matches_boolean_index_oracle(spec):
    seq, _ = generate(spec)
    oracle = _gathered_frames(spec)
    assert len(seq) == len(oracle)
    for (frame, mask, labels), (temp, oracle_labels) in zip(seq, oracle):
        assert np.array_equal(frame.temperatures, temp)
        assert np.array_equal(labels, oracle_labels)
        assert np.array_equal(mask.values, oracle_labels > 0)


def test_fully_occluded_layer_is_not_counted():
    # The warm layer covers the whole grid, so the colder one, though
    # active, labels no pixel.
    spec = SynthSpec(shape=(8, 10), frames=3, noise_sigma=0.5, seed=9,
                     layers=(LayerSpec(base_temp=285.0, velocity=(1, 0),
                                       n_blobs=8, blob_scale=12.0),
                             LayerSpec(base_temp=265.0, velocity=(0.5, 1),
                                       n_blobs=4, blob_scale=3.0)))
    seq, truth = generate(spec)
    assert all(np.all(labels == 1) for _, _, labels in seq)
    assert truth == [_set_truth(labels) for _, _, labels in seq] == [1] * 3

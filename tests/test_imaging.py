"""Frame/mask validation, feature normalizers and sequence round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers.imaging import (DegenerateNormalizationError, EmptyMaskError,
                                 Frame, SegmentationMask, load_sequence,
                                 normalize_beta, normalize_gamma,
                                 write_sequence)


def _frame(values, index=0):
    return Frame(np.asarray(values, dtype=float), index=index)


def test_frame_validation():
    with pytest.raises(ValueError):
        _frame([1.0, 2.0])                      # not 2-D
    with pytest.raises(ValueError):
        _frame([[1.0, np.nan]])                 # not finite
    with pytest.raises(ValueError):
        _frame([[0.0, 250.0]])                  # nonpositive Kelvin
    with pytest.raises(ValueError):
        _frame([[250.0]], index=-1)
    f = _frame([[250.0, 260.0], [240.0, 255.0], [245.0, 248.0]])
    assert (f.height, f.width) == (3, 2)


def test_mask_counts_cloud_pixels():
    m = SegmentationMask(np.array([[1, 0], [1, 1]]))
    assert m.n_cloud == 3
    with pytest.raises(ValueError):
        SegmentationMask(np.array([1, 0]))


def test_normalize_beta_endpoints():
    f = _frame([[250.0, 260.0], [270.0, 280.0]])
    m = SegmentationMask(np.ones((2, 2), dtype=bool))
    vals = normalize_beta(f, m, eps=1e-6)
    # min -> eps, max -> 1 - eps, interior points affine.
    np.testing.assert_allclose(
        vals, [1e-6, 1.0 / 3.0, 2.0 / 3.0, 1.0 - 1e-6], atol=1e-9)
    assert np.all(vals > 0) and np.all(vals < 1)


def test_normalize_beta_respects_mask():
    f = _frame([[250.0, 900.0], [270.0, 280.0]])
    m = SegmentationMask(np.array([[1, 0], [1, 1]], dtype=bool))
    vals = normalize_beta(f, m)
    assert vals.size == 3
    assert vals.max() == pytest.approx(1.0 - 1e-6)


def test_normalize_gamma_min_is_eps():
    f = _frame([[250.0, 260.0], [270.0, 280.0]])
    m = SegmentationMask(np.ones((2, 2), dtype=bool))
    vals = normalize_gamma(f, m, eps=1e-6)
    assert vals.min() == pytest.approx(1e-6)
    np.testing.assert_allclose(np.diff(np.sort(vals)), 10.0)


def test_constant_frame_is_degenerate():
    f = _frame(np.full((3, 3), 255.0))
    m = SegmentationMask(np.ones((3, 3), dtype=bool))
    with pytest.raises(DegenerateNormalizationError):
        normalize_beta(f, m)
    with pytest.raises(DegenerateNormalizationError):
        normalize_gamma(f, m)


def test_empty_mask_rejected():
    f = _frame(np.full((3, 3), 255.0))
    m = SegmentationMask(np.zeros((3, 3), dtype=bool))
    with pytest.raises(EmptyMaskError):
        normalize_beta(f, m)


def test_shape_mismatch_rejected():
    f = _frame(np.full((3, 3), 255.0))
    m = SegmentationMask(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        normalize_beta(f, m)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_normalize_beta_affine_order_preserved(seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(230.0, 290.0, size=(5, 7))
    t[0, 0], t[0, 1] = 230.0, 290.0  # guarantee spread
    f = _frame(t)
    m = SegmentationMask(np.ones((5, 7), dtype=bool))
    vals = normalize_beta(f, m)
    order_raw = np.argsort(t.ravel(), kind="stable")
    order_norm = np.argsort(vals, kind="stable")
    np.testing.assert_array_equal(order_raw, order_norm)


def _random_sequence(rng, n=3, shape=(4, 5)):
    out = []
    for t in range(n):
        temps = rng.uniform(200.0, 300.0, size=shape)
        mask = rng.random(shape) > 0.4
        out.append((Frame(temps, index=t), SegmentationMask(mask)))
    return out


def test_write_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    seq = _random_sequence(rng)
    manifest = write_sequence(tmp_path / "seq", seq)
    loaded = load_sequence(manifest)
    assert len(loaded) == len(seq)
    for (f0, m0), (f1, m1) in zip(seq, loaded):
        assert f0.index == f1.index
        np.testing.assert_array_equal(f0.temperatures, f1.temperatures)
        np.testing.assert_array_equal(m0.values, m1.values)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_sequence(tmp_path / "nope" / "manifest.json")


def test_load_missing_referenced_file(tmp_path):
    rng = np.random.default_rng(1)
    manifest = write_sequence(tmp_path / "seq", _random_sequence(rng))
    (tmp_path / "seq" / "frame_0001.csv").unlink()
    with pytest.raises(FileNotFoundError, match="frame_0001"):
        load_sequence(manifest)


def test_load_shape_mismatch_names_file(tmp_path):
    rng = np.random.default_rng(2)
    manifest = write_sequence(tmp_path / "seq", _random_sequence(rng))
    np.savetxt(tmp_path / "seq" / "frame_0002.csv",
               np.full((2, 2), 250.0), fmt="%.17g", delimiter=",")
    with pytest.raises(ValueError, match="frame_0002"):
        load_sequence(manifest)


def test_load_rejects_nonincreasing_indices(tmp_path):
    rng = np.random.default_rng(3)
    manifest = write_sequence(tmp_path / "seq", _random_sequence(rng))
    doc = json.loads(manifest.read_text())
    doc["frames"][1]["t"] = 0
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="increasing"):
        load_sequence(manifest)

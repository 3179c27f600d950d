"""Synthetic labeled cloud sequences for validation.

Each layer is a sum of smooth Gaussian bumps advected rigidly by its velocity
with periodic wrap, so rigid-translation ground truth is exact on the pixel
grid for integer displacements. Cloud pixels are where a layer's bump field
exceeds a fixed coverage threshold; where two layers overlap the warmer one
(the lower cloud) wins.

The benchmark's inputs come from :func:`generate`, so its output is fixed bit
for bit by the spec: the random draws happen in a fixed order, and each bump
field adds its blobs in their drawn order, every blob's value computed by the
same expressions in the same order (see :func:`_bump_field`). A faster form
of either must keep both orders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import Frame, SegmentationMask, write_sequence
from .numerics import is_int, is_real

COVERAGE_THRESHOLD = 0.5


def _check_real(name, x):
    """Raise ValueError unless x is a finite int or float; a bool is
    neither."""
    if not (is_real(x) and math.isfinite(x)):
        raise ValueError(f"{name} must be a finite number: {x!r}")


@dataclass(frozen=True)
class LayerSpec:
    base_temp: float                  # Kelvin at full coverage
    velocity: tuple = (1.0, 0.0)      # (u, v) pixels/frame: +x right, +y down
    n_blobs: int = 6
    blob_scale: float = 8.0           # Gaussian bump sigma, pixels
    amplitude: float = 3.0            # Kelvin spread inside the layer

    def __post_init__(self):
        for name in ("base_temp", "blob_scale", "amplitude"):
            _check_real(name, getattr(self, name))
        if not self.blob_scale > 0:
            raise ValueError(f"blob_scale must be > 0: {self.blob_scale}")
        if np.shape(self.velocity) != (2,):
            raise ValueError(f"velocity must be a pair: {self.velocity!r}")
        for c in self.velocity:
            _check_real("velocity", c)
        if not (is_int(self.n_blobs) and self.n_blobs > 0):
            raise ValueError(f"n_blobs must be a positive int: "
                             f"{self.n_blobs!r}")


@dataclass(frozen=True)
class SynthSpec:
    shape: tuple = (60, 80)           # (height, width)
    frames: int = 31
    layers: tuple = (LayerSpec(base_temp=280.0),)
    noise_sigma: float = 0.5
    background_temp: float = 240.0
    change_point: int = None          # frame index where layer 2 appears
    seed: int = 0

    def __post_init__(self):
        if np.shape(self.shape) != (2,) or not all(
                is_int(s) and s > 0 for s in self.shape):
            raise ValueError(f"shape must be two positive ints: {self.shape}")
        if not 1 <= len(self.layers) <= 2:
            raise ValueError("layer count must be 1 or 2")
        if not (is_int(self.frames) and self.frames >= 2):
            raise ValueError(f"frames must be an int >= 2: {self.frames!r}")
        _check_real("noise_sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        _check_real("background_temp", self.background_temp)
        if len(self.layers) == 2 and self.noise_sigma > 0:
            sep = abs(self.layers[0].base_temp - self.layers[1].base_temp)
            if sep < 4.0 * self.noise_sigma:
                raise ValueError("layer temperatures must be separated by "
                                 ">= 4x noise_sigma")
        if self.change_point is not None:
            if len(self.layers) != 2:
                raise ValueError("a change point requires two layers")
            if not (is_int(self.change_point)
                    and 0 < self.change_point < self.frames):
                raise ValueError("change_point must be an int with "
                                 "0 < change_point < frames")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an int: {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _bump_field(shape, centers, scale):
    """Sum of periodic Gaussian bumps at the given centers.

    A blob at (ci, cj) adds exp(-(di^2 + dj^2) / (2 scale^2)) at pixel
    (i, j), with the periodic offsets di = (i - ci + m / 2) % m - m / 2 and
    dj likewise. The offsets depend on the row or the column alone, so they
    are taken on the index vectors, for every blob at once, and only the
    sum, the division and the exp run over the grid. Each value is rounded
    as in the elementwise form, and the blobs add to a zero field in
    ``centers`` order, so the field is bit for bit the same.
    """
    m, n = shape
    ci, cj = np.asarray(centers, float).T
    di = (np.arange(m) - ci[:, None] + m / 2) % m - m / 2
    dj = (np.arange(n) - cj[:, None] + n / 2) % n - n / 2
    di *= di
    dj *= dj
    # x / -c is -(x / c) bit for bit: rounding is symmetric about 0.
    denom = -(2.0 * scale * scale)
    total = np.zeros(shape)
    bump = np.empty(shape)
    for di2, dj2 in zip(di, dj):
        np.add(di2[:, None], dj2, out=bump)
        np.divide(bump, denom, out=bump)
        np.exp(bump, out=bump)
        total += bump
    return total


def generate(spec):
    """Sequence of (Frame, SegmentationMask, pixel labels) plus frame truth.

    Pixel labels: 0 = clear sky, k = covered by layer k (1-based, in spec
    order). Frame truth is the count of layers actually present. Deterministic
    in the seed.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.shape
    centers0 = [rng.uniform([0, 0], [m, n], size=(layer.n_blobs, 2))
                for layer in spec.layers]
    sequence = []
    truth = []
    for t in range(spec.frames):
        active = list(range(len(spec.layers)))
        if spec.change_point is not None and t < spec.change_point:
            active = [0]
        temp = np.full(spec.shape, spec.background_temp, dtype=float)
        labels = np.zeros(spec.shape, dtype=int)
        best_base = np.full(spec.shape, -np.inf)
        for k in active:
            layer = spec.layers[k]
            u, v = layer.velocity
            centers = centers0[k] + t * np.array([v, u])
            cov = _bump_field(spec.shape, centers, layer.blob_scale)
            cloudy = cov > COVERAGE_THRESHOLD
            # the warmer (lower) layer occludes where layers overlap
            take = cloudy & (layer.base_temp > best_base)
            np.copyto(temp, layer.base_temp
                      + layer.amplitude * (cov - COVERAGE_THRESHOLD),
                      where=take)
            np.copyto(labels, k + 1, where=take)
            np.copyto(best_base, layer.base_temp, where=take)
        if spec.noise_sigma > 0:
            temp = temp + rng.normal(0.0, spec.noise_sigma, size=spec.shape)
        mask = labels > 0
        sequence.append((Frame(temp, index=t), SegmentationMask(mask), labels))
        truth.append(int(np.count_nonzero(np.bincount(labels.ravel())[1:])))
    return sequence, truth


def write_with_truth(directory, sequence, truth):
    """Write frames/masks via the imaging format plus a ground-truth JSON."""
    directory = Path(directory)
    manifest = write_sequence(directory,
                              [(f, mk) for f, mk, _ in sequence])
    for frame, _, labels in sequence:
        np.savetxt(directory / f"labels_{frame.index:04}.csv", labels,
                   fmt="%d", delimiter=",")
    truth_doc = {"frames": [{"t": f.index, "l": int(l),
                             "labels": f"labels_{f.index:04}.csv"}
                            for (f, _, _), l in zip(sequence, truth)]}
    truth_path = directory / "truth.json"
    truth_path.write_text(json.dumps(truth_doc, indent=2, sort_keys=True))
    return manifest, truth_path

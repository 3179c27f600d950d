"""Dense optical flow: finite-difference derivatives and the posterior-weighted
Lucas-Kanade solver.

The 2x2 differential kernels are applied as cross-correlations whose block at
(i, j) covers {(i,j), (i,j+1), (i+1,j), (i+1,j+1)} with replicate padding at
the last row/column:

    Kx = [[-1, 1], [-1, 1]]   Ky = [[-1, -1], [1, 1]]   Kt = ones(2,2)

Per pixel and layer, the flow is the ridge WLS solution over a window of
half-width w, with per-sample weights read from the layer's posterior grid:

    v = (X Gamma X^T + tau I)^-1 X Gamma y,   y = -It.

The entries of each layer's 2x2 system are window sums of six per-pixel
products, all read by slicing from one integral image of the six, padded
with zeros so that windows clipped at the grid's edges need no gathers.

These kernels carry a gain: a unit intensity gradient produces Ix = 2 while a
rigid unit displacement produces It = 4 of the opposite sign, so the raw WLS
solution equals -2 times the true pixel displacement. The solver rescales its
output by the constant GAIN = -1/2; the convention is pinned by the
synthetic-translation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import EmptyMaskError


@dataclass(frozen=True)
class WlkConfig:
    """Window half-width w (full width W = 2w + 1) and WLS ridge."""

    window_half_width: int = 8
    tau: float = 1e-8

    def __post_init__(self):
        if self.window_half_width < 1:
            raise ValueError("window_half_width must be >= 1")
        if not 0 <= self.tau < math.inf:
            raise ValueError("tau must be finite and >= 0")

    @property
    def window_width(self):
        return 2 * self.window_half_width + 1


@dataclass(frozen=True)
class DerivativeStack:
    ix: np.ndarray
    iy: np.ndarray
    it: np.ndarray


@dataclass(frozen=True)
class FlowField:
    """Per-pixel velocity components."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class WlkStats:
    """Diagnostics from one solve: fallback counts per layer."""

    singular_pixels: int = 0
    empty_windows: int = 0


# Output calibration applied to the raw WLS solution (see module doc).
GAIN = -0.5


def intensity_image(frame, mask):
    """8-bit-style intensity: masked temperatures rescaled linearly to [0, 255].

    The same affine map is applied to the whole grid and clipped, so sky
    pixels stay near the range ends without introducing new gradients.
    """
    vals = frame.temperatures[mask.values]
    if vals.size == 0:
        raise EmptyMaskError("mask selects no cloud pixels")
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        return np.zeros_like(frame.temperatures)
    return np.clip((frame.temperatures - lo) * (255.0 / (hi - lo)), 0.0, 255.0)


def _block_sum(img):
    """Sum of the forward 2x2 block at each pixel, replicate-padded."""
    p = np.pad(img, ((0, 1), (0, 1)), mode="edge")
    return p[:-1, :-1] + p[:-1, 1:] + p[1:, :-1] + p[1:, 1:]


def derivatives(prev, nxt):
    """Finite-difference stack for a consecutive intensity pair."""
    prev = np.asarray(prev, dtype=float)
    nxt = np.asarray(nxt, dtype=float)
    if prev.shape != nxt.shape:
        raise ValueError("frame shapes differ")
    p = np.pad(prev, ((0, 1), (0, 1)), mode="edge")
    ix = (p[:-1, 1:] - p[:-1, :-1]) + (p[1:, 1:] - p[1:, :-1])
    iy = (p[1:, :-1] - p[:-1, :-1]) + (p[1:, 1:] - p[:-1, 1:])
    it = _block_sum(prev) - _block_sum(nxt)
    return DerivativeStack(ix=ix, iy=iy, it=it)


def _window_sums(planes, w):
    """Clipped box sums of half-width w of each plane in ``planes``, a
    sequence of (m, n) arrays; returns one (len(planes), m, n) array.

    One integral image covers every plane, that of the planes padded with
    w + 1 rows and columns of zeros before the grid and w after it. A
    window's corners are then plain slices at offsets 0 and 2w + 1, even
    where it leaves the grid. Padding adds exact zeros, so the padded image
    is 0 before the grid and repeats its last row and column after it: each
    corner holds the same bits as the clipped corner of the unpadded image.
    """
    m, n = planes[0].shape
    s = np.stack(planes)
    np.cumsum(s, axis=1, out=s)
    np.cumsum(s, axis=2, out=s)
    c = np.zeros((len(planes), m + 2 * w + 1, n + 2 * w + 1))
    grid = c[:, w + 1:, w + 1:]
    grid[:, :m, :n] = s
    grid[:, m:, :n] = s[:, -1:]
    grid[:, :, n:] = grid[:, :, n - 1:n]
    lo_i, hi_i = slice(0, m), slice(2 * w + 1, 2 * w + 1 + m)
    lo_j, hi_j = slice(0, n), slice(2 * w + 1, 2 * w + 1 + n)
    return (c[:, hi_i, hi_j] - c[:, lo_i, hi_j]
            - c[:, hi_i, lo_j] + c[:, lo_i, lo_j])


# Relative determinant threshold below which the 2x2 system is treated as
# singular (tau = 0 fallback).
_SINGULAR_RDET = 1e-15


def wlk_solve(deriv, weights, cfg):
    """Posterior-weighted LK flow, one FlowField per layer.

    ``weights`` is a sequence of per-layer posterior grids in [0, 1] (zero at
    non-cloud pixels). Pixels whose window holds no weighted sample, or whose
    2x2 system is singular at tau = 0, receive (0, 0). Returns
    (list of FlowField, list of WlkStats).
    """
    w = cfg.window_half_width
    tau = cfg.tau
    y = -deriv.it
    fields, stats = [], []
    for g in weights:
        g = np.asarray(g, dtype=float)
        if g.shape != deriv.ix.shape:
            raise ValueError("weight grid shape differs from derivatives")
        if np.any(g < -1e-12) or np.any(g > 1 + 1e-12):
            raise ValueError("posterior weights must lie in [0, 1]")
        gx = g * deriv.ix
        gy = g * deriv.iy
        a11, a22, a12, b1, b2, wsum = _window_sums(
            (gx * deriv.ix, gy * deriv.iy, gx * deriv.iy, gx * y, gy * y, g),
            w)
        a11 = a11 + tau
        a22 = a22 + tau

        det = a11 * a22 - a12 * a12
        scale = np.maximum(np.maximum(a11, a22), 1e-300)
        empty = wsum <= 1e-12
        singular = (det <= _SINGULAR_RDET * scale * scale) & ~empty
        bad = empty | singular
        det_safe = np.where(bad, 1.0, det)
        u = np.where(bad, 0.0, (a22 * b1 - a12 * b2) / det_safe)
        v = np.where(bad, 0.0, (a11 * b2 - a12 * b1) / det_safe)
        fields.append(FlowField(u=GAIN * u, v=GAIN * v))
        stats.append(WlkStats(singular_pixels=int(singular.sum()),
                              empty_windows=int(empty.sum())))
    return fields, stats


def merge_layers(fields, weights):
    """Posterior-weighted average of per-layer fields.

    The layer weights must sum to 1 (within 1e-9) wherever any layer has
    support; pixels with zero total weight get zero flow.
    """
    wsum = np.zeros_like(np.asarray(weights[0], dtype=float))
    for g in weights:
        wsum = wsum + np.asarray(g, dtype=float)
    active = wsum > 1e-9
    if np.any(np.abs(wsum[active] - 1.0) > 1e-9):
        raise ValueError("layer posteriors do not sum to 1 on supported pixels")
    u = np.zeros_like(wsum)
    v = np.zeros_like(wsum)
    for f, g in zip(fields, weights):
        u = u + np.asarray(g, float) * f.u
        v = v + np.asarray(g, float) * f.v
    return FlowField(u=u, v=v)

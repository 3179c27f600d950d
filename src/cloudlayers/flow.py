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
products. Each is taken in place, in the plane that holds the product, by
two running-sum passes of ``scipy.ndimage.uniform_filter1d``, one per axis,
that read zeros outside the grid, so a window clipped at the grid's edges
sums the pixels inside it. The passes give window means, which are scaled
by the window's area (2w + 1)^2. No array of the solve is larger than one
plane.

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
from scipy.ndimage import uniform_filter1d

from .imaging import EmptyMaskError
from .numerics import is_int, is_real


@dataclass(frozen=True)
class WlkConfig:
    """Window half-width w (full width W = 2w + 1) and WLS ridge."""

    window_half_width: int = 8
    tau: float = 1e-8

    def __post_init__(self):
        if not is_int(self.window_half_width):
            raise ValueError("window_half_width must be an int: "
                             f"{self.window_half_width!r}")
        if self.window_half_width < 1:
            raise ValueError("window_half_width must be >= 1")
        if not is_real(self.tau):
            raise ValueError(f"tau must be a real number: {self.tau!r}")
        # The solve multiplies two tau-shifted sums, so tau squared must be
        # finite.
        if not (0 <= self.tau and self.tau * self.tau < math.inf):
            raise ValueError("tau must be >= 0 with a finite square")

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


def _edge_pad(img):
    """``img`` with its last row and its last column repeated once."""
    m, n = img.shape
    p = np.empty((m + 1, n + 1))
    p[:m, :n] = img
    p[m, :n] = img[-1]
    p[:, n] = p[:, n - 1]
    return p


def _block_sum(p):
    """Sum of the forward 2x2 block at each pixel of the edge-padded ``p``."""
    return p[:-1, :-1] + p[:-1, 1:] + p[1:, :-1] + p[1:, 1:]


def derivatives(prev, nxt):
    """Finite-difference stack for a consecutive intensity pair."""
    prev = np.asarray(prev, dtype=float)
    nxt = np.asarray(nxt, dtype=float)
    if prev.shape != nxt.shape:
        raise ValueError("frame shapes differ")
    p = _edge_pad(prev)
    ix = (p[:-1, 1:] - p[:-1, :-1]) + (p[1:, 1:] - p[1:, :-1])
    iy = (p[1:, :-1] - p[:-1, :-1]) + (p[1:, 1:] - p[:-1, 1:])
    it = _block_sum(p) - _block_sum(_edge_pad(nxt))
    return DerivativeStack(ix=ix, iy=iy, it=it)


def _box_sum(a, width, out):
    """Clipped box sums of width ``width`` of the plane ``a``, into ``out``,
    which may be ``a`` itself: the window means over zeros outside the grid,
    times the window's area."""
    uniform_filter1d(a, width, axis=0, output=out, mode="constant")
    uniform_filter1d(out, width, axis=1, output=out, mode="constant")
    out *= width * width
    return out


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
    width = cfg.window_width
    tau = cfg.tau
    ix, iy, y = deriv.ix, deriv.iy, -deriv.it
    m, n = ix.shape
    gx, gy, a11, a22, a12, b1, b2, det = (np.empty((m, n)) for _ in range(8))
    fields, stats = [], []
    for g in weights:
        g = np.asarray(g, dtype=float)
        if g.shape != ix.shape:
            raise ValueError("weight grid shape differs from derivatives")
        # min and max are NaN if any weight is, and NaN fails both tests.
        if not (g.min() >= -1e-12 and g.max() <= 1 + 1e-12):
            raise ValueError("posterior weights must lie in [0, 1]")
        np.multiply(g, ix, out=gx)
        np.multiply(g, iy, out=gy)
        # Each product is made in the array that takes its window sums.
        for out, a, b in ((a11, gx, ix), (a22, gy, iy), (a12, gx, iy),
                          (b1, gx, y), (b2, gy, y)):
            _box_sum(np.multiply(a, b, out=out), width, out)
        empty = _box_sum(g, width, det) <= 1e-12
        a11 += tau
        a22 += tau

        # gx and gy are free from here on: they hold the scratch terms.
        np.multiply(a11, a22, out=det)
        det -= np.multiply(a12, a12, out=gx)
        scale = np.maximum(np.maximum(a11, a22, out=gy), 1e-300, out=gy)
        threshold = np.multiply(_SINGULAR_RDET, scale, out=gx)
        threshold *= scale
        singular = (det <= threshold) & ~empty
        bad = empty | singular
        np.copyto(det, 1.0, where=bad)
        u = np.multiply(a22, b1)
        u -= np.multiply(a12, b2, out=gx)
        u /= det
        v = np.multiply(a11, b2)
        v -= np.multiply(a12, b1, out=gx)
        v /= det
        for r in (u, v):
            np.copyto(r, 0.0, where=bad)
            r *= GAIN
        fields.append(FlowField(u=u, v=v))
        stats.append(WlkStats(
            singular_pixels=int(np.count_nonzero(singular)),
            empty_windows=int(np.count_nonzero(empty))))
    return fields, stats


def merge_layers(fields, weights):
    """Posterior-weighted average of per-layer fields.

    The layer weights must sum to 1 (within 1e-9) wherever any layer has
    support; pixels with zero total weight get zero flow.
    """
    wsum = np.zeros_like(np.asarray(weights[0], dtype=float))
    for g in weights:
        wsum = wsum + np.asarray(g, dtype=float)
    # A NaN sum counts as support, and it is not within 1e-9 of 1.
    active = ~(wsum <= 1e-9)
    if not np.all(np.abs(wsum[active] - 1.0) <= 1e-9):
        raise ValueError("layer posteriors do not sum to 1 on supported pixels")
    u = np.zeros_like(wsum)
    v = np.zeros_like(wsum)
    for f, g in zip(fields, weights):
        u = u + np.asarray(g, float) * f.u
        v = v + np.asarray(g, float) * f.v
    return FlowField(u=u, v=v)

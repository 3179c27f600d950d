"""Dense optical flow: finite-difference derivatives and the posterior-weighted
Lucas-Kanade solver.

The 2x2 differential kernels are applied as cross-correlations whose block at
(i, j) covers {(i,j), (i,j+1), (i+1,j), (i+1,j+1)} with replicate padding at
the last row/column:

    Kx = [[-1, 1], [-1, 1]]   Ky = [[-1, -1], [1, 1]]   Kt = sigma * ones(2,2)

Per pixel and layer, the flow is the ridge WLS solution over a window of
half-width w, with per-sample weights read from the layer's posterior grid:

    v = (X Gamma X^T + tau I)^-1 X Gamma y,   y = -It.

These kernels carry a gain: a unit intensity gradient produces Ix = 2 while a
rigid unit displacement produces It = 4*sigma of the opposite sign, so the raw
WLS solution equals -2*sigma times the true pixel displacement. The solver
rescales its output by -1/(2*sigma); the convention is pinned by the
synthetic-translation tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imaging import EmptyMaskError


@dataclass(frozen=True)
class WlkConfig:
    """Window half-width w (full width W = 2w + 1), WLS ridge and kernel gain."""

    window_half_width: int = 8
    tau: float = 1e-8
    sigma: float = 1.0

    def __post_init__(self):
        if self.window_half_width < 1:
            raise ValueError("window_half_width must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def window_width(self):
        return 2 * self.window_half_width + 1


@dataclass(frozen=True)
class DerivativeStack:
    ix: np.ndarray
    iy: np.ndarray
    it: np.ndarray
    sigma: float


@dataclass(frozen=True)
class FlowField:
    """Per-pixel velocity components; magnitude/angle are always derived."""

    u: np.ndarray
    v: np.ndarray

    @property
    def magnitude(self):
        return np.hypot(self.u, self.v)

    @property
    def angle(self):
        # arctan2(U, V): the u component comes first in this convention.
        return np.arctan2(self.u, self.v)


@dataclass
class WlkStats:
    """Diagnostics from one solve: fallback counts per layer."""

    singular_pixels: int = 0
    empty_windows: int = 0


def flow_gain(sigma):
    """Output calibration applied to the raw WLS solution (see module doc)."""
    return -1.0 / (2.0 * sigma)


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


def derivatives(prev, nxt, sigma=1.0):
    """Finite-difference stack for a consecutive intensity pair."""
    prev = np.asarray(prev, dtype=float)
    nxt = np.asarray(nxt, dtype=float)
    if prev.shape != nxt.shape:
        raise ValueError("frame shapes differ")
    p = np.pad(prev, ((0, 1), (0, 1)), mode="edge")
    ix = (p[:-1, 1:] - p[:-1, :-1]) + (p[1:, 1:] - p[1:, :-1])
    iy = (p[1:, :-1] - p[:-1, :-1]) + (p[1:, 1:] - p[:-1, 1:])
    it = sigma * (_block_sum(prev) - _block_sum(nxt))
    return DerivativeStack(ix=ix, iy=iy, it=it, sigma=float(sigma))


def _window_sum(a, w):
    """Clipped box sum of half-width w via an integral image."""
    m, n = a.shape
    c = np.zeros((m + 1, n + 1))
    c[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    i = np.arange(m)
    j = np.arange(n)
    i0 = np.clip(i - w, 0, m)
    i1 = np.clip(i + w + 1, 0, m)
    j0 = np.clip(j - w, 0, n)
    j1 = np.clip(j + w + 1, 0, n)
    return (c[np.ix_(i1, j1)] - c[np.ix_(i0, j1)]
            - c[np.ix_(i1, j0)] + c[np.ix_(i0, j0)])


# Relative determinant threshold below which the 2x2 system is treated as
# singular (tau = 0 fallback).
_SINGULAR_RDET = 1e-15


def solve_window(ix, iy, y, gamma, tau):
    """Raw WLS solution for a single window (uncalibrated; test/oracle unit).

    All inputs are flat arrays of equal length; returns (u, v, singular).
    """
    ix = np.asarray(ix, float).ravel()
    iy = np.asarray(iy, float).ravel()
    y = np.asarray(y, float).ravel()
    g = np.asarray(gamma, float).ravel()
    a11 = np.sum(g * ix * ix) + tau
    a22 = np.sum(g * iy * iy) + tau
    a12 = np.sum(g * ix * iy)
    b1 = np.sum(g * ix * y)
    b2 = np.sum(g * iy * y)
    det = a11 * a22 - a12 * a12
    scale = max(a11, a22, 1e-300)
    if det <= _SINGULAR_RDET * scale * scale:
        return 0.0, 0.0, True
    return (a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det, False


def wlk_solve(deriv, weights, cfg):
    """Posterior-weighted LK flow, one FlowField per layer.

    ``weights`` is a sequence of per-layer posterior grids in [0, 1] (zero at
    non-cloud pixels). Pixels whose window holds no weighted sample, or whose
    2x2 system is singular at tau = 0, receive (0, 0). Returns
    (list of FlowField, list of WlkStats).
    """
    w = cfg.window_half_width
    tau = cfg.tau
    gain = flow_gain(deriv.sigma)
    y = -deriv.it
    fields, stats = [], []
    for g in weights:
        g = np.asarray(g, dtype=float)
        if g.shape != deriv.ix.shape:
            raise ValueError("weight grid shape differs from derivatives")
        if np.any(g < -1e-12) or np.any(g > 1 + 1e-12):
            raise ValueError("posterior weights must lie in [0, 1]")
        a11 = _window_sum(g * deriv.ix * deriv.ix, w) + tau
        a22 = _window_sum(g * deriv.iy * deriv.iy, w) + tau
        a12 = _window_sum(g * deriv.ix * deriv.iy, w)
        b1 = _window_sum(g * deriv.ix * y, w)
        b2 = _window_sum(g * deriv.iy * y, w)
        wsum = _window_sum(g, w)

        det = a11 * a22 - a12 * a12
        scale = np.maximum(np.maximum(a11, a22), 1e-300)
        empty = wsum <= 1e-12
        singular = (det <= _SINGULAR_RDET * scale * scale) & ~empty
        bad = empty | singular
        det_safe = np.where(bad, 1.0, det)
        u = np.where(bad, 0.0, (a22 * b1 - a12 * b2) / det_safe)
        v = np.where(bad, 0.0, (a11 * b2 - a12 * b1) / det_safe)
        fields.append(FlowField(u=gain * u, v=gain * v))
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

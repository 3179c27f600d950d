"""Derivative kernels, the weighted LS solver and its calibration."""

import math

import numpy as np
import pytest

from cloudlayers import flow
from cloudlayers.flow import (DerivativeStack, FlowField, WlkConfig, WlkStats,
                              derivatives, intensity_image, merge_layers,
                              wlk_solve)
from cloudlayers.imaging import EmptyMaskError, Frame, SegmentationMask


def _oracle_derivatives(prev, nxt):
    """Direct nested-loop cross-correlation with replicate padding."""
    m, n = prev.shape
    kx = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    ky = np.array([[-1.0, -1.0], [1.0, 1.0]])
    kt = np.ones((2, 2))

    def cc(img, k):
        p = np.pad(img, ((0, 1), (0, 1)), mode="edge")
        out = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                out[i, j] = np.sum(k * p[i:i + 2, j:j + 2])
        return out

    return cc(prev, kx), cc(prev, ky), cc(prev, kt) + cc(nxt, -kt)


def test_derivatives_match_direct_convolution():
    rng = np.random.default_rng(0)
    prev = rng.uniform(0, 255, size=(6, 7))
    nxt = rng.uniform(0, 255, size=(6, 7))
    d = derivatives(prev, nxt)
    ox, oy, ot = _oracle_derivatives(prev, nxt)
    np.testing.assert_allclose(d.ix, ox, atol=1e-12)
    np.testing.assert_allclose(d.iy, oy, atol=1e-12)
    np.testing.assert_allclose(d.it, ot, atol=1e-12)


def test_derivative_values_on_a_ramp():
    # prev[i, j] = 2 j: a pure x ramp gives Ix = 4 (sum of two unit steps
    # scaled by the gradient 2), Iy = 0.
    prev = np.tile(2.0 * np.arange(5), (4, 1))
    d = derivatives(prev, prev)
    np.testing.assert_allclose(d.ix[:, :-1], 4.0)
    np.testing.assert_allclose(d.ix[:, -1], 0.0)  # replicate pad kills the step
    np.testing.assert_allclose(d.iy, 0.0)
    np.testing.assert_allclose(d.it, 0.0)


def _oracle_ls(ix, iy, y, gamma, tau):
    """Brute-force weighted ridge LS on the explicit design matrix."""
    X = np.column_stack([np.ravel(ix), np.ravel(iy)])
    G = np.diag(np.ravel(gamma).astype(float))
    A = X.T @ G @ X + tau * np.eye(2)
    b = X.T @ G @ np.ravel(y)
    return np.linalg.solve(A, b)


def _solve_one_window(ix, iy, y, gamma, tau):
    """wlk_solve on a 1 x n grid whose every window holds all n samples.

    The temporal derivative is 2 y, so the calibrated flow (gain -1/2 on the
    solution for -It) is the raw WLS solution for y, without rounding.
    Returns the first pixel's u and v and the grid's WlkStats.
    """
    row = lambda a: np.asarray(a, float).reshape(1, -1)
    n = np.size(ix)
    deriv = DerivativeStack(ix=row(ix), iy=row(iy), it=2.0 * row(y))
    cfg = WlkConfig(window_half_width=n, tau=tau)
    (f,), (stats,) = wlk_solve(deriv, [row(gamma)], cfg)
    return f.u[0, 0], f.v[0, 0], stats


def test_solve_window_matches_lstsq_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        ix = rng.normal(size=25)
        iy = rng.normal(size=25)
        y = rng.normal(size=25)
        u, v, stats = _solve_one_window(ix, iy, y, np.ones(25), 0.0)
        assert stats.singular_pixels == 0
        expected = _oracle_ls(ix, iy, y, np.ones(25), 0.0)
        assert abs(u - expected[0]) <= 1e-10
        assert abs(v - expected[1]) <= 1e-10


def test_solve_window_weighted_matches_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        ix = rng.normal(size=30)
        iy = rng.normal(size=30)
        y = rng.normal(size=30)
        g = rng.uniform(0.0, 1.0, size=30)
        u, v, stats = _solve_one_window(ix, iy, y, g, 1e-8)
        assert stats.singular_pixels == 0
        expected = _oracle_ls(ix, iy, y, g, 1e-8)
        np.testing.assert_allclose([u, v], expected, atol=1e-9)


def test_solve_window_flags_singular_system():
    ix = np.ones(16)
    iy = np.ones(16)  # rank-1 design, det = 0
    u, v, stats = _solve_one_window(ix, iy, np.ones(16), np.ones(16), 0.0)
    assert stats.singular_pixels == 16 and stats.empty_windows == 0
    assert u == 0.0 and v == 0.0


def test_ridge_shrinks_solution_norm():
    rng = np.random.default_rng(5)
    ix = rng.normal(size=40)
    iy = rng.normal(size=40)
    y = rng.normal(size=40)
    g = np.ones(40)
    small = _solve_one_window(ix, iy, y, g, 1e-10)
    large = _solve_one_window(ix, iy, y, g, 1e3)
    assert np.hypot(*large[:2]) < np.hypot(*small[:2])


def test_wlk_solve_agrees_with_per_pixel_loop():
    rng = np.random.default_rng(6)
    prev = rng.uniform(0, 255, size=(10, 12))
    nxt = rng.uniform(0, 255, size=(10, 12))
    cfg = WlkConfig(window_half_width=2, tau=1e-8)
    d = derivatives(prev, nxt)
    g = rng.uniform(0.1, 1.0, size=(10, 12))
    (f,), (stats,) = wlk_solve(d, [g], cfg)
    y = -d.it
    m, n = prev.shape
    w = cfg.window_half_width
    for i in range(0, m, 3):
        for j in range(0, n, 3):
            sl = (slice(max(i - w, 0), i + w + 1),
                  slice(max(j - w, 0), j + w + 1))
            u, v = _oracle_ls(d.ix[sl], d.iy[sl], y[sl], g[sl], cfg.tau)
            assert f.u[i, j] == pytest.approx(-0.5 * u, abs=1e-10)
            assert f.v[i, j] == pytest.approx(-0.5 * v, abs=1e-10)
    assert stats.empty_windows == 0 and stats.singular_pixels == 0


def test_wlk_zero_weight_regions_are_empty():
    rng = np.random.default_rng(7)
    prev = rng.uniform(0, 255, size=(9, 9))
    nxt = rng.uniform(0, 255, size=(9, 9))
    cfg = WlkConfig(window_half_width=1)
    d = derivatives(prev, nxt)
    g = np.zeros((9, 9))
    g[:3, :3] = 1.0
    (f,), (stats,) = wlk_solve(d, [g], cfg)
    # Pixels whose window cannot reach the weighted block get (0, 0).
    assert f.u[8, 8] == 0.0 and f.v[8, 8] == 0.0
    assert stats.empty_windows > 0


def test_wlk_rejects_bad_weights():
    rng = np.random.default_rng(8)
    prev = rng.uniform(0, 255, size=(6, 6))
    d = derivatives(prev, prev)
    cfg = WlkConfig(window_half_width=1)
    with pytest.raises(ValueError):
        wlk_solve(d, [np.full((6, 6), 1.5)], cfg)
    with pytest.raises(ValueError):
        wlk_solve(d, [np.ones((5, 6))], cfg)


def _oracle_window_sum(a, w):
    """Clipped box sum of half-width w: an integral image read at the
    clipped window corners with np.ix_ gathers."""
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


def _oracle_wlk_solve(deriv, weights, cfg):
    """wlk_solve with each window sum taken by ``_oracle_window_sum``."""
    w, tau, y = cfg.window_half_width, cfg.tau, -deriv.it
    fields, stats = [], []
    for g in weights:
        a11 = _oracle_window_sum(g * deriv.ix * deriv.ix, w) + tau
        a22 = _oracle_window_sum(g * deriv.iy * deriv.iy, w) + tau
        a12 = _oracle_window_sum(g * deriv.ix * deriv.iy, w)
        b1 = _oracle_window_sum(g * deriv.ix * y, w)
        b2 = _oracle_window_sum(g * deriv.iy * y, w)
        wsum = _oracle_window_sum(g, w)
        det = a11 * a22 - a12 * a12
        scale = np.maximum(np.maximum(a11, a22), 1e-300)
        empty = wsum <= 1e-12
        singular = (det <= 1e-15 * scale * scale) & ~empty
        bad = empty | singular
        det_safe = np.where(bad, 1.0, det)
        u = np.where(bad, 0.0, (a22 * b1 - a12 * b2) / det_safe)
        v = np.where(bad, 0.0, (a11 * b2 - a12 * b1) / det_safe)
        fields.append(FlowField(u=-0.5 * u, v=-0.5 * v))
        stats.append(WlkStats(singular_pixels=int(singular.sum()),
                              empty_windows=int(empty.sum())))
    return fields, stats


def test_window_sums_match_gathered_integral_image():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 90), (90, 1), (2, 3), (60, 80), (90, 90)]
    shapes += [tuple(rng.integers(1, 91, size=2)) for _ in range(14)]
    for m, n in shapes:
        for w in (1, 3, 8, 20):  # 20 is wider than many of the grids
            planes = [rng.normal(scale=100.0, size=(m, n))
                      * (rng.uniform(size=(m, n)) < 0.6),
                      np.zeros((m, n)),
                      rng.uniform(size=(m, n))]
            sums = flow._window_sums(planes, w)
            assert sums.shape == (3, m, n)
            for got, a in zip(sums, planes):
                assert np.array_equal(got, _oracle_window_sum(a, w))


def test_wlk_solve_matches_gathered_window_sums():
    rng = np.random.default_rng(12)
    prev = rng.uniform(0, 255, size=(37, 53))
    nxt = np.roll(prev, (1, -1), axis=(0, 1)) + rng.normal(size=prev.shape)
    d = derivatives(prev, nxt)
    g = rng.uniform(size=prev.shape)
    g[:, :9] = 0.0  # zero weight, empty windows in layer 1
    g[20:, 30:] = 1.0  # zero weight in layer 2
    for w in (1, 8):
        cfg = WlkConfig(window_half_width=w)
        fields, stats = wlk_solve(d, [g, 1.0 - g], cfg)
        ref_fields, ref_stats = _oracle_wlk_solve(d, [g, 1.0 - g], cfg)
        assert stats == ref_stats
        assert stats[0].empty_windows > 0
        for f, ref in zip(fields, ref_fields):
            assert np.array_equal(f.u, ref.u) and np.array_equal(f.v, ref.v)


@pytest.mark.parametrize("shift,expect", [((0, 1), (1.0, 0.0)),
                                          ((1, 0), (0.0, 1.0)),
                                          ((0, -1), (-1.0, 0.0))])
def test_translation_recovery_sign_convention(shift, expect):
    # np.roll by (rows, cols); u is the +x (column) velocity, v is +y (row).
    # Low-frequency periodic texture: smooth at the 2x2 stencil scale and
    # exactly consistent with np.roll wrap-around.
    yy, xx = np.mgrid[0:30, 0:40]
    prev = (128.0 + 60.0 * np.sin(2 * np.pi * xx / 20.0)
            + 50.0 * np.cos(2 * np.pi * yy / 15.0)
            + 30.0 * np.sin(2 * np.pi * (xx / 10.0 + yy / 7.5)))
    nxt = np.roll(prev, shift, axis=(0, 1))
    cfg = WlkConfig(window_half_width=4)
    d = derivatives(prev, nxt)
    (f,), _ = wlk_solve(d, [np.ones_like(prev)], cfg)
    inner = (slice(6, -6), slice(6, -6))
    assert np.median(f.u[inner]) == pytest.approx(expect[0], abs=0.25)
    assert np.median(f.v[inner]) == pytest.approx(expect[1], abs=0.25)


def test_merge_layers_is_convex_combination():
    u1 = np.full((4, 4), 2.0)
    u2 = np.full((4, 4), -2.0)
    z = np.zeros((4, 4))
    g1 = np.full((4, 4), 0.25)
    g2 = np.full((4, 4), 0.75)
    merged = merge_layers([FlowField(u1, z), FlowField(u2, z)], [g1, g2])
    np.testing.assert_allclose(merged.u, 0.25 * 2.0 + 0.75 * (-2.0))
    np.testing.assert_allclose(merged.v, 0.0)


def test_merge_layers_single_layer_is_identity_on_support():
    rng = np.random.default_rng(10)
    u = rng.normal(size=(5, 5))
    v = rng.normal(size=(5, 5))
    g = np.zeros((5, 5))
    g[1:4, 1:4] = 1.0
    merged = merge_layers([FlowField(u, v)], [g])
    np.testing.assert_allclose(merged.u[1:4, 1:4], u[1:4, 1:4])
    np.testing.assert_allclose(merged.u[0], 0.0)


def test_merge_layers_rejects_non_simplex_weights():
    f = FlowField(np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        merge_layers([f, f], [np.full((3, 3), 0.5), np.full((3, 3), 0.2)])


def test_intensity_image_range_and_errors():
    t = np.array([[250.0, 270.0], [260.0, 255.0]])
    frame = Frame(t)
    mask = SegmentationMask(np.ones((2, 2), dtype=bool))
    img = intensity_image(frame, mask)
    assert img.min() == 0.0 and img.max() == 255.0
    with pytest.raises(EmptyMaskError):
        intensity_image(frame, SegmentationMask(np.zeros((2, 2), dtype=bool)))
    flat = intensity_image(Frame(np.full((2, 2), 250.0)), mask)
    np.testing.assert_allclose(flat, 0.0)


def test_wlk_config_rejects_a_tau_whose_square_overflows():
    # The solve's determinant multiplies two tau-shifted sums.
    with pytest.raises(ValueError, match="finite square"):
        WlkConfig(tau=1e155)
    assert WlkConfig(tau=1e150).tau == 1e150


def test_wlk_config_validation():
    with pytest.raises(ValueError):
        WlkConfig(window_half_width=0)
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            WlkConfig(tau=tau)
    assert WlkConfig(window_half_width=8).window_width == 17

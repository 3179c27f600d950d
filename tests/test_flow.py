"""Derivative kernels, the weighted LS solver and its calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers.flow import (FlowField, WlkConfig, derivatives, flow_gain,
                              intensity_image, merge_layers, solve_window,
                              wlk_solve)
from cloudlayers.imaging import EmptyMaskError, Frame, SegmentationMask


def _oracle_derivatives(prev, nxt, sigma):
    """Direct nested-loop cross-correlation with replicate padding."""
    m, n = prev.shape
    kx = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    ky = np.array([[-1.0, -1.0], [1.0, 1.0]])
    kt = sigma * np.ones((2, 2))

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
    d = derivatives(prev, nxt, sigma=1.3)
    ox, oy, ot = _oracle_derivatives(prev, nxt, 1.3)
    np.testing.assert_allclose(d.ix, ox, atol=1e-12)
    np.testing.assert_allclose(d.iy, oy, atol=1e-12)
    np.testing.assert_allclose(d.it, ot, atol=1e-12)


def test_derivative_values_on_a_ramp():
    # prev[i, j] = 2 j: a pure x ramp gives Ix = 4 (sum of two unit steps
    # scaled by the gradient 2), Iy = 0.
    prev = np.tile(2.0 * np.arange(5), (4, 1))
    d = derivatives(prev, prev, sigma=1.0)
    np.testing.assert_allclose(d.ix[:, :-1], 4.0)
    np.testing.assert_allclose(d.ix[:, -1], 0.0)  # replicate pad kills the step
    np.testing.assert_allclose(d.iy, 0.0)
    np.testing.assert_allclose(d.it, 0.0)


def test_temporal_derivative_scales_with_sigma():
    rng = np.random.default_rng(1)
    prev = rng.uniform(0, 255, size=(5, 5))
    nxt = rng.uniform(0, 255, size=(5, 5))
    d1 = derivatives(prev, nxt, sigma=1.0)
    d3 = derivatives(prev, nxt, sigma=3.0)
    np.testing.assert_allclose(d3.it, 3.0 * d1.it, atol=1e-12)
    np.testing.assert_allclose(d3.ix, d1.ix)


def _oracle_ls(ix, iy, y, gamma, tau):
    """Brute-force weighted ridge LS on the explicit design matrix."""
    X = np.column_stack([np.ravel(ix), np.ravel(iy)])
    G = np.diag(np.ravel(gamma).astype(float))
    A = X.T @ G @ X + tau * np.eye(2)
    b = X.T @ G @ np.ravel(y)
    return np.linalg.solve(A, b)


def test_solve_window_matches_lstsq_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        ix = rng.normal(size=25)
        iy = rng.normal(size=25)
        y = rng.normal(size=25)
        u, v, singular = solve_window(ix, iy, y, np.ones(25), 0.0)
        assert not singular
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
        u, v, singular = solve_window(ix, iy, y, g, 1e-8)
        assert not singular
        expected = _oracle_ls(ix, iy, y, g, 1e-8)
        np.testing.assert_allclose([u, v], expected, atol=1e-9)


def test_solve_window_flags_singular_system():
    ix = np.ones(16)
    iy = np.ones(16)  # rank-1 design, det = 0
    u, v, singular = solve_window(ix, iy, np.ones(16), np.ones(16), 0.0)
    assert singular and u == 0.0 and v == 0.0


def test_ridge_shrinks_solution_norm():
    rng = np.random.default_rng(5)
    ix = rng.normal(size=40)
    iy = rng.normal(size=40)
    y = rng.normal(size=40)
    g = np.ones(40)
    small = solve_window(ix, iy, y, g, 1e-10)
    large = solve_window(ix, iy, y, g, 1e3)
    assert np.hypot(*large[:2]) < np.hypot(*small[:2])


def test_wlk_solve_agrees_with_per_pixel_loop():
    rng = np.random.default_rng(6)
    prev = rng.uniform(0, 255, size=(10, 12))
    nxt = rng.uniform(0, 255, size=(10, 12))
    cfg = WlkConfig(window_half_width=2, tau=1e-8, sigma=1.0)
    d = derivatives(prev, nxt, cfg.sigma)
    g = rng.uniform(0.1, 1.0, size=(10, 12))
    (f,), (stats,) = wlk_solve(d, [g], cfg)
    gain = flow_gain(cfg.sigma)
    y = -d.it
    m, n = prev.shape
    w = cfg.window_half_width
    for i in range(0, m, 3):
        for j in range(0, n, 3):
            sl = (slice(max(i - w, 0), i + w + 1),
                  slice(max(j - w, 0), j + w + 1))
            u, v, singular = solve_window(d.ix[sl], d.iy[sl], y[sl],
                                          g[sl], cfg.tau)
            assert not singular
            assert f.u[i, j] == pytest.approx(gain * u, abs=1e-10)
            assert f.v[i, j] == pytest.approx(gain * v, abs=1e-10)
    assert stats.empty_windows == 0


def test_wlk_zero_weight_regions_are_empty():
    rng = np.random.default_rng(7)
    prev = rng.uniform(0, 255, size=(9, 9))
    nxt = rng.uniform(0, 255, size=(9, 9))
    cfg = WlkConfig(window_half_width=1)
    d = derivatives(prev, nxt, cfg.sigma)
    g = np.zeros((9, 9))
    g[:3, :3] = 1.0
    (f,), (stats,) = wlk_solve(d, [g], cfg)
    # Pixels whose window cannot reach the weighted block get (0, 0).
    assert f.u[8, 8] == 0.0 and f.v[8, 8] == 0.0
    assert stats.empty_windows > 0


def test_wlk_rejects_bad_weights():
    rng = np.random.default_rng(8)
    prev = rng.uniform(0, 255, size=(6, 6))
    d = derivatives(prev, prev, 1.0)
    cfg = WlkConfig(window_half_width=1)
    with pytest.raises(ValueError):
        wlk_solve(d, [np.full((6, 6), 1.5)], cfg)
    with pytest.raises(ValueError):
        wlk_solve(d, [np.ones((5, 6))], cfg)


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
    d = derivatives(prev, nxt, cfg.sigma)
    (f,), _ = wlk_solve(d, [np.ones_like(prev)], cfg)
    inner = (slice(6, -6), slice(6, -6))
    assert np.median(f.u[inner]) == pytest.approx(expect[0], abs=0.25)
    assert np.median(f.v[inner]) == pytest.approx(expect[1], abs=0.25)


def test_flow_gain_value():
    assert flow_gain(1.0) == -0.5
    assert flow_gain(2.0) == -0.25


def test_flow_field_angle_convention():
    f = FlowField(u=np.array([[1.0]]), v=np.array([[0.0]]))
    assert f.angle[0, 0] == pytest.approx(np.pi / 2)  # arctan2(u, v)
    assert f.magnitude[0, 0] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_angle_round_trip(u, v):
    f = FlowField(u=np.array([[u]]), v=np.array([[v]]))
    r = f.magnitude[0, 0]
    phi = f.angle[0, 0]
    assert r * np.sin(phi) == pytest.approx(u, abs=1e-9)
    assert r * np.cos(phi) == pytest.approx(v, abs=1e-9)


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


def test_wlk_config_validation():
    with pytest.raises(ValueError):
        WlkConfig(window_half_width=0)
    with pytest.raises(ValueError):
        WlkConfig(tau=-1.0)
    with pytest.raises(ValueError):
        WlkConfig(sigma=0.0)
    assert WlkConfig(window_half_width=8).window_width == 17

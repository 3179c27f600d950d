"""Derivative kernels, the weighted LS solver and its calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import window_sums

from cloudlayers import flow
from cloudlayers.flow import (DerivativeStack, FlowField, WlkConfig, WlkStats,
                              derivatives, intensity_image, merge_layers,
                              wlk_solve)
from cloudlayers.imaging import EmptyMaskError, Frame, SegmentationMask

EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wlk_rejects_a_non_finite_weight(bad):
    # One NaN weight in a 20x20 solve at w = 2 turned 361 of its 400
    # pixels of u into NaN, with no error.
    rng = np.random.default_rng(9)
    prev = rng.uniform(0, 255, size=(20, 20))
    d = derivatives(prev, np.roll(prev, 1, axis=1))
    g = rng.uniform(size=(20, 20))
    g[7, 11] = bad
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        wlk_solve(d, [g, 1.0 - g], WlkConfig(window_half_width=2))


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


def _solver_window_sum(a, w):
    """The solver's clipped box sum of half-width w, out of place."""
    return flow._box_sum(a, 2 * w + 1, np.empty_like(a))


def _oracle_systems(deriv, g, cfg, window_sum):
    """The window sums a11, a22, a12, b1, b2 and the weight sum of one
    layer's 2x2 systems, each taken by ``window_sum(plane, w)``."""
    w, tau, y = cfg.window_half_width, cfg.tau, -deriv.it
    return (window_sum(g * deriv.ix * deriv.ix, w) + tau,
            window_sum(g * deriv.iy * deriv.iy, w) + tau,
            window_sum(g * deriv.ix * deriv.iy, w),
            window_sum(g * deriv.ix * y, w),
            window_sum(g * deriv.iy * y, w),
            window_sum(g, w))


def _oracle_wlk_solve(deriv, weights, cfg, window_sum=_oracle_window_sum):
    """wlk_solve with each window sum taken by ``window_sum``, by default
    the gathered ``_oracle_window_sum``."""
    fields, stats = [], []
    for g in weights:
        a11, a22, a12, b1, b2, wsum = _oracle_systems(deriv, g, cfg,
                                                      window_sum)
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


def _condition_numbers(deriv, g, cfg):
    """kappa(A) of each pixel's 2x2 system A of the gathered solve: the
    ratio of its eigenvalues' magnitudes, inf where the smaller is 0."""
    a11, a22, a12, *_ = _oracle_systems(deriv, g, cfg, _oracle_window_sum)
    mid = 0.5 * (a11 + a22)
    radius = np.hypot(0.5 * (a11 - a22), a12)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(mid + radius) / np.abs(mid - radius)


def _box_sum_bound(a, w):
    """How far the solver's box sums of half-width w of ``a`` may lie from
    the exact sums: 64 eps per summand of the largest magnitude."""
    return 64 * EPS * (2 * w + 1) ** 2 * np.abs(a).max()


def _assert_within_conditioning(deriv, weights, cfg):
    """wlk_solve has the gathered solve's WlkStats, and each of its fields
    lies within 1e3 eps kappa(A) (1 + |oracle field|) of the gathered one,
    kappa(A) being the condition number of the pixel's 2x2 system. The two
    sums of a window round differently, and a solve magnifies that by
    about kappa(A)."""
    fields, stats = wlk_solve(deriv, weights, cfg)
    ref_fields, ref_stats = _oracle_wlk_solve(deriv, weights, cfg)
    assert stats == ref_stats
    for f, r, g in zip(fields, ref_fields, weights):
        kappa = _condition_numbers(deriv, g, cfg)
        for got, ref in ((f.u, r.u), (f.v, r.v)):
            gap = np.abs(got - ref)
            with np.errstate(invalid="ignore"):
                bound = 1e3 * EPS * kappa * (1.0 + np.abs(ref))
            assert np.all((gap == 0.0) | (gap <= bound))


def test_window_sums_match_gathered_integral_image():
    # The planes lie on a grid of 2**-20, where every sum of the integral
    # images is exact, so the references are the exact window sums and the
    # bound measures the solver's own rounding. A zero plane, whose bound
    # is 0, must sum to exact zeros.
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 90), (90, 1), (2, 3), (60, 80), (90, 90)]
    shapes += [tuple(rng.integers(1, 91, size=2)) for _ in range(14)]
    for m, n in shapes:
        for w in (1, 3, 8, 20):  # 20 is wider than many of the grids
            planes = [rng.normal(scale=100.0, size=(m, n))
                      * (rng.uniform(size=(m, n)) < 0.6),
                      np.zeros((m, n)),
                      rng.uniform(size=(m, n))]
            planes = [np.round(a * 2.0**20) / 2.0**20 for a in planes]
            stacked = window_sums(planes, w)
            for a, ref in zip(planes, stacked):
                assert np.array_equal(ref, _oracle_window_sum(a, w))
                out = np.empty((m, n))
                assert flow._box_sum(a, 2 * w + 1, out) is out
                assert np.abs(out - ref).max() <= _box_sum_bound(a, w)
                # In place, as wlk_solve takes the sums of its products.
                same = a.copy()
                flow._box_sum(same, 2 * w + 1, same)
                assert same.tobytes() == out.tobytes()


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
        _, stats = wlk_solve(d, [g, 1.0 - g], cfg)
        assert stats[0].empty_windows > 0
        _assert_within_conditioning(d, [g, 1.0 - g], cfg)


def _assert_same_bits(got, ref):
    fields, stats = got
    ref_fields, ref_stats = ref
    assert stats == ref_stats
    assert len(fields) == len(ref_fields)
    for f, r in zip(fields, ref_fields):
        assert np.array_equal(f.u, r.u) and np.array_equal(f.v, r.v)
        assert f.u.tobytes() == r.u.tobytes()
        assert f.v.tobytes() == r.v.tobytes()


def _layers(rng, shape, kind):
    """Posterior grids for ``kind``: three layers, an all-zero layer beside
    a layer of ones, or weights that are exactly 0 and 1."""
    if kind == "three":
        return list(np.moveaxis(rng.dirichlet([1.0, 1.0, 1.0], size=shape),
                                -1, 0))
    if kind == "zero-layer":
        return [np.zeros(shape), np.ones(shape)]
    hard = (rng.uniform(size=shape) < 0.5).astype(float)
    return [hard, 1.0 - hard]


@pytest.mark.parametrize("shape,w", [((37, 53), 1), ((37, 53), 8),
                                     ((1, 40), 20), ((40, 1), 20),
                                     ((2, 3), 20)])
@pytest.mark.parametrize("kind", ["three", "zero-layer", "zero-one"])
def test_wlk_solve_is_bitwise_the_gathered_solve(shape, w, kind):
    # Bit for bit, the gathered solve's 2x2 arithmetic, thresholds and
    # fallbacks over the solver's own box sums; over the gathered sums,
    # the same flags and fields within the systems' conditioning.
    rng = np.random.default_rng(13)
    prev = rng.uniform(0, 255, size=shape)
    nxt = prev + rng.normal(scale=4.0, size=shape)
    d = derivatives(prev, nxt)
    weights = _layers(rng, shape, kind)
    cfg = WlkConfig(window_half_width=w)
    got = wlk_solve(d, weights, cfg)
    _assert_same_bits(got, _oracle_wlk_solve(d, weights, cfg,
                                             _solver_window_sum))
    _assert_within_conditioning(d, weights, cfg)
    if kind == "zero-layer":
        assert got[1][0].empty_windows == prev.size
        assert not got[0][0].u.any() and not got[0][0].v.any()


def test_wlk_solve_keeps_no_large_temporaries():
    # Six stacked planes of a 60x80 grid take 230 KB and their padded
    # integral image 360 KB; a solve that builds them peaks near 2 MB.
    rng = np.random.default_rng(14)
    prev = rng.uniform(0, 255, size=(60, 80))
    d = derivatives(prev, np.roll(prev, 1, axis=1))
    g = rng.uniform(size=prev.shape)
    weights = [g, 1.0 - g]
    cfg = WlkConfig()
    tracemalloc.start()
    try:
        result = wlk_solve(d, weights, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 2
    assert peak < 1_000_000


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


def test_merge_layers_rejects_a_nan_weight():
    # A NaN pixel went straight through to the merged field.
    f = FlowField(np.ones((3, 3)), np.ones((3, 3)))
    g = np.full((3, 3), 0.5)
    nan = g.copy()
    nan[1, 2] = math.nan
    with pytest.raises(ValueError, match="do not sum to 1"):
        merge_layers([f, f], [g, nan])
    with pytest.raises(ValueError, match="do not sum to 1"):
        merge_layers([f], [np.where(np.eye(3) > 0, math.nan, 0.0)])


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
    # A window of 2.0 gave a width of 5.0, and the solve then raised
    # TypeError; True passed as 1, and tau=True as 1.0.
    for w in (True, False, 2.0, 1.5, "2", None):
        with pytest.raises(ValueError,
                           match="window_half_width must be an int"):
            WlkConfig(window_half_width=w)
    for tau in (True, False, "1e-8", None, 1j):
        with pytest.raises(ValueError, match="tau must be a real number"):
            WlkConfig(tau=tau)
    assert WlkConfig(window_half_width=8).window_width == 17
    cfg = WlkConfig(window_half_width=np.int64(2), tau=np.float64(1e-6))
    assert cfg.window_width == 5
    assert WlkConfig(tau=0).tau == 0 and WlkConfig(tau=np.int32(1)).tau == 1

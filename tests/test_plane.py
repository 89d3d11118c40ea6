import math

import numpy as np
import pytest

from finsleroid import tensors
from finsleroid import (Space, fmf, gen_trig, indicatrix_length,
                        landsberg_check, make_param, metric, rund_residual,
                        trig_derivatives)

FS = np.linspace(0.05, math.pi - 0.05, 60)


def test_trig_euclidean():
    p = make_param(0.0)
    for f in FS:
        t = gen_trig(p, float(f))
        assert t.cos_g == pytest.approx(math.cos(f), abs=1e-14)
        assert t.sin_g == pytest.approx(math.sin(f), abs=1e-14)
        assert t.cos_star == pytest.approx(math.cos(f), abs=1e-14)


def test_trig_at_zero():
    p = make_param(0.7)
    t = gen_trig(p, 0.0)
    assert t.sin_g == 0.0
    assert t.cos_g == pytest.approx(math.exp(-p.G * math.pi / 4), rel=1e-14)


def test_trig_traces_unit_level_set():
    sp = Space.euclidean(2)
    for g in (0.4, -0.9, 1.5):
        p = make_param(g)
        for f in FS:
            t = gen_trig(p, float(f))
            R = np.array([t.sin_g, t.cos_g])
            assert fmf(p, sp, R) == pytest.approx(1.0, abs=1e-12)


def test_trig_derivative_identities_fd():
    # exact chain: (cos_g)' = -sin_g/h, (sin_g)' = h cos_star, plus the
    # explicit (cos_star)'; all checked against central differences
    eps = 1e-6
    for g in (0.0, 0.4, -0.8, 1.4):
        p = make_param(g)
        for f in FS:
            f = float(f)
            d = trig_derivatives(p, f)
            tp, tm = gen_trig(p, f + eps), gen_trig(p, f - eps)
            assert d.cos_g == pytest.approx((tp.cos_g - tm.cos_g) / (2 * eps), abs=1e-7)
            assert d.sin_g == pytest.approx((tp.sin_g - tm.sin_g) / (2 * eps), abs=1e-7)
            assert d.cos_star == pytest.approx((tp.cos_star - tm.cos_star) / (2 * eps),
                                               abs=1e-7)
            t = gen_trig(p, f)
            assert d.cos_g == pytest.approx(-t.sin_g / p.h, abs=1e-12)
            assert d.sin_g == pytest.approx(p.h * t.cos_star, abs=1e-12)


def test_trig_broadcasts_like_scalar_calls():
    # one array pass gives the per-element scalar values
    fs = np.linspace(0.0, math.pi, 361)
    for g in (0.0, 0.4, -0.4, 1.9, -1.9):
        p = make_param(g)
        for fn in (gen_trig, trig_derivatives):
            arr = fn(p, fs)
            for field in ("cos_g", "sin_g", "cos_star"):
                vals = getattr(arr, field)
                assert vals.shape == fs.shape
                one = np.array([getattr(fn(p, float(f)), field) for f in fs])
                np.testing.assert_allclose(vals, one, rtol=1e-15, atol=0)


def test_indicatrix_length_values():
    assert indicatrix_length(make_param(0.0)) == pytest.approx(2 * math.pi, abs=1e-15)
    g_half = math.sqrt(3.0)  # h = 1/2
    assert indicatrix_length(make_param(g_half)) == pytest.approx(4 * math.pi, rel=1e-12)


def test_indicatrix_length_quadrature():
    # numeric arc length of the parameterized curve against 2 pi / h
    sp = Space.euclidean(2)
    for g in (0.0, 0.4, -1.1):
        p = make_param(g)
        n = 20000
        fs = np.linspace(0.0, math.pi, n + 1)
        pts = np.array([[gen_trig(p, float(f)).sin_g, gen_trig(p, float(f)).cos_g]
                        for f in fs])
        total = 0.0
        for k in range(n):
            dR = pts[k + 1] - pts[k]
            mid = 0.5 * (pts[k + 1] + pts[k])
            gm = metric(p, sp, mid)
            total += math.sqrt(dR @ gm @ dR)
        # upper half sweep covers f in [0, pi]: half the closed curve
        assert 2 * total == pytest.approx(indicatrix_length(p), abs=1e-6)


def test_arc_length_element_is_df_over_h():
    # ds = df/h pointwise via the metric line element
    sp = Space.euclidean(2)
    for g in (0.3, -1.2):
        p = make_param(g)
        eps = 1e-6
        for f in np.linspace(0.2, math.pi - 0.2, 25):
            f = float(f)
            tp, tm = gen_trig(p, f + eps), gen_trig(p, f - eps)
            dR = np.array([tp.sin_g - tm.sin_g, tp.cos_g - tm.cos_g]) / (2 * eps)
            gm = metric(p, sp, np.array([gen_trig(p, f).sin_g, gen_trig(p, f).cos_g]))
            assert math.sqrt(dR @ gm @ dR) == pytest.approx(1.0 / p.h, abs=1e-8)


def test_rund_residual_zero_with_correct_scalar():
    assert rund_residual(make_param(0.0), FS) <= 1e-10
    assert rund_residual(make_param(0.4), FS) <= 1e-8
    assert rund_residual(make_param(-1.3), FS) <= 1e-8


def test_rund_negative_control():
    # wrong sign of the scalar leaves a residual bounded away from zero
    p = make_param(0.4)
    assert rund_residual(p, FS, cartan_scalar=+p.g) > 0.01


def test_landsberg_one_metric_call(monkeypatch):
    # sqrt_det comes from one metric call over the stacked samples
    shapes = []
    fn = tensors.metric

    def counted(p, sp, R):
        shapes.append(np.shape(R))
        return fn(p, sp, R)
    monkeypatch.setattr(tensors, "metric", counted)
    landsberg_check(make_param(0.4), FS)
    assert shapes == [(len(FS), 2)]


def test_landsberg_identities():
    for g in (0.0, 0.6, -0.9, 1.4):
        out = landsberg_check(make_param(g), FS)
        assert out["wronskian"] <= 1e-10
        assert out["sqrt_det"] <= 1e-10
        assert out["convexity"] <= 1e-10


def test_plane_checks_return_floats():
    # plain floats, from an array, a list or a generator of samples alike
    p = make_param(-0.6)
    out = landsberg_check(p, FS)
    assert set(out) == {"wronskian", "sqrt_det", "convexity"}
    assert all(type(v) is float for v in out.values())
    assert landsberg_check(p, list(FS)) == out
    assert landsberg_check(p, (float(f) for f in FS)) == out
    res = rund_residual(p, FS)
    assert type(res) is float
    assert rund_residual(p, (float(f) for f in FS)) == res
    assert rund_residual(p, []) == 0.0


def test_convexity_ratio_value():
    # the strong-convexity ratio is the constant 1/h^2
    p = make_param(0.6)
    # reproduce the ratio directly at a few points
    from finsleroid.plane import _curve
    for f in (0.3, 1.2, 2.5):
        R, dR, d2R, _ = _curve(p, f)
        ratio = (d2R[1] * dR[0] - dR[1] * d2R[0]) / (dR[1] * R[0] - R[1] * dR[0])
        assert ratio == pytest.approx(1 / 0.91, rel=1e-12)


def test_length_grows_toward_cone_limit():
    gs = np.linspace(0.0, 1.99, 40)
    lens = [indicatrix_length(make_param(float(g))) for g in gs]
    assert all(a < b for a, b in zip(lens, lens[1:]))
    assert lens[0] == pytest.approx(2 * math.pi)
    assert lens[-1] > 20 * math.pi


def test_generatrix_is_evaluated_once_per_call(monkeypatch):
    # J(f) is formed once by each of these calls, and the checks reuse it
    from finsleroid import plane
    calls = []
    j = plane._j
    monkeypatch.setattr(plane, "_j", lambda p, f: calls.append(f) or j(p, f))
    p = make_param(0.6)
    for fn in (gen_trig, trig_derivatives, rund_residual, landsberg_check):
        calls.clear()
        fn(p, FS)
        assert len(calls) == 1, fn.__name__

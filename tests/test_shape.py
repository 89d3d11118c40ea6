import math

import numpy as np
import pytest

from finsleroid import (BadDirection, Space, VertexSingular, fmf, gen_trig,
                        indicatrix_point, indicatrix_profile, make_param,
                        profile_slopes, scalar_forms, shape_report)
from conftest import rand_space


def profile_radius_bisect(p, Z, lo=1e-12, hi=None):
    """Oracle: solve K(q, Z) = 1 for q by bisection (independent of the
    f-parameterization)."""
    sp = Space.euclidean(2)

    def kval(q):
        return fmf(p, sp, np.array([q, Z])) - 1.0

    if hi is None:
        hi = 1.0
        while kval(hi) < 0:
            hi *= 2.0
    flo = kval(lo)
    assert flo < 0 < kval(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kval(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_report_euclidean():
    r = shape_report(make_param(0.0))
    assert r.q_star == 1.0 and r.Z1 == -1.0 and r.Z2 == 1.0
    assert r.altitude == 2.0 and r.width == 2.0 and r.Z_2star == 0.0


def test_report_altitude_frozen_value():
    # oracle value: profile extreme scan at g = 0.4 gives 2.1036922000716323
    r = shape_report(make_param(0.4))
    assert r.altitude == pytest.approx(2.1036922000716323, abs=1e-14)
    p = make_param(0.4)
    assert r.altitude == pytest.approx(2 * math.cosh(p.G * math.pi / 4), abs=1e-15)


def test_report_branch_sign_rule():
    # Z_2star >= 0 exactly when g <= 0
    for g in (-1.5, -0.4, 0.0, 0.4, 1.5):
        r = shape_report(make_param(g))
        assert (r.Z_2star >= 0) == (g <= 0)
        assert r.Z_2star == pytest.approx(-g * r.q_2star, abs=1e-15)
        assert r.width == 2 * r.q_2star


def test_report_matches_two_branch_form():
    # published two-branch value of the extremal angular argument
    for g in (-1.7, -0.9, -0.2, 0.2, 0.9, 1.7):
        p = make_param(g)
        G, h = p.G, p.h
        sign = 1.0 if g < 0 else -1.0
        phi_star = (sign * math.pi / 2 + math.atan(G / 2)
                    - math.atan((g * g - 2) / (2 * g * h)))
        r = shape_report(p)
        assert r.q_2star == pytest.approx(math.exp(-0.5 * G * phi_star), rel=1e-13)


def test_report_limiting_vertex_ratio():
    # q_2star / |Z_2star| -> 1/2 as |g| -> 2
    for g in (1.999, -1.999):
        r = shape_report(make_param(g))
        assert r.q_2star / abs(r.Z_2star) == pytest.approx(0.5, abs=1e-3)
    # monotone approach
    vals = [shape_report(make_param(g)).q_2star / abs(shape_report(make_param(g)).Z_2star)
            for g in (1.0, 1.5, 1.9, 1.99)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_point_poles_and_circle(rng):
    p = make_param(0.7)
    sp = Space.euclidean(3)
    n = np.array([1.0, 0.0])
    pole = indicatrix_point(p, sp, 0.0, n)
    assert np.allclose(pole, [0, 0, math.exp(-p.G * math.pi / 4)], atol=1e-15)
    south = indicatrix_point(p, sp, math.pi, n)
    assert south[-1] == pytest.approx(-math.exp(p.G * math.pi / 4), rel=1e-14)
    # g = 0: unit sphere
    p0 = make_param(0.0)
    for f in np.linspace(0, math.pi, 9):
        l = indicatrix_point(p0, sp, float(f), n)
        assert np.allclose(l, [math.sin(f), 0.0, math.cos(f)], atol=1e-15)


def test_point_unit_norm_random(rng):
    for _ in range(100):
        n_dim = int(rng.choice([2, 3, 4]))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n_dim, rng)
        v = rng.normal(size=n_dim - 1)
        v = v / math.sqrt(v @ sp.r_spatial @ v)
        f = float(rng.uniform(0, math.pi))
        l = indicatrix_point(p, sp, f, v)
        assert abs(fmf(p, sp, l) - 1.0) <= 1e-12
        # parameter recovery f = arctan(h q / A)
        fr = scalar_forms(p, sp, l)
        assert math.atan2(p.h * fr.q, fr.A) == pytest.approx(f, abs=1e-12)


def test_point_rejects_bad_direction():
    p = make_param(0.4)
    sp = Space.euclidean(3)
    with pytest.raises(BadDirection):
        indicatrix_point(p, sp, 1.0, np.array([1.0, 1.0]))
    # a non-finite direction is refused as a non-finite vector is, with no
    # warning on the way (warnings are errors): NaN fails no bound test
    for n in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            indicatrix_point(p, sp, 1.0, np.array(n))


def test_profile_on_unit_level_and_convex():
    sp = Space.euclidean(2)
    for g in (-1.4, -0.4, 0.0, 0.4, 1.4):
        p = make_param(g)
        prof = indicatrix_profile(p, 400)
        for q, z in prof:
            assert abs(fmf(p, sp, np.array([q, z])) - 1.0) <= 1e-12
        # d2q/dZ2 < 0 strictly at interior samples (q > 0)
        inner = prof[1:-1]
        d2 = -np.array([z * z + g * q * z + q * q for q, z in inner]) / inner[:, 0] ** 3
        assert np.all(d2 < 0)


def test_profile_rows_are_gen_trig():
    for g in (-1.9, -0.4, 0.0, 0.6):
        p = make_param(g)
        t = gen_trig(p, np.linspace(0.0, math.pi, 361))
        prof = indicatrix_profile(p, 361)
        assert np.array_equal(prof[:, 0], t.sin_g)
        assert np.array_equal(prof[:, 1], t.cos_g)
        n = np.array([1.0])
        for f in (0.0, 0.7, math.pi):
            tf = gen_trig(p, f)
            assert np.array_equal(indicatrix_point(p, Space.euclidean(2), f, n),
                                  [tf.sin_g, tf.cos_g])


def test_profile_semicircle_at_g0():
    prof = indicatrix_profile(make_param(0.0), 200)
    assert np.allclose(prof[:, 0] ** 2 + prof[:, 1] ** 2, 1.0, atol=1e-14)
    assert np.all(prof[:, 0] >= -1e-15)


def test_profile_mirror_law():
    for g in (0.2, 0.4, 0.6, 1.3):
        plus = indicatrix_profile(make_param(g), 257)
        minus = indicatrix_profile(make_param(-g), 257)
        flipped = minus[::-1].copy()
        flipped[:, 1] *= -1
        assert np.max(np.abs(plus - flipped)) <= 1e-12


def test_profile_extremes_match_report():
    p = make_param(0.8)
    r = shape_report(p)
    prof = indicatrix_profile(p, 200001)
    assert prof[:, 1].max() == pytest.approx(r.Z2, abs=1e-10)
    assert prof[:, 1].min() == pytest.approx(r.Z1, abs=1e-10)
    i = int(np.argmax(prof[:, 0]))
    assert prof[i, 0] == pytest.approx(r.q_2star, abs=1e-8)
    assert prof[i, 1] == pytest.approx(r.Z_2star, abs=1e-4)


def test_profile_against_bisection_oracle():
    p = make_param(0.6)
    r = shape_report(p)
    for Z in (0.0, 0.3, -0.5, 0.9 * r.Z2):
        q_oracle = profile_radius_bisect(p, Z)
        # find the same point through the parameterization
        prof = indicatrix_profile(p, 200001)
        upper = prof[prof[:, 1] >= r.Z_2star - 1e-12] if Z >= r.Z_2star else prof
        j = int(np.argmin(np.abs(upper[:, 1] - Z)))
        assert upper[j, 0] == pytest.approx(q_oracle, abs=1e-4)
        sp2 = Space.euclidean(2)
        assert fmf(p, sp2, np.array([q_oracle, Z])) == pytest.approx(1.0, abs=1e-12)


def test_equator_crossing_is_q_star():
    for g in (0.5, -1.2):
        p = make_param(g)
        assert profile_radius_bisect(p, 0.0) == pytest.approx(
            shape_report(p).q_star, abs=1e-12)


def test_slopes_closed_forms():
    p = make_param(0.6)
    sp = Space.euclidean(2)
    # pole: slope 0
    z2 = shape_report(p).Z2
    s1, s2 = profile_slopes(p, sp, np.array([0.0, z2]))
    assert s1 == 0.0
    # equator crossing from above: slope -> -1/g
    qs = shape_report(p).q_star
    s1, _ = profile_slopes(p, sp, np.array([qs, 0.0]))
    assert s1 == pytest.approx(-1.0 / p.g, rel=1e-13)
    # circle case: slope = -q/Z
    p0 = make_param(0.0)
    s1, s2 = profile_slopes(p0, sp, np.array([0.6, 0.8]))
    assert s1 == pytest.approx(-0.75, rel=1e-13)
    assert s2 == pytest.approx(-1.0 / 0.8**3, rel=1e-13)


def test_slopes_match_profile_finite_differences():
    p = make_param(0.9)
    sp = Space.euclidean(2)
    prof = indicatrix_profile(p, 2000001)
    r = shape_report(p)
    # restrict to the upper branch where Z(q) is single-valued
    upper = prof[prof[:, 1] > r.Z_2star + 0.05]
    for frac in (0.2, 0.5, 0.8):
        j = int(frac * (len(upper) - 2)) + 1
        q, z = upper[j]
        slope_fd = (upper[j + 1, 1] - upper[j - 1, 1]) / (upper[j + 1, 0] - upper[j - 1, 0])
        s1, _ = profile_slopes(p, sp, np.array([q, z]))
        assert s1 == pytest.approx(slope_fd, rel=1e-6, abs=1e-6)


def test_slopes_vertex_singular():
    p = make_param(0.6)
    sp = Space.euclidean(2)
    r = shape_report(p)
    with pytest.raises(VertexSingular):
        profile_slopes(p, sp, np.array([r.q_2star, r.Z_2star]))


def test_width_curves_monotone():
    # equator radius q_star decreases in |g|; width height Z_2star decreases in g
    gs = np.linspace(-1.95, 1.95, 79)
    qstars = [shape_report(make_param(float(g))).q_star for g in gs]
    z2stars = [shape_report(make_param(float(g))).Z_2star for g in gs]
    assert qstars[len(gs) // 2] == pytest.approx(1.0, abs=1e-15)
    half = len(gs) // 2
    assert all(a < b for a, b in zip(qstars[:half], qstars[1:half + 1]))
    assert all(a > b for a, b in zip(qstars[half:], qstars[half + 1:]))
    assert all(a > b for a, b in zip(z2stars, z2stars[1:]))

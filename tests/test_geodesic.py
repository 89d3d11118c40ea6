import math

import numpy as np
import pytest

from finsleroid import (AntipodalSingular, CollinearVectors, NotUnitSpeed,
                        Space, cartan, connect, difference_gradients,
                        endpoint_velocities, finsleroid_geodesic, fmf,
                        make_param, n_metric, qe_christoffel,
                        qe_angle, qe_geodesic_at, qe_geodesic_initial,
                        qe_velocity, sigma)
from conftest import rand_space, rand_vec


def draw_pair(rng, dims=(2, 3, 5), alpha_max=2.8):
    """Random valid boundary pair with a healthy swept angle."""
    while True:
        n = int(rng.choice(dims))
        p = make_param(float(rng.uniform(-1.8, 1.8)))
        sp = rand_space(n, rng)
        t1 = rand_vec(p, sp, rng, min_q=0.0)
        t2 = rand_vec(p, sp, rng, min_q=0.0)
        try:
            bd = connect(p, t1, t2, space=sp)
        except AntipodalSingular:
            continue
        if 0.05 < bd.alpha < alpha_max and bd.delta_s > 0.1:
            return p, sp, bd


def test_connect_coincident(rng):
    p = make_param(0.7)
    sp = Space.euclidean(3)
    t = rand_vec(p, sp, rng)
    bd = connect(p, t, t.copy(), space=sp)
    assert bd.alpha == 0.0 and bd.delta_s == 0.0
    assert bd.b == pytest.approx(bd.a)


def test_connect_euclidean_is_chord(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    for _ in range(30):
        t1 = rand_vec(p, sp, rng)
        t2 = rand_vec(p, sp, rng)
        bd = connect(p, t1, t2, space=sp)
        assert bd.delta_s == pytest.approx(sp.norm(t2 - t1), rel=1e-12)
        # straight segment
        for s in np.linspace(0, bd.delta_s, 7):
            t, _ = qe_geodesic_at(bd, float(s))
            expect = t1 + (t2 - t1) * s / bd.delta_s
            assert np.allclose(t, expect, rtol=1e-10, atol=1e-12)


def test_connect_frozen_example():
    # g = 0.4, t1 = (1,0), t2 = (0,1): oracle values frozen from the
    # closed form plus an independent arc-length integration
    p = make_param(0.4)
    bd = connect(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert bd.alpha == pytest.approx(1.60318728770233, abs=1e-13)
    assert bd.alpha == pytest.approx(math.pi / (2 * p.h), abs=1e-13)
    assert bd.delta_s**2 == pytest.approx(2.0647705944873307, abs=1e-12)
    assert bd.delta_s**2 == pytest.approx(2 - 2 * math.cos(bd.alpha), abs=1e-13)


def test_connect_invariants(rng):
    for _ in range(100):
        p, sp, bd = draw_pair(rng)
        assert bd.a == pytest.approx(sp.norm(bd.t1), rel=1e-14)
        assert bd.S_end == pytest.approx(sp.norm(bd.t2), rel=1e-14)
        # S^2(delta_s) law and the two sign/branch relations
        S2 = bd.a**2 + 2 * bd.b * bd.delta_s + bd.delta_s**2
        assert S2 == pytest.approx(bd.S_end**2, rel=1e-11)
        root = math.sqrt(max(bd.a**2 - bd.b**2, 0))
        assert root * bd.delta_s == pytest.approx(
            bd.a * bd.S_end * math.sin(bd.alpha), rel=1e-9)
        assert bd.a**2 + bd.b * bd.delta_s == pytest.approx(
            bd.a * bd.S_end * math.cos(bd.alpha), rel=1e-9, abs=1e-11)
        # prescribed product rule
        assert sp.dot(bd.t1, bd.t2) == pytest.approx(
            bd.a * bd.S_end * math.cos(p.h * bd.alpha), rel=1e-11, abs=1e-12)


def test_small_angles_exact():
    # the angle keeps its relative accuracy as the pair closes up
    p = make_param(0.4)
    t1 = np.array([1.0, 0.0, 0.0])
    for k in range(4, 11):
        phi = 10.0 ** -k
        t2 = np.array([math.cos(phi), math.sin(phi), 0.0])
        assert qe_angle(p, t1, t2) == pytest.approx(phi / p.h, rel=1e-14, abs=0)
        bd = connect(p, t1, t2)
        assert not bd.radial
        assert bd.alpha == pytest.approx(phi / p.h, rel=1e-14, abs=0)


def test_near_radial_mid_arc_angle():
    # t2 = 2 t1 + eps d: at mid-arc nu / alpha tends to 2/3 as eps -> 0
    p = make_param(0.4)
    t1 = np.array([0.8, -0.3, 1.1])
    d = np.array([0.2, 0.9, -0.4])
    for k in range(6, 11):
        bd = connect(p, t1, 2.0 * t1 + 10.0 ** -k * d)
        _, nu = qe_geodesic_at(bd, 0.5 * bd.delta_s)
        assert abs(nu / bd.alpha - 2.0 / 3.0) <= 1e-6


def test_antipodal_raises():
    p = make_param(0.0)
    with pytest.raises(AntipodalSingular):
        connect(p, np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
    # swept angle beyond pi with h < 1
    p = make_param(1.2)
    aE = 0.995 * math.pi
    t2 = 1.5 * np.array([math.sin(aE), math.cos(aE)])
    with pytest.raises(AntipodalSingular):
        connect(p, np.array([0.0, 2.0]), t2)


def test_endpoints_and_nu(rng):
    for _ in range(60):
        p, sp, bd = draw_pair(rng)
        t0, nu0 = qe_geodesic_at(bd, 0.0)
        t1, nu1 = qe_geodesic_at(bd, bd.delta_s)
        assert np.max(np.abs(t0 - bd.t1)) <= 1e-12 * bd.a
        assert np.max(np.abs(t1 - bd.t2)) <= 1e-12 * bd.S_end
        assert nu0 == 0.0
        assert nu1 == pytest.approx(bd.alpha, abs=1e-12)


def test_norm_law_and_planarity(rng):
    for _ in range(40):
        p, sp, bd = draw_pair(rng)
        basis = np.stack([bd.t1, bd.t2])
        for s in np.linspace(0, bd.delta_s, 9):
            t, nu = qe_geodesic_at(bd, float(s))
            S2 = bd.a**2 + 2 * bd.b * s + s * s
            assert sp.dot(t, t) == pytest.approx(S2, rel=1e-13)
            # plane curve: t in span{t1, t2}
            coeff, res, *_ = np.linalg.lstsq(basis.T, t, rcond=None)
            assert np.max(np.abs(basis.T @ coeff - t)) < 1e-10 * max(1.0, np.max(np.abs(t)))


def test_norm_law_near_the_antipodal_limit(rng):
    # swept angles 1e-3 to 1e-2 short of pi: the curve passes the origin at
    # S ~ (pi - alpha) a |t2| / delta_s, and |t| = S still holds to the last
    # bits there, at one arc length and along an array of them
    sp = rand_space(3, rng)
    for _ in range(60):
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        t1 = rand_vec(p, sp, rng, min_q=0.0)
        e = rand_vec(p, sp, rng, min_q=0.0)
        e = e - sp.dot(e, t1) / sp.dot(t1, t1) * t1
        e *= sp.norm(t1) / sp.norm(e)
        turn = p.h * (math.pi - 10.0 ** rng.uniform(-3.0, -2.0))
        t2 = rng.uniform(0.3, 3.0) * (math.cos(turn) * t1 + math.sin(turn) * e)
        bd = connect(p, t1, t2, space=sp)
        assert 1e-3 * 0.99 <= math.pi - bd.alpha <= 1e-2 * 1.01
        s = np.linspace(0.0, bd.delta_s, 33)
        S2 = bd.a**2 + 2 * bd.b * s + s * s
        t, _ = qe_geodesic_at(bd, s)
        assert np.max(np.abs(sp.dot(t, t) - S2) / S2) <= 1e-14
        for k in (8, 16, 24):
            tk, _ = qe_geodesic_at(bd, float(s[k]))
            assert abs(sp.dot(tk, tk) - S2[k]) <= 1e-14 * S2[k]


def test_geodesic_ode_residual(rng):
    worst = 0.0
    for _ in range(25):
        p, sp, bd = draw_pair(rng, dims=(2, 3, 4))
        eps = 1e-4 * bd.delta_s
        for s in np.linspace(0.1, 0.9, 7) * bd.delta_s:
            ts = [qe_geodesic_at(bd, float(s + k * eps))[0] for k in (-2, -1, 0, 1, 2)]
            d2 = (-ts[0] + 16 * ts[1] - 30 * ts[2] + 16 * ts[3] - ts[4]) / (12 * eps * eps)
            v = qe_velocity(bd, float(s))
            chris = qe_christoffel(p, sp, ts[2])
            res = d2 + np.einsum("qpr,q,r->p", chris, v, v)
            worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= 1e-5


def test_velocity_fd_and_unit_speed(rng):
    for _ in range(40):
        p, sp, bd = draw_pair(rng)
        eps = 1e-6 * bd.delta_s
        for s in np.linspace(0.1, 0.9, 5) * bd.delta_s:
            v = qe_velocity(bd, float(s))
            tp, _ = qe_geodesic_at(bd, float(s + eps))
            tm, _ = qe_geodesic_at(bd, float(s - eps))
            assert np.max(np.abs(v - (tp - tm) / (2 * eps))) <= 1e-7 * max(1.0, np.max(np.abs(v)))
            t, _ = qe_geodesic_at(bd, float(s))
            nm = n_metric(p, sp, t)
            assert v @ nm.low @ v == pytest.approx(1.0, abs=1e-12)


def test_endpoint_velocity_products(rng):
    for _ in range(60):
        p, sp, bd = draw_pair(rng)
        v1, v2 = endpoint_velocities(bd)
        assert sp.dot(bd.t1, v1) == pytest.approx(bd.b, rel=1e-9, abs=1e-11)
        assert sp.dot(bd.t2, v2) == pytest.approx(bd.b + bd.delta_s, rel=1e-9, abs=1e-11)
        nm1 = n_metric(p, sp, bd.t1)
        assert v1 @ nm1.low @ v1 == pytest.approx(1.0, abs=1e-12)
        nm2 = n_metric(p, sp, bd.t2)
        assert v2 @ nm2.low @ v2 == pytest.approx(1.0, abs=1e-12)


def test_initial_value_roundtrip(rng):
    for _ in range(50):
        p, sp, bd = draw_pair(rng)
        v1, _ = endpoint_velocities(bd)
        for s in np.linspace(0.0, bd.delta_s, 11):
            rec = qe_geodesic_initial(p, bd.t1, v1, float(s), space=sp)
            ref, _ = qe_geodesic_at(bd, float(s))
            assert np.max(np.abs(rec - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_initial_value_trivial_cases(rng):
    p = make_param(0.9)
    sp = Space.euclidean(3)
    t1 = rand_vec(p, sp, rng)
    # radial launch
    v1 = t1 / sp.norm(t1)
    out = qe_geodesic_initial(p, t1, v1, 0.7, space=sp)
    assert np.allclose(out, t1 + 0.7 * v1, rtol=1e-12)
    assert np.allclose(qe_geodesic_initial(p, t1, v1, 0.0, space=sp), t1)
    # g = 0: straight line for any unit vector
    p0 = make_param(0.0)
    w = rng.normal(size=3)
    w = w / sp.norm(w)
    assert np.allclose(qe_geodesic_initial(p0, t1, w, 1.3, space=sp),
                       t1 + 1.3 * w, rtol=1e-12)


def test_initial_value_refuses_a_stack(rng):
    # the name, kept so the test ids stay, is that of the check this
    # replaced: qe_geodesic_initial takes stacked (t1, v1) now, with per-row
    # g and s a float or one per row. Each row is within 1e-14 of its
    # one-pair call, and the radial rows (outward, inward, and inward past
    # the origin) run along t1 + s v1 with no 0/0 (warnings are errors)
    for n, identity in ((2, True), (3, False), (5, False)):
        sp = rand_space(n, rng, identity=identity)
        g = rng.uniform(-1.5, 1.5, size=12)
        g[4] = g[10] = 0.0
        T1 = rng.normal(size=(12, n))
        V1 = np.empty((12, n))
        for i in range(9):
            t2 = T1[i] + 0.5 * rng.normal(size=n)
            V1[i] = endpoint_velocities(connect(make_param(g[i]), T1[i], t2, space=sp))[0]
        for i, sign in ((9, 1.0), (10, -1.0), (11, -1.0)):
            V1[i] = sign * T1[i] / sp.norm(T1[i])
        s = 0.4 * sp.norm(T1)
        s[11] = 2.5 * sp.norm(T1[11])
        P = make_param(g)
        for arc in (s, 0.3):
            out = qe_geodesic_initial(P, T1, V1, arc, space=sp)
            assert out.shape == T1.shape
            for i in range(12):
                si = float(np.broadcast_to(arc, (12,))[i])
                want = qe_geodesic_initial(make_param(g[i]), T1[i], V1[i], si, space=sp)
                assert np.max(np.abs(out[i] - want)) <= 1e-14 * np.max(np.abs(want)), i
                if i >= 9:
                    assert np.array_equal(out[i], T1[i] + si * V1[i]), i
        V1[5] *= 1.01
        with pytest.raises(NotUnitSpeed):
            qe_geodesic_initial(P, T1, V1, s, space=sp)


def test_radial_velocity_runs_along_the_ray(rng):
    # outward, inward, coincident and collinear-by-COLLINEAR_TOL ends: alpha
    # and nu are 0, t = (S/a) t1 and v = (b + s) / (a S) t1, unit for n
    p, sp, bd = draw_pair(rng)
    t1 = bd.t1
    off = 1e-15 * sp.norm(t1) * (bd.t2 - sp.dot(bd.t2, t1) / sp.dot(t1, t1) * t1)
    for t2 in (2.5 * t1, 0.4 * t1, t1.copy(), 2.5 * t1 + off):
        ray = connect(p, t1, t2, space=sp)
        assert ray.radial and ray.alpha == 0.0
        s = np.linspace(0.0, ray.delta_s, 5)
        v = qe_velocity(ray, s)
        assert v.shape == (5, sp.dim)
        for k, sk in enumerate(s):
            S = math.sqrt(ray.a**2 + 2 * ray.b * sk + sk * sk)
            assert np.allclose(v[k], t1 * (ray.b + sk) / (ray.a * S), rtol=1e-15, atol=0.0)
            assert np.allclose(qe_velocity(ray, float(sk)), v[k], rtol=1e-15, atol=0.0)
            t, nu = qe_geodesic_at(ray, float(sk))
            assert nu == 0.0 and np.allclose(t, S / ray.a * t1, rtol=1e-15, atol=0.0)
            assert v[k] @ n_metric(p, sp, t).low @ v[k] == pytest.approx(1.0, abs=1e-12)


def test_non_finite_arc_lengths_raise():
    # a NaN or infinite arc length is refused as a non-finite vector is, for
    # one float, an array of them and a stacked boundary, with no warning on
    # the way (warnings are errors)
    p, sp = make_param(0.6), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    t1, t2 = np.array([0.3, -0.5, 1.0]), np.array([0.8, 0.4, 0.6])
    one = connect(p, t1, t2, space=sp)
    stacked = connect(make_param(np.array([0.6, -0.4])), np.stack([t1, t2]),
                      np.stack([t2, t1]), space=sp)
    for bd, bad in ((one, math.nan), (one, math.inf), (one, np.float64(-math.inf)),
                    (one, np.array([0.1, math.nan])), (stacked, np.array([0.1, math.inf]))):
        for fn in (qe_geodesic_at, qe_velocity):
            with pytest.raises(ValueError, match="arc length must be finite"):
                fn(bd, bad)
    v1 = endpoint_velocities(one)[0]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="arc length must be finite"):
            qe_geodesic_initial(p, t1, v1, bad, space=sp)


def test_initial_value_rejects_bad_speed(rng):
    p = make_param(0.5)
    sp = Space.euclidean(2)
    t1 = np.array([1.0, 0.4])
    with pytest.raises(NotUnitSpeed):
        qe_geodesic_initial(p, t1, np.array([2.0, 0.0]), 0.1, space=sp)


def test_angle_additivity(rng):
    # alpha(t1, t3) = alpha(t1, t2) + alpha(t2, t3) for planar triples
    from finsleroid import qe_angle
    for _ in range(60):
        p, sp, bd = draw_pair(rng)
        s_mid = 0.5 * bd.delta_s
        t_mid, _ = qe_geodesic_at(bd, s_mid)
        a13 = qe_angle(p, bd.t1, bd.t2, space=sp)
        a12 = qe_angle(p, bd.t1, t_mid, space=sp)
        a23 = qe_angle(p, t_mid, bd.t2, space=sp)
        assert a12 + a23 == pytest.approx(a13, abs=1e-12)


def test_arc_length_trapezoid(rng):
    # chord-sum arc length of the closed-form curve equals delta_s
    for _ in range(4):
        p, sp, bd = draw_pair(rng, dims=(2, 3))
        n = 10000
        ss = np.linspace(0.0, bd.delta_s, n + 1)
        pts = np.array([qe_geodesic_at(bd, float(s))[0] for s in ss])
        mids = 0.5 * (pts[1:] + pts[:-1])
        total = 0.0
        for k in range(n):
            dt = pts[k + 1] - pts[k]
            nm = n_metric(p, sp, mids[k])
            total += math.sqrt(dt @ nm.low @ dt)
        assert total == pytest.approx(bd.delta_s, abs=1e-6)


# ------------------------------------------------------ anisotropic pullback

def test_finsleroid_geodesic_straight_at_g0(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    R1 = rand_vec(p, sp, rng)
    R2 = rand_vec(p, sp, rng)
    bd = connect(p, R1, R2, space=sp)
    for s in np.linspace(0, bd.delta_s, 7):
        R = finsleroid_geodesic(p, sp, R1, R2, float(s))
        expect = R1 + (R2 - R1) * s / bd.delta_s
        assert np.allclose(R, expect, rtol=1e-10, atol=1e-12)


def _fins_pair(rng, dims=(2, 3)):
    while True:
        n = int(rng.choice(dims))
        p = make_param(float(rng.uniform(-1.5, 1.5)))
        sp = rand_space(n, rng)
        R1 = rand_vec(p, sp, rng)
        R2 = rand_vec(p, sp, rng)
        try:
            bd = connect(p, sigma(p, sp, R1), sigma(p, sp, R2), space=sp)
        except AntipodalSingular:
            continue
        if 0.2 < bd.alpha < 2.6 and bd.delta_s > 0.2:
            return p, sp, R1, R2, bd


def test_finsleroid_quadratic_norm_law(rng):
    for _ in range(30):
        p, sp, R1, R2, bd = _fins_pair(rng)
        for s in np.linspace(0.05, 0.95, 7) * bd.delta_s:
            R = finsleroid_geodesic(p, sp, R1, R2, float(s))
            expect = bd.a**2 + 2 * bd.b * s + s * s
            assert abs(fmf(p, sp, R) ** 2 - expect) <= 1e-9 * max(1.0, expect)
        # endpoints map exactly
        assert np.max(np.abs(finsleroid_geodesic(p, sp, R1, R2, 0.0) - R1)) < 1e-11
        assert np.max(np.abs(finsleroid_geodesic(p, sp, R1, R2, bd.delta_s) - R2)) < 1e-11


def test_finsleroid_ode_residual(rng):
    # d2R/ds2 + C_q^p_r dR/ds dR/ds = 0 with the mixed Cartan components
    worst = 0.0
    count = 0
    while count < 12:
        p, sp, R1, R2, bd = _fins_pair(rng)
        eps = 1e-4 * bd.delta_s
        ok = True
        for s in np.linspace(0.25, 0.75, 4) * bd.delta_s:
            Rs = [finsleroid_geodesic(p, sp, R1, R2, float(s + k * eps))
                  for k in (-2, -1, 0, 1, 2)]
            if any(sp.spatial_norm(R) < 1e-2 for R in Rs):
                ok = False
                break
            d2 = (-Rs[0] + 16 * Rs[1] - 30 * Rs[2] + 16 * Rs[3] - Rs[4]) / (12 * eps * eps)
            d1 = (Rs[0] - 8 * Rs[1] + 8 * Rs[3] - Rs[4]) / (12 * eps)
            mx = cartan(p, sp, Rs[2]).mixed
            res = d2 + np.einsum("qpr,q,r->p", mx, d1, d1)
            worst = max(worst, float(np.max(np.abs(res))))
        count += 1 if ok else 0
    assert worst <= 1e-4


# -------------------------------------------------------- difference vectors

def test_difference_gradients_identities(rng):
    for _ in range(60):
        p, sp, bd = draw_pair(rng)
        out = difference_gradients(p, bd.t1, bd.t2, space=sp)
        d1, d2, u = out["d1"], out["d2"], out["u"]
        assert sp.dot(bd.t1, d1) == pytest.approx(0.0, abs=1e-10 * bd.a**2)
        assert sp.dot(bd.t2, d2) == pytest.approx(0.0, abs=1e-10 * bd.S_end**2)
        assert sp.dot(d1, d2) == pytest.approx(-sp.dot(bd.t1, bd.t2), rel=1e-10, abs=1e-11)
        assert sp.dot(d1, d1) == pytest.approx(sp.dot(bd.t1, bd.t1), rel=1e-11)
        assert sp.dot(d2, d2) == pytest.approx(sp.dot(bd.t2, bd.t2), rel=1e-11)
        assert sp.dot(d1, bd.t2) == pytest.approx(u, rel=1e-11)
        assert sp.dot(bd.t1, d2) == pytest.approx(u, rel=1e-11)


def test_difference_gradients_products(rng):
    for _ in range(60):
        p, sp, bd = draw_pair(rng)
        out = difference_gradients(p, bd.t1, bd.t2, space=sp)
        b1, b2 = out["b1"], out["b2"]
        a11, a22 = bd.a**2, bd.S_end**2
        ca, sa = math.cos(bd.alpha), math.sin(bd.alpha)
        root = math.sqrt(a11 * a22)
        base = a11 + a22 - 2 * root * ca
        k2 = 1 / p.h**2 - 1
        assert sp.dot(b1, b1) == pytest.approx(base + k2 * a22 * sa**2, rel=1e-10)
        assert sp.dot(b2, b2) == pytest.approx(base + k2 * a11 * sa**2, rel=1e-10)
        # joint degree-2 homogeneity of the squared two-point length gives
        # t1.b1 + t2.b2 = |ominus|^2 for the half gradients
        assert sp.dot(bd.t1, b1) + sp.dot(bd.t2, b2) == pytest.approx(
            bd.delta_s**2, rel=1e-10)


def test_difference_gradients_fd(rng):
    # b1 is the r-raised gradient of half the squared two-point length
    from finsleroid import qe_angle
    from conftest import fd_gradient
    for _ in range(12):
        p, sp, bd = draw_pair(rng, dims=(2, 3))

        def half_len_sq(t1v, t2v):
            al = qe_angle(p, t1v, t2v, space=sp)
            return 0.5 * (sp.dot(t1v, t1v) + sp.dot(t2v, t2v)
                          - 2 * sp.norm(t1v) * sp.norm(t2v) * math.cos(al))

        grad1 = fd_gradient(lambda x: half_len_sq(x, bd.t2), bd.t1.copy(),
                            eps=1e-5 * bd.a)
        out = difference_gradients(p, bd.t1, bd.t2, space=sp)
        assert np.max(np.abs(sp.r_full_inv @ grad1 - out["b1"])) <= 1e-6 * max(
            1.0, np.max(np.abs(out["b1"])))


def test_difference_gradients_limits(rng):
    p = make_param(0.0)
    sp = Space.euclidean(3)
    t1 = rand_vec(p, sp, rng)
    t2 = rand_vec(p, sp, rng)
    out = difference_gradients(p, t1, t2, space=sp)
    assert np.allclose(out["b1"], t1 - t2, atol=1e-12)
    assert np.allclose(out["b2"], t2 - t1, atol=1e-12)
    # coincidence limit: b -> 0
    p = make_param(0.8)
    for eps in (1e-3, 1e-5):
        out = difference_gradients(p, t1, t1 + eps * t2, space=sp)
        assert np.max(np.abs(out["b1"])) < 10 * eps * sp.norm(t1) * sp.norm(t2)


def test_difference_gradients_collinear(rng):
    p = make_param(0.4)
    with pytest.raises(CollinearVectors):
        difference_gradients(p, np.array([1.0, 2.0]), np.array([2.0, 4.0]))


def test_qe_geodesic_at_broadcasts_over_s(rng):
    p, sp, bd = draw_pair(rng)
    radial = connect(p, bd.t1, 2.5 * bd.t1, space=sp)
    assert radial.radial
    for b in (bd, radial):
        s = np.linspace(0.0, b.delta_s, 12).reshape(3, 4)
        t, nu = qe_geodesic_at(b, s)
        assert t.shape == (3, 4, sp.dim) and nu.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            t_row, nu_row = qe_geodesic_at(b, float(s[idx]))
            assert isinstance(nu_row, float)
            assert np.allclose(t[idx], t_row, rtol=1e-15, atol=0.0)
            assert nu[idx] == pytest.approx(nu_row, rel=1e-15, abs=0.0)

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion; every criterion draws its own seeded generator so the suite is
deterministic and order-independent.
"""

import math

import numpy as np
import pytest

import finsleroid as fd
from finsleroid import Space, make_param
from conftest import fd_hessian, rand_space, rand_vec


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def _rng(k):
    return np.random.default_rng(1000 + k)


def draw(rng, dims=(2, 3, 5), g_span=1.9, min_q=0.25):
    n = int(rng.choice(dims))
    p = make_param(float(rng.uniform(-g_span, g_span)))
    sp = rand_space(n, rng)
    return p, sp, rand_vec(p, sp, rng, min_q=min_q)


def test_criterion_01_metric_determinant_law():
    rng = _rng(1)
    for _ in range(1000):
        p, sp, R = draw(rng)
        det = np.linalg.det(fd.metric(p, sp, R))
        closed = fd.metric_det(p, sp, R)
        assert abs(det - closed) <= 1e-10 * det
    _report(1, "metric determinant law, 1000 samples, rel 1e-10")


def test_criterion_02_metric_as_hessian():
    rng = _rng(2)
    worst = 0.0
    for _ in range(200):
        p, sp, R = draw(rng, g_span=1.8)
        gm = fd.metric(p, sp, R)
        H = fd_hessian(lambda x: 0.5 * fd.fmf(p, sp, x) ** 2, R,
                       eps=1e-3 * max(1.0, sp.norm(R)))
        worst = max(worst, np.max(np.abs(gm - H)) / np.max(np.abs(gm)))
    assert worst <= 1e-6
    _report(2, f"metric equals Hessian of K^2/2, 200 points, worst {worst:.2e}")


def test_criterion_03_cartan_contraction_and_curvature():
    rng = _rng(3)
    for _ in range(200):
        p, sp, R = draw(rng, g_span=1.8)
        if abs(p.g) < 1e-3:
            continue
        ct = fd.cartan(p, sp, R)
        K2 = fd.fmf(p, sp, R) ** 2
        target = sp.dim**2 * p.g**2 / 4
        assert abs(K2 * (ct.covector @ ct.vector) - target) <= 1e-10 * target
    # Theorem-style representation componentwise, N <= 5
    for _ in range(30):
        p, sp, R = draw(rng, dims=(3, 4, 5), g_span=1.8)
        cv = fd.curvature_S(p, sp, R)
        h_ang = fd.angular(p, sp, R)
        K2 = fd.fmf(p, sp, R) ** 2
        M = (np.einsum("pr,qs->pqrs", h_ang, h_ang)
             - np.einsum("ps,qr->pqrs", h_ang, h_ang)) / K2
        scale = max(np.max(np.abs(cv.tensor)), 1e-12)
        assert np.max(np.abs(cv.tensor - cv.s_star * M)) <= 1e-9 * scale
        assert abs(1 + cv.s_star - p.h**2) <= 1e-12
    sp3 = Space.euclidean(3)
    R = np.array([0.4, 0.7, 0.9])
    assert abs(1 + fd.curvature_S(make_param(0.6), sp3, R).s_star - 0.91) <= 1e-12
    assert abs(1 + fd.curvature_S(make_param(0.4), sp3, R).s_star - 0.96) <= 1e-12
    _report(3, "Cartan contraction 1e-10, curvature representation 1e-9, "
               "1 + S* = h^2 (0.91 at g=0.6, 0.96 at g=0.4) to 1e-12")


def test_criterion_04_duality():
    rng = _rng(4)
    for _ in range(300):
        p, sp, R = draw(rng)
        K = fd.fmf(p, sp, R)
        assert abs(fd.fhf(p, sp, fd.to_costate(p, sp, R)) - K) <= 1e-9 * K
    for _ in range(300):
        n = int(rng.choice([2, 3, 5]))
        sp = Space.euclidean(n)
        g = float(rng.uniform(-1.9, 1.9))
        X = rand_vec(make_param(g), sp, rng)
        K = fd.fmf(make_param(-g), sp, X)
        assert abs(fd.fhf(make_param(g), sp, X) - K) <= 1e-12 * K
    _report(4, "Legendre duality 1e-9 and mirror symmetry 1e-12")


def test_criterion_05_quasi_euclidean_map():
    rng = _rng(5)
    for _ in range(300):
        p, sp, R = draw(rng)
        t = fd.sigma(p, sp, R)
        scale = max(1.0, float(np.max(np.abs(R))))
        assert np.max(np.abs(fd.mu(p, sp, t) - R)) <= 1e-10 * scale
        K = fd.fmf(p, sp, R)
        assert abs(fd.snorm(sp, t) - K) <= 1e-12 * K
        jac = fd.sigma_jacobian(p, sp, R)
        f = fd.scalar_forms(p, sp, R)
        expect = p.h ** (sp.dim - 1) * f.J ** sp.dim
        assert abs(np.linalg.det(jac) - expect) <= 1e-10 * expect
        nm = fd.n_metric(p, sp, t)
        det_low = np.linalg.det(nm.low)
        closed = p.h ** (2 * (1 - sp.dim)) * np.linalg.det(sp.r_spatial)
        assert abs(det_low - closed) <= 1e-10 * abs(closed)
    _report(5, "map roundtrip 1e-10, norm transport 1e-12, both det laws 1e-10")


def _boundary_pair(rng, p, sp, alpha_cap=2.8):
    while True:
        t1 = rand_vec(p, sp, rng, min_q=0.0)
        t2 = rand_vec(p, sp, rng, min_q=0.0)
        try:
            bd = fd.connect(p, t1, t2, space=sp)
        except fd.AntipodalSingular:
            continue
        if 0.05 < bd.alpha < alpha_cap and bd.delta_s > 0.1:
            return bd


def test_criterion_06_geodesic_closed_form():
    rng = _rng(6)
    worst_ode = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 5]))
        p = make_param(float(rng.uniform(-1.8, 1.8)))
        sp = rand_space(n, rng)
        bd = _boundary_pair(rng, p, sp)
        eps = 1e-4 * bd.delta_s
        for s in np.linspace(0.02, 0.98, 50) * bd.delta_s:
            t, _ = fd.qe_geodesic_at(bd, float(s))
            S2 = bd.a**2 + 2 * bd.b * s + s * s
            assert abs(sp.dot(t, t) - S2) <= 1e-10 * S2
        for s in np.linspace(0.1, 0.9, 5) * bd.delta_s:
            ts = [fd.qe_geodesic_at(bd, float(s + k * eps))[0] for k in (-2, -1, 0, 1, 2)]
            d2 = (-ts[0] + 16 * ts[1] - 30 * ts[2] + 16 * ts[3] - ts[4]) / (12 * eps * eps)
            v = fd.qe_velocity(bd, float(s))
            chris = fd.qe_christoffel(p, sp, ts[2])
            res = d2 + np.einsum("qpr,q,r->p", chris, v, v)
            worst_ode = max(worst_ode, float(np.max(np.abs(res))))
        v1, v2 = fd.endpoint_velocities(bd)
        assert abs(sp.dot(bd.t1, v1) - bd.b) <= 1e-9 * max(1.0, abs(bd.b))
        assert abs(sp.dot(bd.t2, v2) - (bd.b + bd.delta_s)) <= 1e-9 * max(
            1.0, abs(bd.b + bd.delta_s))
        nm = fd.n_metric(p, sp, bd.t1)
        assert abs(v1 @ nm.low @ v1 - 1.0) <= 1e-9
    assert worst_ode <= 1e-5
    _report(6, f"geodesic ODE residual {worst_ode:.2e} <= 1e-5, norm law 1e-10, "
               "velocity products 1e-9, 100 pairs")


def test_criterion_07_cosine_theorem_arc_length():
    rng = _rng(7)
    for _ in range(5):
        n = int(rng.choice([2, 3]))
        p = make_param(float(rng.uniform(-1.8, 1.8)))
        sp = rand_space(n, rng)
        bd = _boundary_pair(rng, p, sp)
        panels = 10000
        ss = np.linspace(0.0, bd.delta_s, panels + 1)
        pts = np.array([fd.qe_geodesic_at(bd, float(s))[0] for s in ss])
        mids = 0.5 * (pts[1:] + pts[:-1])
        total = 0.0
        for k in range(panels):
            dt = pts[k + 1] - pts[k]
            nm = fd.n_metric(p, sp, mids[k])
            total += math.sqrt(dt @ nm.low @ dt)
        assert abs(total - bd.delta_s) <= 1e-6
    _report(7, "cosine-theorem arc length vs 1e4-panel integration, 1e-6")


def test_criterion_08_finsleroid_pullback():
    rng = _rng(8)
    done = 0
    worst_ode = 0.0
    while done < 25:
        n = int(rng.choice([2, 3]))
        p = make_param(float(rng.uniform(-1.5, 1.5)))
        sp = rand_space(n, rng)
        R1 = rand_vec(p, sp, rng)
        R2 = rand_vec(p, sp, rng)
        try:
            bd = fd.connect(p, fd.sigma(p, sp, R1), fd.sigma(p, sp, R2), space=sp)
        except fd.AntipodalSingular:
            continue
        if not (0.2 < bd.alpha < 2.6 and bd.delta_s > 0.2):
            continue
        eps = 1e-4 * bd.delta_s
        ok = True
        for s in np.linspace(0.2, 0.8, 4) * bd.delta_s:
            Rs = [fd.finsleroid_geodesic(p, sp, R1, R2, float(s + k * eps))
                  for k in (-2, -1, 0, 1, 2)]
            if any(sp.spatial_norm(R) < 1e-2 for R in Rs):
                ok = False
                break
            K2 = fd.fmf(p, sp, Rs[2]) ** 2
            expect = bd.a**2 + 2 * bd.b * s + s * s
            assert abs(K2 - expect) <= 1e-9 * max(1.0, expect)
            d2 = (-Rs[0] + 16 * Rs[1] - 30 * Rs[2] + 16 * Rs[3] - Rs[4]) / (12 * eps * eps)
            d1 = (Rs[0] - 8 * Rs[1] + 8 * Rs[3] - Rs[4]) / (12 * eps)
            mx = fd.cartan(p, sp, Rs[2]).mixed
            res = d2 + np.einsum("qpr,q,r->p", mx, d1, d1)
            worst_ode = max(worst_ode, float(np.max(np.abs(res))))
        done += 1 if ok else 0
    assert worst_ode <= 1e-4
    _report(8, f"pullback quadratic norm law 1e-9, anisotropic ODE residual "
               f"{worst_ode:.2e} <= 1e-4")


def test_criterion_09_angle_laws():
    rng = _rng(9)
    for _ in range(200):
        p, sp, R1 = draw(rng)
        R2 = rand_vec(p, sp, rng)
        pair = fd.fins_angle(p, sp, R1, R2)
        t1, t2 = fd.sigma(p, sp, R1), fd.sigma(p, sp, R2)
        a_e = math.acos(np.clip(sp.dot(t1, t2) / (sp.norm(t1) * sp.norm(t2)), -1, 1))
        assert abs(pair.alpha - a_e / p.h) <= 1e-14 * max(1.0, pair.alpha)
        assert pair.alpha <= math.pi / p.h + 1e-12
    # planar additivity through geodesic midpoints
    for _ in range(100):
        n = int(rng.choice([2, 3, 5]))
        p = make_param(float(rng.uniform(-1.8, 1.8)))
        sp = rand_space(n, rng)
        bd = _boundary_pair(rng, p, sp)
        t_mid, _ = fd.qe_geodesic_at(bd, 0.5 * bd.delta_s)
        a13 = fd.qe_angle(p, bd.t1, bd.t2, space=sp)
        a12 = fd.qe_angle(p, bd.t1, t_mid, space=sp)
        a23 = fd.qe_angle(p, t_mid, bd.t2, space=sp)
        assert abs(a12 + a23 - a13) <= 1e-12
    # Pythagoras at alpha = pi/2
    for _ in range(30):
        p, sp, R = draw(rng, g_span=1.8)
        seed = rand_vec(p, sp, rng)
        Rp = fd.perpendicular_companion(p, sp, R, seed=seed)
        pr = fd.fins_angle(p, sp, R, Rp)
        K1, K2 = fd.fmf(p, sp, R), fd.fmf(p, sp, Rp)
        assert abs(pr.ominus_sq - (K1**2 + K2**2)) <= 1e-10 * (K1**2 + K2**2)
    _report(9, "angle = Euclidean/h at 1e-14, additivity 1e-12, range pi/h, "
               "Pythagoras 1e-10")


def test_criterion_10_two_vector_tensors():
    rng = _rng(10)
    # coincidence limits, linear in epsilon
    p = make_param(0.7)
    sp = Space.euclidean(3)
    t1 = np.array([0.8, -0.3, 1.1])
    v = np.array([0.2, 0.9, -0.4])
    nm = fd.n_metric(p, sp, t1).low
    errs = [float(np.max(np.abs(fd.n2(p, t1, t1 + e * v, space=sp).components - nm)))
            for e in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert 5 <= errs[0] / errs[1] <= 20 and 5 <= errs[1] / errs[2] <= 20
    R = np.array([0.9, 0.4, 0.7])
    gm = fd.metric(p, sp, R)
    errs = [float(np.max(np.abs(fd.g2(p, sp, R, R + e * v) - gm)))
            for e in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert 5 <= errs[0] / errs[1] <= 20 and 5 <= errs[1] / errs[2] <= 20

    # mixed Hessians at 1e-5, M-transversality, determinant law
    from finsleroid.twovector import _m_vector, _rs_pieces

    def unit(n, i):
        x = np.zeros(n)
        x[i] = 1.0
        return x

    checked = 0
    while checked < 25:
        n = int(rng.choice([2, 3]))
        p = make_param(float(rng.uniform(-1.6, 1.6)))
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng)
        S = rand_vec(p, sp, rng)
        pair = fd.fins_angle(p, sp, R, S)
        if not 0.15 < pair.alpha < 2.2:
            continue
        G = fd.g2(p, sp, R, S)
        # rounding of the four products grows as 1/eps^2 and nears the
        # 1e-5 bound at a step of 1e-5; truncation at 1e-4 is far below it
        eps = 1e-4
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                def f(di, dj):
                    return fd.fins_angle(p, sp, R + di * unit(n, i),
                                         S + dj * unit(n, j)).scalar_product
                H[i, j] = (f(eps, eps) - f(eps, -eps) - f(-eps, eps)
                           + f(-eps, -eps)) / (4 * eps * eps)
        assert np.max(np.abs(G - H)) <= 1e-5 * np.max(np.abs(G))
        fR, fS, spatial, P, W2 = _rs_pieces(p, sp, R, S)
        M = _m_vector(p, sp, R, S, fR, fS, spatial)
        assert abs(M @ R) <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(R)
        checked += 1
    for n in (2, 3, 5):
        for _ in range(25):
            p = make_param(float(rng.uniform(-1.8, 1.8)))
            sp = rand_space(n, rng)
            t1 = rand_vec(p, sp, rng, min_q=0.0)
            t2 = rand_vec(p, sp, rng, min_q=0.0)
            tv = fd.n2(p, t1, t2, space=sp)
            if tv.u == 0.0:
                continue
            alpha = fd.qe_angle(p, t1, t2, space=sp)
            a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
            expect = ((math.sqrt(a11 * a22) * math.sin(alpha) / tv.u) ** (n - 2)
                      * p.h ** (-n) * np.linalg.det(sp.r_spatial))
            assert abs(np.linalg.det(tv.components) - expect) <= 1e-10 * abs(expect)
    _report(10, "coincidence limits linear in eps, mixed Hessians 1e-5, "
                "M transversality 1e-12, pair determinant law 1e-10")


def test_criterion_11_shape(tmp_path):
    from finsleroid.cli import main
    p = make_param(0.8)
    rep = fd.shape_report(p)
    prof = fd.indicatrix_profile(p, 200001)
    assert abs((prof[:, 1].max() - prof[:, 1].min())
               - 2 * math.cosh(p.G * math.pi / 4)) <= 1e-8
    assert abs(2 * prof[:, 0].max() - rep.width) <= 1e-8
    for g in (0.2, 0.4, 0.6):
        plus = fd.indicatrix_profile(make_param(g), 512)
        minus = fd.indicatrix_profile(make_param(-g), 512)
        flipped = minus[::-1].copy()
        flipped[:, 1] *= -1
        assert np.max(np.abs(plus - flipped)) <= 1e-10
        inner = plus[1:-1]
        d2 = -np.array([z * z + g * q * z + q * q for q, z in inner]) / inner[:, 0] ** 3
        assert np.all(d2 < 0)
    # figure data regenerates through the command line
    assert main(["figures", "--out", str(tmp_path), "--samples", "181"]) == 0
    made = {f.name for f in tmp_path.iterdir()}
    assert {"indicatrix_g+0.4.csv", "indicatrix_g-0.4.csv",
            "equator_radius_curve.csv", "width_height_curve.csv"} <= made
    _report(11, "altitude and width vs profile extremes 1e-8, mirrors 1e-10, "
                "convexity, figure data regenerated")


def test_criterion_12_plane():
    fs = np.linspace(0.03, math.pi - 0.03, 80)
    sp = Space.euclidean(2)
    for g in (0.0, 0.4, -0.9, 1.3):
        p = make_param(g)
        # quadrature of the metric line element over the closed curve
        n = 20000
        grid = np.linspace(0.0, math.pi, n + 1)
        pts = np.array([[fd.gen_trig(p, float(f)).sin_g,
                         fd.gen_trig(p, float(f)).cos_g] for f in grid])
        total = 0.0
        for k in range(n):
            dR = pts[k + 1] - pts[k]
            mid = 0.5 * (pts[k + 1] + pts[k])
            gm = fd.metric(p, sp, mid)
            total += math.sqrt(dR @ gm @ dR)
        assert abs(2 * total - 2 * math.pi / p.h) <= 1e-6
        assert fd.rund_residual(p, fs) <= 1e-8
        if g != 0.0:
            assert fd.rund_residual(p, fs, cartan_scalar=+g) > 0.01
        out = fd.landsberg_check(p, fs)
        assert out["wronskian"] <= 1e-10
        assert out["convexity"] <= 1e-10
    assert fd.indicatrix_length(make_param(0.0)) == pytest.approx(2 * math.pi)
    _report(12, "indicatrix length 2pi/h to 1e-6, Rund residual 1e-8 with "
                "negative control, arc identities 1e-10, ratio 1/h^2")


def test_criterion_13_parallelogram_order():
    sp = Space.euclidean(2)
    pairs = [(np.array([1.0, 0.2]), np.array([0.3, 1.1])),
             (np.array([0.9, 0.5]), np.array([0.2, 0.8]))]
    for t1, t2 in pairs:
        errs = []
        for k in (0.05, 0.025):
            h = 1.0 / (1.0 + k)
            p = make_param(2.0 * math.sqrt(1.0 - h * h))
            approx = fd.parallelogram_sum(p, t1, t2, space=sp)
            exact = fd.parallelogram_exact(p, t1, t2, space=sp)
            assert np.max(np.abs(fd.parallelogram_residuals(
                p, t1, t2, exact, space=sp))) <= 1e-10
            errs.append(float(np.linalg.norm(approx - exact)))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5
    _report(13, "first-order sum error is O(k^2): halving ratio in [3.5, 4.5]")

import math

import numpy as np
import pytest

from finsleroid import (AntipodalSingular, BadFrame, NegativeRadicand, Space,
                        covector_pair, fins_angle, fmf, g2, grad_covector,
                        invert_covector_pair, make_param, metric, mu, n2,
                        n2_frame, n_metric, qe_angle, scalar_grad,
                        sigma, sigma_jacobian)
from conftest import count_memo, rand_space, rand_vec


def draw_pair(rng, dims=(2, 3, 5), alpha_cap=2.4, min_sep=0.15):
    while True:
        n = int(rng.choice(dims))
        p = make_param(float(rng.uniform(-1.8, 1.8)))
        sp = rand_space(n, rng)
        t1 = rand_vec(p, sp, rng, min_q=0.0)
        t2 = rand_vec(p, sp, rng, min_q=0.0)
        a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
        a12 = sp.dot(t1, t2)
        gram = a11 * a22 - a12 * a12
        if gram < (a11 * a22) * min_sep**2:
            continue
        alpha = math.acos(a12 / math.sqrt(a11 * a22)) / p.h
        if alpha < alpha_cap:
            return p, sp, t1, t2


def qe_product(p, sp, t1, t2):
    al = qe_angle(p, t1, t2, space=sp)
    return sp.norm(t1) * sp.norm(t2) * math.cos(al)


# ------------------------------------------------------------------- n2

def test_n2_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    t1 = rand_vec(p, sp, rng)
    t2 = rand_vec(p, sp, rng)
    tv = n2(p, t1, t2, space=sp)
    assert np.allclose(tv.components, sp.r_full, atol=1e-12)
    # near the antipodal pair, image angle pi - O(delta), n2 stays r_full
    for n in (2, 3, 5):
        for identity in (True, False):
            sp = rand_space(n, rng, identity=identity)
            t1, e = rand_vec(p, sp, rng), rng.normal(size=n)
            for delta in 10.0 ** -np.arange(2, 9):
                comp = n2(p, t1, -t1 + delta * e, space=sp).components
                assert np.max(np.abs(comp - sp.r_full)) <= 1e-14 * np.max(np.abs(sp.r_full))


def test_n2_mixed_hessian(rng):
    for _ in range(20):
        p, sp, t1, t2 = draw_pair(rng, dims=(2, 3))
        tv = n2(p, t1, t2, space=sp)
        n = sp.dim
        # rounding of the four products grows as 1/eps^2 and nears the
        # 1e-5 bound at a step of 1e-5; truncation at 1e-4 is far below it
        eps = 1e-4
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                def f(di, dj):
                    return qe_product(p, sp, t1 + di * _e(n, i), t2 + dj * _e(n, j))
                H[i, j] = (f(eps, eps) - f(eps, -eps) - f(-eps, eps)
                           + f(-eps, -eps)) / (4 * eps * eps)
        assert np.max(np.abs(tv.components - H)) <= 1e-5 * np.max(np.abs(tv.components))


def _e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_n2_determinant_law(rng):
    for _ in range(80):
        p, sp, t1, t2 = draw_pair(rng)
        tv = n2(p, t1, t2, space=sp)
        a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
        alpha = qe_angle(p, t1, t2, space=sp)
        expect = ((math.sqrt(a11 * a22) * math.sin(alpha) / tv.u) ** (sp.dim - 2)
                  * p.h ** (-sp.dim) * np.linalg.det(sp.r_spatial))
        assert np.linalg.det(tv.components) == pytest.approx(expect, rel=1e-10)


def test_n2_coincidence_routing(rng):
    # exactly proportional arguments route to the one-vector tensor; an
    # antipodal pair is refused for g != 0 (test_n2_antipodal_pair)
    p = make_param(0.9)
    sp = Space.euclidean(3)
    t = rand_vec(p, sp, rng)
    tv = n2(p, t, 1.01 * t, space=sp)
    assert tv.u == 0.0
    assert np.allclose(tv.components, n_metric(p, sp, t).low, atol=1e-14)


@pytest.mark.parametrize("identity", [True, False])
def test_n2_antipodal_pair(rng, identity):
    # near an antipodal pair n2 has no limit for g != 0: it grows as 1/u for
    # N >= 3 (-1.5e8 at g = 0.6, delta = 1e-9), and for N = 2 the two sides
    # of the pair give two tensors. So a pair that is antipodal by the
    # kernel's test raises AntipodalSingular, and so does g2 for antipodal
    # images. A parallel pair still routes to the one-vector tensor, and at
    # g = 0 n2 = r for every pair, the antipodal one included
    p, zero = make_param(0.6), make_param(0.0)
    for n in (2, 3, 5):
        sp = rand_space(n, rng, identity=identity)
        t, e = rand_vec(p, sp, rng), rng.normal(size=n)
        if n == 2:
            sides = [n2(p, t, -t + 1e-9 * s * e, space=sp).components for s in (1.0, -1.0)]
            assert np.max(np.abs(sides[0] - sides[1])) >= 1e-3 * np.max(np.abs(sides[0]))
        else:
            near = [np.max(np.abs(n2(p, t, -t + delta * e, space=sp).components))
                    for delta in (1e-6, 1e-9)]
            assert 500 <= near[1] / near[0] <= 2000
        for k in (-2.0, -1.0, -0.3):
            with pytest.raises(AntipodalSingular):
                n2(p, t, k * t, space=sp)
            tv = n2(zero, t, k * t, space=sp)
            assert np.array_equal(tv.components, sp.r_full) and tv.u == 0.0
        tv = n2(p, t, 2.5 * t, space=sp)
        assert tv.u == 0.0
        assert np.array_equal(tv.components, n_metric(p, sp, t).low)
        # images sigma(S) = -2 sigma(R): refused at g != 0, r at g = 0
        R = rand_vec(p, sp, rng)
        S = mu(p, sp, -2.0 * sigma(p, sp, R))
        with pytest.raises(AntipodalSingular):
            g2(p, sp, R, S)
        assert np.array_equal(g2(zero, sp, R, -2.0 * R), sp.r_full)


def test_n2_coincidence_limit_linear(rng):
    # generic approach path: linear convergence to the one-vector tensor
    p = make_param(0.7)
    sp = Space.euclidean(3)
    t1 = np.array([0.8, -0.3, 1.1])
    v = np.array([0.2, 0.9, -0.4])
    nm = n_metric(p, sp, t1).low
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        tv = n2(p, t1 + 0.0, t1 + eps * v, space=sp)
        errs.append(float(np.max(np.abs(tv.components - nm))))
    assert errs[0] > errs[1] > errs[2]
    assert 7 <= errs[0] / errs[1] <= 14
    assert 7 <= errs[1] / errs[2] <= 14
    # linear down to eps = 1e-11, on the sigma images of a pair
    R = np.array([0.3, 0.5, 1.0])
    d = np.array([0.6, -0.8, 0.0])
    p = make_param(0.4)
    t1 = sigma(p, sp, R)
    nm = n_metric(p, sp, t1).low
    slopes = [float(np.max(np.abs(n2(p, t1, sigma(p, sp, R + eps * d), space=sp).components
                                  - nm))) / eps
              for eps in 10.0 ** -np.arange(3, 12)]
    assert max(slopes) <= 1.1 * min(slopes)


def test_n2_derivative_limit_law(rng):
    # sum of the two partial derivatives tends to the derivative of the
    # one-vector tensor (pair separation well above the FD step)
    p = make_param(0.8)
    sp = Space.euclidean(3)
    t = np.array([0.9, 0.4, 1.2])
    eps_pair = 1e-3
    step = 1e-5
    n = sp.dim
    v = np.array([0.3, -0.7, 0.5])
    t2 = t + eps_pair * v
    for s in range(n):
        dv = _e(n, s) * step
        d1 = (n2(p, t + dv, t2, space=sp).components
              - n2(p, t - dv, t2, space=sp).components) / (2 * step)
        d2 = (n2(p, t, t2 + dv, space=sp).components
              - n2(p, t, t2 - dv, space=sp).components) / (2 * step)
        dn = (n_metric(p, sp, t + dv).low - n_metric(p, sp, t - dv).low) / (2 * step)
        assert np.max(np.abs(d1 + d2 - dn)) <= 1e-3


# ---------------------------------------------------------------- frame

def frame_defect(p, sp, t1, t2):
    """Predicted antisymmetric defect of the pair expansion."""
    a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
    a12 = sp.dot(t1, t2)
    u = math.sqrt(a11 * a22 - a12 * a12)
    alpha = qe_angle(p, t1, t2, space=sp)
    A2 = math.cos(alpha) / p.h - a12 * math.sin(alpha) / u
    r = sp.r_full
    return (A2 / p.h) * (np.outer(r @ t1, r @ t2)
                         - np.outer(r @ t2, r @ t1)) / math.sqrt(a11 * a22)


def test_frame_contractions(rng):
    count = 0
    while count < 40:
        p, sp, t1, t2 = draw_pair(rng, alpha_cap=1.4)
        a12 = sp.dot(t1, t2)
        if a12 <= 0.05:
            continue
        try:
            f = n2_frame(p, t1, t2, space=sp)
        except NegativeRadicand:
            continue
        a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
        u = math.sqrt(a11 * a22 - a12 * a12)
        alpha = qe_angle(p, t1, t2, space=sp)
        w1 = math.sqrt(p.h * a12 * math.cos(alpha) + u * math.sin(alpha))
        w2 = math.sqrt(a12 * math.cos(alpha) / p.h + u * math.sin(alpha))
        pref = math.sqrt(p.h * math.sqrt(a11) * math.sqrt(a22))
        base = sp.base_frame
        # index contraction with t2: single frame component
        assert np.allclose(f @ t2, w1 * (base @ t2) / pref, rtol=1e-9, atol=1e-11)
        # index contraction with t1: two components
        rhs1 = (a11 / a12 * (w1 - w2) * (base @ t2) + w2 * (base @ t1)) / pref
        assert np.allclose(f @ t1, rhs1, rtol=1e-9, atol=1e-11)
        # frame-component contractions
        assert np.allclose(np.einsum("Rp,R->p", f, base @ t1),
                           w1 * (sp.r_full @ t1) / pref, rtol=1e-9, atol=1e-11)
        rhs2 = (a22 / a12 * (w1 - w2) * (sp.r_full @ t1)
                + w2 * (sp.r_full @ t2)) / pref
        assert np.allclose(np.einsum("Rp,R->p", f, base @ t2), rhs2,
                           rtol=1e-9, atol=1e-11)
        count += 1


def test_frame_pair_expansion(rng):
    # the pair expansion recovers the symmetric part exactly; the
    # antisymmetric defect is the closed form checked here
    count = 0
    while count < 40:
        p, sp, t1, t2 = draw_pair(rng, alpha_cap=1.4)
        if sp.dot(t1, t2) <= 0.05:
            continue
        try:
            f12 = n2_frame(p, t1, t2, space=sp)
            f21 = n2_frame(p, t2, t1, space=sp)
        except NegativeRadicand:
            continue
        total = np.einsum("Rp,Rq->pq", f12, f21)
        comp = n2(p, t1, t2, space=sp).components
        scale = np.max(np.abs(comp))
        sym_err = np.max(np.abs((total + total.T) / 2 - (comp + comp.T) / 2))
        assert sym_err <= 1e-9 * scale
        assert np.max(np.abs(total - comp + frame_defect(p, sp, t1, t2))) <= 1e-9 * scale
        count += 1


def test_frame_euclidean_reduces_to_base(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    t1 = rand_vec(p, sp, rng)
    t2 = rand_vec(p, sp, rng)
    if sp.dot(t1, t2) < 0.05:
        t2 = t2 + t1
    f = n2_frame(p, t1, t2, space=sp)
    assert np.allclose(f, sp.base_frame, rtol=1e-10, atol=1e-12)


def test_frame_checks_its_base_frame(rng):
    # the check of qe_frames: a frame of the wrong shape or one that is not
    # orthonormal for r raises BadFrame, where n2_frame once returned rows
    # of about 1.0 for np.ones((3, 3)) and ended in matmul's error for 2 x 2
    p = make_param(0.5)
    sp = rand_space(3, rng)
    t1, t2 = np.array([0.3, 0.5, 1.0]), np.array([0.6, -0.2, 0.9])
    for bad in (np.ones((3, 3)), np.eye(2), np.eye(4), 2.0 * sp.base_frame):
        with pytest.raises(BadFrame):
            n2_frame(p, t1, t2, base_frame=bad, space=sp)
    # an orthonormal frame is taken, and the frame turns with it
    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th), 0],
                    [-math.sin(th), math.cos(th), 0],
                    [0, 0, 1.0]])
    f = n2_frame(p, t1, t2, space=sp)
    for base, want in ((list(sp.base_frame), f), (rot @ sp.base_frame, rot @ f)):
        got = n2_frame(p, t1, t2, base_frame=base, space=sp)
        assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_frame_negative_radicand():
    # wide pairs push the radicand negative
    p = make_param(1.9)
    t1 = np.array([1.0, 0.0])
    aE = 2.6
    t2 = np.array([math.sin(aE), math.cos(aE)])
    with pytest.raises((NegativeRadicand, ValueError)):
        n2_frame(p, t1, t2)


# --------------------------------------------------------- covector pair

def test_covector_pair_lowering(rng):
    for _ in range(60):
        p, sp, t1, t2 = draw_pair(rng)
        T1, T2 = covector_pair(p, t1, t2, space=sp)
        comp = n2(p, t1, t2, space=sp).components
        assert np.allclose(sp.r_full @ T1, comp @ t2, rtol=1e-9, atol=1e-11)
        assert np.allclose(sp.r_full @ T2, comp.T @ t1, rtol=1e-9, atol=1e-11)


def test_covector_pair_products_and_trace(rng):
    for _ in range(60):
        p, sp, t1, t2 = draw_pair(rng)
        T1, T2 = covector_pair(p, t1, t2, space=sp)
        a11, a22 = sp.dot(t1, t1), sp.dot(t2, t2)
        a12 = sp.dot(t1, t2)
        u = math.sqrt(a11 * a22 - a12 * a12)
        alpha = qe_angle(p, t1, t2, space=sp)
        sa, ca = math.sin(alpha), math.cos(alpha)
        cc = ca * ca + sa * sa / p.h**2
        assert sp.dot(T1, T1) == pytest.approx(a22 * cc, rel=1e-11)
        assert sp.dot(T2, T2) == pytest.approx(a11 * cc, rel=1e-11)
        assert sp.dot(T1, T2) == pytest.approx(
            (ca**2 - sa**2 / p.h**2) * a12 + 2 / p.h * u * ca * sa, rel=1e-10, abs=1e-11)
        # trace law
        assert sp.dot(t1, T1) + sp.dot(t2, T2) == pytest.approx(
            2 * math.sqrt(a11 * a22) * ca, rel=1e-11)
        # Gram root closed form
        uT = math.sqrt(max(sp.dot(T1, T1) * sp.dot(T2, T2) - sp.dot(T1, T2) ** 2, 0))
        uT_cf = 2 / p.h * a12 * sa * ca - (ca**2 - sa**2 / p.h**2) * u
        assert uT == pytest.approx(abs(uT_cf), rel=1e-9, abs=1e-11)


def test_covector_pair_implicit_angle_equation(rng):
    for _ in range(40):
        p, sp, t1, t2 = draw_pair(rng)
        T1, T2 = covector_pair(p, t1, t2, space=sp)
        alpha = qe_angle(p, t1, t2, space=sp)
        sa, ca = math.sin(alpha), math.cos(alpha)
        cc = ca * ca + sa * sa / p.h**2
        a12 = sp.dot(t1, t2)
        u = math.sqrt(sp.dot(t1, t1) * sp.dot(t2, t2) - a12**2)
        uT = 2 / p.h * a12 * sa * ca - (ca**2 - sa**2 / p.h**2) * u
        lhs = math.cos(p.h * alpha)
        rhs = (((ca**2 - sa**2 / p.h**2) * sp.dot(T1, T2) + 2 / p.h * sa * ca * uT)
               / (cc * math.sqrt(sp.dot(T1, T1) * sp.dot(T2, T2))))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_covector_pair_roundtrip(rng):
    for _ in range(100):
        p, sp, t1, t2 = draw_pair(rng)
        alpha = qe_angle(p, t1, t2, space=sp)
        T1, T2 = covector_pair(p, t1, t2, space=sp)
        b1, b2 = invert_covector_pair(p, T1, T2, alpha, space=sp)
        scale = max(np.max(np.abs(t1)), np.max(np.abs(t2)))
        assert np.max(np.abs(b1 - t1)) <= 1e-9 * scale
        assert np.max(np.abs(b2 - t2)) <= 1e-9 * scale


def test_covector_pair_coincidence(rng):
    p = make_param(0.8)
    sp = Space.euclidean(3)
    t = rand_vec(p, sp, rng)
    for eps in (1e-3, 1e-5):
        T1, T2 = covector_pair(p, t, t + eps * np.array([0.1, -0.2, 0.3]), space=sp)
        assert np.max(np.abs(T1 - t)) < 2e-2 * math.sqrt(eps) * sp.norm(t)
        assert np.max(np.abs(T2 - t)) < 2e-2 * math.sqrt(eps) * sp.norm(t)


def test_invert_refuses_a_non_finite_angle():
    p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    T1, T2 = covector_pair(p, np.array([0.3, -0.5, 1.0]), np.array([0.8, 0.4, 0.6]), space=sp)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pair angle must be finite"):
            invert_covector_pair(p, T1, T2, alpha, space=sp)


def test_invert_singular_xi(rng):
    from finsleroid import SingularXi
    p = make_param(0.4)
    with pytest.raises(SingularXi):
        invert_covector_pair(p, np.array([1.0, 1.0]), np.array([2.0, 2.0]), 0.3)


def test_contravariant_pair_tensor_symmetry(rng):
    # N^pq = d t1^p / d T_2q = d t2^q / d T_1p, computed numerically only:
    # perturb the covectors, re-solve the implicit angle, invert
    import scipy.optimize

    p, sp, t1, t2 = draw_pair(rng, dims=(3,), alpha_cap=1.2)
    T1, T2 = covector_pair(p, t1, t2, space=sp)

    def alpha_of(T1v, T2v, guess):
        b11, b22 = sp.dot(T1v, T1v), sp.dot(T2v, T2v)
        b12 = sp.dot(T1v, T2v)
        uT = math.sqrt(max(b11 * b22 - b12 * b12, 0))

        def eq(al):
            sa, ca = math.sin(al), math.cos(al)
            cc = ca * ca + sa * sa / p.h**2
            return (math.cos(p.h * al)
                    - ((ca**2 - sa**2 / p.h**2) * b12 + 2 / p.h * sa * ca * uT)
                    / (cc * math.sqrt(b11 * b22)))
        return float(scipy.optimize.brentq(eq, max(guess - 0.3, 1e-6), guess + 0.3))

    alpha0 = qe_angle(p, t1, t2, space=sp)
    eps = 1e-6
    n = sp.dim
    N1 = np.empty((n, n))  # d t1^p / d T2_q ... here d T2 components (lowered)
    N2 = np.empty((n, n))
    for i in range(n):
        dP = eps * sp.r_full_inv @ _e(n, i)  # raise the covector perturbation
        alp = alpha_of(T1, T2 + dP, alpha0)
        alm = alpha_of(T1, T2 - dP, alpha0)
        tp = invert_covector_pair(p, T1, T2 + dP, alp, space=sp)[0]
        tm = invert_covector_pair(p, T1, T2 - dP, alm, space=sp)[0]
        N1[i] = (tp - tm) / (2 * eps)
        alp = alpha_of(T1 + dP, T2, alpha0)
        alm = alpha_of(T1 - dP, T2, alpha0)
        tp = invert_covector_pair(p, T1 + dP, T2, alp, space=sp)[1]
        tm = invert_covector_pair(p, T1 - dP, T2, alm, space=sp)[1]
        N2[i] = (tp - tm) / (2 * eps)
    # N^{pq} from the first equals N^{qp} from the second
    assert np.max(np.abs(N1 - N2.T)) <= 1e-4 * max(1.0, np.max(np.abs(N1)))


# ----------------------------------------------------------------- g2

def draw_rs(rng, dims=(2, 3, 4), alpha_cap=2.2):
    while True:
        n = int(rng.choice(dims))
        p = make_param(float(rng.uniform(-1.6, 1.6)))
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng)
        S = rand_vec(p, sp, rng)
        pair = fins_angle(p, sp, R, S)
        if 0.15 < pair.alpha < alpha_cap:
            return p, sp, R, S


def test_m_transversality(rng):
    # M_p R^p = 0 holds exactly when R.dR = S.dS = the scalar product,
    # since R.R_low = K(R)^2
    for _ in range(100):
        p, sp, R, S = draw_rs(rng)
        P = fins_angle(p, sp, R, S).scalar_product
        dR, dS = scalar_grad(p, sp, R, S)
        scale = fmf(p, sp, R) * fmf(p, sp, S)
        assert abs(R @ dR - P) <= 1e-12 * scale
        assert abs(S @ dS - P) <= 1e-12 * scale


def test_g2_symmetry(rng):
    for _ in range(60):
        p, sp, R, S = draw_rs(rng)
        G_RS = g2(p, sp, R, S)
        G_SR = g2(p, sp, S, R)
        assert np.max(np.abs(G_RS - G_SR.T)) <= 1e-13 * np.max(np.abs(G_RS))


def test_g2_pullback_law(rng):
    # G = sigma'(R)^T n2(sigma R, sigma S) sigma'(S). g2 is computed as
    # this pullback, so the check is a tautology; the independent checks
    # are the finite-difference mixed Hessians below and in the acceptance
    # test.
    for _ in range(60):
        p, sp, R, S = draw_rs(rng)
        jr = sigma_jacobian(p, sp, R)
        js = sigma_jacobian(p, sp, S)
        comp = n2(p, sigma(p, sp, R), sigma(p, sp, S), space=sp).components
        expect = jr @ comp @ js.T
        got = g2(p, sp, R, S)
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(got))


@pytest.mark.parametrize("fn", [g2, scalar_grad])
def test_pair_pullback_evaluates_forms_once_per_vector(rng, monkeypatch, fn):
    # sigma and its Jacobian share one evaluation of the forms per vector
    calls, _ = count_memo(monkeypatch, "forms")
    for _ in range(20):
        p, sp, R, S = draw_rs(rng)
        calls[0] = 0
        fn(p, sp, R, S)
        assert calls[0] == 2


def test_g2_mixed_hessian(rng):
    def product(p, sp, Rv, Sv):
        return fins_angle(p, sp, Rv, Sv).scalar_product

    for _ in range(12):
        p, sp, R, S = draw_rs(rng, dims=(2, 3))
        G = g2(p, sp, R, S)
        n = sp.dim
        # rounding of the four products grows as 1/eps^2 and nears the
        # 1e-5 bound at a step of 1e-5; truncation at 1e-4 is far below it
        eps = 1e-4
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                def f(di, dj):
                    return product(p, sp, R + di * _e(n, i), S + dj * _e(n, j))
                H[i, j] = (f(eps, eps) - f(eps, -eps) - f(-eps, eps)
                           + f(-eps, -eps)) / (4 * eps * eps)
        assert np.max(np.abs(G - H)) <= 1e-5 * np.max(np.abs(G))


def test_g2_coincidence(rng):
    p = make_param(0.7)
    sp = Space.euclidean(3)
    R = np.array([0.9, 0.4, 0.7])
    w = np.array([-0.3, 0.8, 0.1])
    gm = metric(p, sp, R)
    # exactly proportional pair routes to the metric
    assert np.allclose(g2(p, sp, R, 1.01 * R), gm, atol=1e-12)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        errs.append(float(np.max(np.abs(g2(p, sp, R, R + eps * w) - gm))))
    assert errs[0] > errs[1] > errs[2]
    assert 7 <= errs[0] / errs[1] <= 14
    assert 7 <= errs[1] / errs[2] <= 14
    # linear down to eps = 1e-11, with no switch to the metric on the way
    R = np.array([0.3, 0.5, 1.0])
    d = np.array([0.6, -0.8, 0.0])
    for g in (0.4, 1.9):
        p = make_param(g)
        gm = metric(p, sp, R)
        slopes = [float(np.max(np.abs(g2(p, sp, R, R + eps * d) - gm))) / eps
                  for eps in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)]
        assert max(slopes) <= 1.1 * min(slopes)


def test_scalar_grad_fd(rng):
    from conftest import fd_gradient
    for _ in range(12):
        p, sp, R, S = draw_rs(rng, dims=(2, 3))
        dR, dS = scalar_grad(p, sp, R, S)
        fdR = fd_gradient(lambda x: fins_angle(p, sp, x, S).scalar_product, R.copy(),
                          eps=1e-4)
        fdS = fd_gradient(lambda x: fins_angle(p, sp, R, x).scalar_product, S.copy(),
                          eps=1e-4)
        assert np.max(np.abs(dR - fdR)) <= 1e-6 * max(1.0, np.max(np.abs(dR)))
        assert np.max(np.abs(dS - fdS)) <= 1e-6 * max(1.0, np.max(np.abs(dS)))


def test_scalar_grad_degenerate_pair():
    from finsleroid import DegenerateW
    p = make_param(0.4)
    sp = Space.euclidean(2)
    R = np.array([1.0, 0.5])
    with pytest.raises(DegenerateW):
        scalar_grad(p, sp, R, 2.0 * R)


def test_scalar_grad_euler_limit(rng):
    # as S -> R the R-gradient tends to the covector of R
    p = make_param(0.9)
    sp = Space.euclidean(3)
    R = np.array([0.8, -0.5, 1.2])
    w = np.array([0.4, 0.7, -0.2])
    Rlow = grad_covector(p, sp, R)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        dR, _ = scalar_grad(p, sp, R, R + eps * w)
        errs.append(float(np.max(np.abs(dR - Rlow))))
    # linear vanishing, extrapolates to zero well under 1e-6 of scale
    assert errs[2] <= 1.2e-3 * np.max(np.abs(Rlow))
    assert 7 <= errs[0] / errs[1] <= 14
    # linear down to eps = 1e-10: the pair is answered, not refused
    slopes = [float(np.max(np.abs(scalar_grad(p, sp, R, R + eps * w)[0] - Rlow))) / eps
              for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)]
    assert max(slopes) <= 1.1 * min(slopes)


@pytest.mark.parametrize("g", [0.4, -1.5])
def test_pair_on_axis_raises(g):
    from finsleroid import AxisSingular
    p = make_param(g)
    sp = Space.euclidean(3)
    axis = np.array([0.0, 0.0, 1.3])
    off = np.array([0.5, -0.2, 0.8])
    with pytest.raises(AxisSingular):
        g2(p, sp, axis, off)
    with pytest.raises(AxisSingular):
        g2(p, sp, off, axis)
    with pytest.raises(AxisSingular):
        scalar_grad(p, sp, axis, off)


@pytest.mark.parametrize("identity", [True, False])
def test_pair_euclidean_at_g0(rng, identity):
    # at g = 0 sigma is the identity: G = r and the gradients are (r S, r R),
    # on the axis too
    p = make_param(0.0)
    for n in (2, 3, 5):
        sp = rand_space(n, rng, identity=identity)
        scale = np.max(np.abs(sp.r_full))
        for k in range(20):
            R, S = rng.normal(size=n), rng.normal(size=n)
            if k % 4 == 0:
                R[:-1] = 0.0
            if k % 4 == 1:
                S[:-1] = 0.0
            assert np.max(np.abs(g2(p, sp, R, S) - sp.r_full)) <= 1e-14 * scale
            dR, dS = scalar_grad(p, sp, R, S)
            assert np.max(np.abs(dR - sp.r_full @ S)) <= 1e-14 * scale * np.max(np.abs(S))
            assert np.max(np.abs(dS - sp.r_full @ R)) <= 1e-14 * scale * np.max(np.abs(R))

import math

import numpy as np
import pytest

import finsleroid
from finsleroid import (AxisSingular, BadFrame, ChartOutOfRange,
                        DegenerateVector, Space, conformal_check,
                        conformal_factor, fmf, make_param, metric, mu,
                        mu_jacobian, n2_frame, n_metric, qe_christoffel,
                        qe_curvature, qe_frames, sigma, sigma_jacobian, snorm,
                        sphere_curvature, scalar_forms, unit_l)
from finsleroid.cospace import fhf, to_costate
from conftest import fd_jacobian, leaves, rand_space, rand_vec


def draw(rng, dims=(2, 3, 5)):
    n = int(rng.choice(dims))
    p = make_param(float(rng.uniform(-1.8, 1.8)))
    sp = rand_space(n, rng)
    return p, sp, rand_vec(p, sp, rng)


# ------------------------------------------------------------------ maps

def test_sigma_identity_at_g0(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    R = rand_vec(p, sp, rng)
    assert np.allclose(sigma(p, sp, R), R, atol=1e-14)
    assert np.allclose(mu(p, sp, R), R, atol=1e-14)


def test_norm_transport(rng):
    for _ in range(200):
        p, sp, R = draw(rng)
        t = sigma(p, sp, R)
        assert abs(snorm(sp, t) - fmf(p, sp, R)) <= 1e-12 * fmf(p, sp, R)


def test_unit_body_maps_to_unit_ball(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        Ru = R / fmf(p, sp, R)
        assert snorm(sp, sigma(p, sp, Ru)) == pytest.approx(1.0, abs=1e-12)


def test_sigma_homogeneity(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        t = sigma(p, sp, R)
        for b in (0.5, 3.0):
            assert np.allclose(sigma(p, sp, b * R), b * t, rtol=1e-13)


def test_roundtrip(rng):
    for _ in range(500):
        p, sp, R = draw(rng)
        back = mu(p, sp, sigma(p, sp, R))
        assert np.max(np.abs(back - R)) <= 1e-10 * max(1.0, np.max(np.abs(R)))


def test_roundtrip_on_axis():
    p = make_param(1.1)
    sp = Space.euclidean(3)
    for z in (2.0, -0.4):
        R = np.array([0.0, 0.0, z])
        t = sigma(p, sp, R)
        assert t[0] == t[1] == 0.0
        assert np.max(np.abs(mu(p, sp, t) - R)) < 1e-14


# ------------------------------------------------------------- jacobians

def test_sigma_jacobian_fd(rng):
    for _ in range(30):
        p, sp, R = draw(rng, dims=(2, 3, 4))
        jac = sigma_jacobian(p, sp, R)
        fd = fd_jacobian(lambda x: sigma(p, sp, x), R,
                         eps=1e-6 * max(1.0, sp.norm(R)))
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


def test_sigma_jacobian_chain_and_det(rng):
    for _ in range(100):
        p, sp, R = draw(rng)
        jac = sigma_jacobian(p, sp, R)
        t = sigma(p, sp, R)
        assert np.max(np.abs(R @ jac - t)) <= 1e-12 * snorm(sp, t)
        f = scalar_forms(p, sp, R)
        expect = p.h ** (sp.dim - 1) * f.J ** sp.dim
        assert np.linalg.det(jac) == pytest.approx(expect, rel=1e-10)


def test_mu_jacobian_fd_and_inverse(rng):
    for _ in range(30):
        p, sp, R = draw(rng, dims=(2, 3, 4))
        t = sigma(p, sp, R)
        mj = mu_jacobian(p, sp, t)
        fd = fd_jacobian(lambda x: mu(p, sp, x), t,
                         eps=1e-6 * max(1.0, snorm(sp, t)))
        assert np.max(np.abs(mj - fd)) <= 1e-6 * np.max(np.abs(mj))
        sj = sigma_jacobian(p, sp, R)
        assert np.max(np.abs(sj @ mj - np.eye(sp.dim))) < 1e-11
        # homogeneity contraction
        assert np.max(np.abs(t @ mj - R)) <= 1e-12 * max(1.0, sp.norm(R))


def test_jacobians_identity_at_g0(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    R = rand_vec(p, sp, rng)
    assert np.allclose(sigma_jacobian(p, sp, R), np.eye(3), atol=1e-14)
    assert np.allclose(mu_jacobian(p, sp, R), np.eye(3), atol=1e-14)


def test_jacobians_axis_raises():
    p = make_param(0.5)
    sp = Space.euclidean(3)
    axis = np.array([0.0, 0.0, 1.0])
    with pytest.raises(AxisSingular):
        sigma_jacobian(p, sp, axis)
    with pytest.raises(AxisSingular):
        mu_jacobian(p, sp, axis)


@pytest.mark.parametrize("g", [0.0, 0.4])
def test_mu_jacobian_refuses_the_origin(g):
    # as mu and sigma_jacobian do: one point, and a stack with an origin row
    p, sp = make_param(g), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    T = np.array([[0.3, 0.5, 1.0], [0.0, 0.0, 0.0]])
    for t in (T[1], T):
        with pytest.raises(DegenerateVector):
            mu_jacobian(p, sp, t)


def test_covector_transport(rng):
    # R_p mu^p_q = t_q and t_p sigma^p_q = R_q
    for _ in range(50):
        p, sp, R = draw(rng)
        t = sigma(p, sp, R)
        rlow = to_costate(p, sp, R)
        tlow = sp.r_full @ t
        mj = mu_jacobian(p, sp, t)
        sj = sigma_jacobian(p, sp, R)
        assert np.allclose(mj @ rlow, tlow, rtol=1e-9, atol=1e-11)
        assert np.allclose(sj @ tlow, rlow, rtol=1e-9, atol=1e-11)


def test_unit_vector_transport(rng):
    # L^q = l^p sigma_p^q and l^p = mu_q^p L^q ... wait, check both raised
    for _ in range(50):
        p, sp, R = draw(rng)
        t = sigma(p, sp, R)
        K = fmf(p, sp, R)
        l_up = R / K
        L_up = unit_l(sp, t)
        sj = sigma_jacobian(p, sp, R)
        mj = mu_jacobian(p, sp, t)
        assert np.allclose(l_up @ sj, L_up, rtol=1e-10, atol=1e-12)
        assert np.allclose(L_up @ mj, l_up, rtol=1e-10, atol=1e-12)
        # lowered versions transport through the transposed jacobians
        l_low = to_costate(p, sp, R) / fhf(p, sp, to_costate(p, sp, R))
        L_low = sp.r_full @ L_up
        assert np.allclose(sj @ L_low, l_low, rtol=1e-10, atol=1e-12)
        assert np.allclose(mj @ l_low, L_low, rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------- n metric

def test_n_metric_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    t = rand_vec(p, sp, rng)
    nm = n_metric(p, sp, t)
    assert np.allclose(nm.low, sp.r_full, atol=1e-14)
    assert np.allclose(nm.up, sp.r_full_inv, atol=1e-14)


def test_n_metric_reciprocity_and_det(rng):
    for _ in range(100):
        p, sp, t = draw(rng)
        nm = n_metric(p, sp, t)
        assert np.max(np.abs(nm.low @ nm.up - np.eye(sp.dim))) < 1e-12
        d = np.linalg.det(nm.low)
        assert abs(d - nm.det) <= 1e-10 * abs(d)


def test_n_metric_det_example():
    p = make_param(0.4)
    sp = Space.euclidean(3)
    nm = n_metric(p, sp, np.array([0.3, 0.4, 0.5]))
    assert nm.det == pytest.approx(0.96 ** (-2), rel=1e-12)
    assert nm.det == pytest.approx(1.0850694444444446, rel=1e-12)


def test_n_metric_unit_vector_relations(rng):
    for _ in range(50):
        p, sp, t = draw(rng)
        nm = n_metric(p, sp, t)
        L = unit_l(sp, t)
        Llow = sp.r_full @ L
        assert L @ Llow == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(nm.low @ L, Llow, rtol=1e-12, atol=1e-13)
        assert np.allclose(nm.up @ Llow, L, rtol=1e-12, atol=1e-13)
        S2 = snorm(sp, t) ** 2
        assert t @ nm.low @ t == pytest.approx(S2, rel=1e-12)


def test_pullback_reproduces_metric(rng):
    for _ in range(100):
        p, sp, R = draw(rng)
        jac = sigma_jacobian(p, sp, R)
        nm = n_metric(p, sp, sigma(p, sp, R))
        gm = metric(p, sp, R)
        assert np.max(np.abs(jac @ nm.low @ jac.T - gm)) <= 1e-9 * np.max(np.abs(gm))


# -------------------------------------------------------------- christoffel

def test_christoffel_zero_at_g0(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    assert np.all(qe_christoffel(p, sp, rand_vec(p, sp, rng)) == 0)


def test_christoffel_fd_oracle(rng):
    # symbols from the derivative formula of n applied by finite differences
    for _ in range(15):
        p, sp, t = draw(rng, dims=(2, 3, 4))
        n = sp.dim
        eps = 1e-6 * max(1.0, snorm(sp, t))
        dn = np.empty((n, n, n))
        for r in range(n):
            tp = t.copy(); tp[r] += eps
            tm = t.copy(); tm[r] -= eps
            dn[:, :, r] = (n_metric(p, sp, tp).low - n_metric(p, sp, tm).low) / (2 * eps)
        low = np.empty((n, n, n))
        for pp in range(n):
            for rr in range(n):
                for qq in range(n):
                    low[pp, rr, qq] = 0.5 * (dn[pp, rr, qq] + dn[qq, rr, pp]
                                             - dn[pp, qq, rr])
        fd = np.einsum("rs,psq->prq", n_metric(p, sp, t).up, low)
        chris = qe_christoffel(p, sp, t)
        assert np.max(np.abs(chris - fd)) <= 1e-6 * max(np.max(np.abs(chris)), 1e-3)


def test_christoffel_identities(rng):
    for _ in range(100):
        p, sp, t = draw(rng)
        chris = qe_christoffel(p, sp, t)
        scale = max(np.max(np.abs(chris)) * snorm(sp, t), 1.0)
        assert np.max(np.abs(np.einsum("prq,p->rq", chris, t))) <= 1e-14 * scale
        assert np.max(np.abs(np.einsum("pss->p", chris))) <= 1e-14
        nil = np.einsum("tsr,ptq->psrq", chris, chris)
        assert np.max(np.abs(nil)) <= 1e-14


# ---------------------------------------------------------------- curvature

def test_curvature_zero_at_g0(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    assert np.all(qe_curvature(p, sp, rand_vec(p, sp, rng)) == 0)


def test_curvature_assembled_from_christoffel(rng):
    # R_p^r_qs = dN_p^r_q/dt^s - dN_p^r_s/dt^q + N N - N N; the closed
    # all-lower form corresponds to lowering r with the background metric
    # (n-lowering would rescale the transverse block by 1/h^2)
    for _ in range(12):
        p, sp, t = draw(rng, dims=(2, 3, 4))
        n = sp.dim
        eps = 1e-5 * max(1.0, snorm(sp, t))
        dN = np.empty((n, n, n, n))  # dN[s, p, r, q] = d chris[p,r,q] / d t^s
        for s in range(n):
            tp = t.copy(); tp[s] += eps
            tm = t.copy(); tm[s] -= eps
            dN[s] = (qe_christoffel(p, sp, tp) - qe_christoffel(p, sp, tm)) / (2 * eps)
        chris = qe_christoffel(p, sp, t)
        mixed = (np.einsum("sprq->prqs", dN) - np.einsum("qprs->prqs", dN)
                 + np.einsum("pwq,wrs->prqs", chris, chris)
                 - np.einsum("pws,wrq->prqs", chris, chris))
        low = np.einsum("prqs,rt->ptqs", mixed, sp.r_full)
        expect = qe_curvature(p, sp, t)
        assert np.max(np.abs(low - expect)) <= 1e-9 + 1e-5 * np.max(np.abs(expect))


def test_curvature_radial_contractions(rng):
    for _ in range(50):
        p, sp, t = draw(rng)
        R4 = qe_curvature(p, sp, t)
        L = unit_l(sp, t)
        scale = max(np.max(np.abs(R4)), 1e-6)
        for axis in range(4):
            contr = np.tensordot(R4, L, axes=([axis], [0]))
            assert np.max(np.abs(contr)) <= 1e-13 * max(scale, 1.0)


# ------------------------------------------------------------------- frames

def test_frames_completeness(rng):
    for _ in range(60):
        p, sp, t = draw(rng)
        fr = qe_frames(p, sp, t)
        nm = n_metric(p, sp, t)
        assert np.max(np.abs(fr.f.T @ fr.f - nm.low)) <= 1e-12 * np.max(np.abs(nm.low))
        assert np.max(np.abs(fr.m.T @ fr.m - nm.up)) <= 1e-12 * np.max(np.abs(nm.up))


def test_frames_radial_eigenvector(rng):
    for _ in range(30):
        p, sp, t = draw(rng)
        fr = qe_frames(p, sp, t)
        tP = sp.base_frame @ t
        assert np.allclose(fr.f @ t, tP, rtol=1e-11, atol=1e-12)


def test_frames_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    t = rand_vec(p, sp, rng)
    fr = qe_frames(p, sp, t)
    assert np.allclose(fr.f, sp.base_frame, atol=1e-13)
    assert np.max(np.abs(fr.ricci)) == 0.0


def test_frames_custom_and_bad(rng):
    p = make_param(0.5)
    sp = Space.euclidean(3)
    t = rand_vec(p, sp, rng)
    # a rotated orthonormal frame is accepted
    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th), 0],
                    [-math.sin(th), math.cos(th), 0],
                    [0, 0, 1.0]])
    fr = qe_frames(p, sp, t, base_frame=rot)
    nm = n_metric(p, sp, t)
    assert np.max(np.abs(fr.f.T @ fr.f - nm.low)) < 1e-12
    for bad in (2.0 * np.eye(3), np.ones((3, 3)), np.eye(2)):
        with pytest.raises(BadFrame):
            qe_frames(p, sp, t, base_frame=bad)


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e6, 1e8])
def test_frame_check_is_relative(scale):
    # base^T base - r is measured entry by entry against sqrt(r_pp r_qq): the
    # space's own frame is taken at every scale of r, and a frame with one
    # entry off by 1e-3 sqrt(scale) is refused at every scale
    p = make_param(0.5)
    sp = Space(3, scale * np.array([[1.5, 0.2], [0.2, 0.8]]))
    t, t2 = np.array([0.3, 0.5, 1.0]), np.array([0.6, -0.2, 0.9])
    own = sp.base_frame.copy()
    pairs = ((qe_frames(p, sp, t, base_frame=own).f, qe_frames(p, sp, t).f),
             (n2_frame(p, t, t2, base_frame=own, space=sp), n2_frame(p, t, t2, space=sp)))
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    bad = own.copy()
    bad[0, 0] += 1e-3 * math.sqrt(scale)
    with pytest.raises(BadFrame):
        qe_frames(p, sp, t, base_frame=bad)
    with pytest.raises(BadFrame):
        n2_frame(p, t, t2, base_frame=bad, space=sp)


def test_ricci_coefficients(rng):
    # closed form against the covariant-derivative definition (FD), plus
    # antisymmetry
    for _ in range(12):
        p, sp, t = draw(rng, dims=(2, 3, 4))
        n = sp.dim
        fr = qe_frames(p, sp, t)
        assert np.max(np.abs(fr.ricci + fr.ricci.transpose(1, 0, 2))) < 1e-13
        eps = 1e-6 * max(1.0, snorm(sp, t))
        df = np.empty((n, n, n))
        for pp in range(n):
            tp = t.copy(); tp[pp] += eps
            tm = t.copy(); tm[pp] -= eps
            df[pp] = (qe_frames(p, sp, tp).f - qe_frames(p, sp, tm).f) / (2 * eps)
        chris = qe_christoffel(p, sp, t)
        cov = df - np.einsum("prq,Qr->pQq", chris, fr.f)
        fd = np.einsum("pQq,Pq->PQp", cov, fr.m)
        assert np.max(np.abs(fr.ricci - fd)) <= 1e-6 * max(np.max(np.abs(fr.ricci)), 1e-3)


# ---------------------------------------------------------------- conformal

def test_conformal_factor_values(rng):
    p = make_param(0.8)
    sp = Space.euclidean(3)
    t = rand_vec(p, sp, rng)
    t_unit = t * math.sqrt(2.0) / snorm(sp, t)
    assert conformal_factor(p, sp, t_unit) == pytest.approx(1.0, abs=1e-14)
    assert conformal_factor(make_param(0.0), sp, t) == 1.0


def test_conformal_flatness(rng):
    for _ in range(60):
        p, sp, t = draw(rng)
        xi = conformal_factor(p, sp, t)
        c = conformal_check(p, sp, t)
        assert np.max(np.abs(c - xi**2 * sp.r_full_inv)) <= 1e-10 * xi**2
        # determinant relation for the lowered transported tensor
        det_low = 1.0 / np.linalg.det(c)
        assert det_low == pytest.approx(xi ** (-2 * sp.dim) * np.linalg.det(sp.r_full),
                                        rel=1e-9)


# ------------------------------------------------------------------- sphere

def test_sphere_curvature_values():
    u = np.array([0.3, -0.2])
    assert sphere_curvature(make_param(0.0), 1.0, u) == pytest.approx(1.0, abs=1e-9)
    assert sphere_curvature(make_param(0.6), 1.0, u) == pytest.approx(0.91, abs=1e-9)
    assert sphere_curvature(make_param(0.4), 2.0, u) == pytest.approx(0.24, abs=1e-9)


def test_sphere_curvature_chart_independent(rng):
    p = make_param(1.3)
    for _ in range(10):
        u = rng.uniform(-0.4, 0.4, size=3)
        assert sphere_curvature(p, 1.5, u) == pytest.approx(p.h**2 / 1.5**2, rel=1e-8)


def test_sphere_curvature_out_of_range():
    with pytest.raises(ChartOutOfRange):
        sphere_curvature(make_param(0.4), 1.0, np.array([0.8, 0.7]))


def test_sphere_curvature_refuses_bad_input():
    p, u = make_param(0.4), np.array([0.3, -0.2])
    for radius, chart in ((np.nan, u), (np.inf, u), (-1.0, u), (0.0, u), (1.0, [np.nan, 0.1]),
                          (1.0, [0.2, np.inf]), (1.0, [-np.inf, 0.0])):
        with pytest.raises(ValueError, match="finite radius > 0 and a finite chart point"):
            sphere_curvature(p, radius, np.array(chart))


def test_sphere_matches_indicatrix_curvature(rng):
    # pullback note: the transported unit sphere carries h^2, matching
    # the constant 1 + S* of the vector picture
    from finsleroid import curvature_S
    for g in (0.3, 0.9, -1.2):
        p = make_param(g)
        sp = Space.euclidean(4)
        R = rand_vec(p, sp, rng)
        s_star = curvature_S(p, sp, R).s_star
        kappa = sphere_curvature(p, 1.0, np.array([0.2, 0.1, -0.3]))
        assert abs((1 + s_star) - kappa) <= 1e-9


@pytest.mark.parametrize("identity", [True, False])
def test_mu_broadcasts_over_leading_axes(rng, identity):
    p = make_param(-1.1)
    sp = rand_space(3, rng, identity=identity)
    for shape in ((6,), (2, 4)):
        T = rng.normal(size=shape + (3,))
        R = mu(p, sp, T)
        assert R.shape == T.shape
        for idx in np.ndindex(*shape):
            assert np.allclose(R[idx], mu(p, sp, T[idx]), rtol=1e-15, atol=0.0)


def test_mu_batch_checks_every_row():
    p = make_param(0.4)
    sp = Space.euclidean(3)
    T = np.ones((2, 3, 3))
    T[1, 2] = 0.0
    with pytest.raises(DegenerateVector):
        mu(p, sp, T)
    T[1, 2, 0] = np.inf
    with pytest.raises(ValueError):
        mu(p, sp, T)
    with pytest.raises(ValueError):
        mu(p, sp, np.ones((2, 4)))


def test_mu_of_one_point_checks_it():
    p = make_param(0.4)
    sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
    with pytest.raises(DegenerateVector):
        mu(p, sp, np.zeros(3))
    with pytest.raises(ValueError):
        mu(p, sp, np.array([0.3, np.inf, 1.0]))
    # on the axis (m = 0, tN != 0) the point maps to the axis, as its row
    # of a stack does
    for tN in (1.3, -0.7):
        t = np.array([0.0, 0.0, tN])
        R = mu(p, sp, t)
        assert R.shape == (3,) and np.all(np.isfinite(R)) and not R[:-1].any()
        assert np.allclose(R, mu(p, sp, np.stack([t, t]))[0], rtol=1e-15, atol=0.0)
        assert abs(fmf(p, sp, R) - abs(tN)) <= 1e-15 * abs(tN)


@pytest.mark.parametrize("fn", [snorm, finsleroid.mnorm, unit_l])
def test_norms_check_their_point(fn):
    # a non-finite entry or a wrong last axis raises the ValueError of
    # check_vector, with no warning on the way (warnings are errors)
    for sp in (Space.euclidean(3), Space(3, [[1.5, 0.2], [0.2, 0.8]])):
        for t in ([np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [[0.3, 0.5, 1.0], [0.0, -np.inf, 0.2]]):
            with pytest.raises(ValueError, match="non-finite"):
                fn(sp, np.array(t))
        for t in (np.ones(2), np.ones(4), np.ones((2, 4))):
            with pytest.raises(ValueError, match="expected vectors of length 3"):
                fn(sp, t)


# every function of image points (sigma of vectors), and those among them
# that take no Param
QE_STACKED = ["snorm", "mnorm", "unit_l", "sigma", "mu", "sigma_jacobian", "mu_jacobian",
              "n_metric", "qe_christoffel", "qe_curvature", "qe_frames", "conformal_factor",
              "conformal_check"]
NORMS = ("snorm", "mnorm", "unit_l")


@pytest.mark.parametrize("sp", [Space(3, [[1.5, 0.2], [0.2, 0.8]]),
                                Space(4, np.diag([1.0, 2.0, 0.5]) + 0.1),
                                Space(5, np.diag([1.0, 2.0, 0.5, 1.5]) + 0.1),
                                Space(6, np.diag([1.0, 2.0, 0.5, 1.5, 0.8]) + 0.1)],
                         ids=["N3", "N4", "N5", "N6"])
def test_stacked_rows_equal_one_point_calls(rng, sp):
    # one row formula for one point and for a stack, and products with r
    # that sum each row as one vector is summed: every row of a stack gets
    # the bits of its one-point result
    p = make_param(0.7)
    T = rng.normal(size=(300, sp.dim))
    for name in QE_STACKED:
        fn = getattr(finsleroid, name)
        args = (sp,) if name in NORMS else (p, sp)
        got = leaves(fn(*args, T))
        for i, t in enumerate(T):
            want = leaves(fn(*args, t))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                a = a if a.ndim == 0 else a[i]  # n_metric's det at a float g
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, i)

import math

import numpy as np
import pytest
import scipy.optimize

from finsleroid import (Space, co_metric, co_scalar_forms, curvature_S, fhf,
                        fmf, from_costate, make_param, metric, metric_inverse,
                        scalar_forms, to_costate)
from conftest import count_scalar_forms, rand_space, rand_vec


def draw(rng, dims=(2, 3, 5)):
    n = int(rng.choice(dims))
    p = make_param(float(rng.uniform(-1.8, 1.8)))
    sp = rand_space(n, rng)
    return p, sp, rand_vec(p, sp, rng)


def test_fhf_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(4, rng)
    X = rand_vec(p, sp, rng)
    expect = math.sqrt(X[:-1] @ sp.r_spatial_inv @ X[:-1] + X[-1] ** 2)
    assert fhf(p, sp, X) == pytest.approx(expect, rel=1e-14)


def test_fhf_axis_values():
    p = make_param(0.4)
    sp = Space.euclidean(2)
    assert fhf(p, sp, np.array([0.0, 2.0])) == pytest.approx(
        2.0 * math.exp(-p.G * math.pi / 4), rel=1e-14)
    f = co_scalar_forms(p, sp, np.array([0.0, 2.0]))
    assert f.Phi == pytest.approx(math.pi / 2, abs=1e-15)


def test_mirror_symmetry_identity_space(rng):
    # H(g; X) = K(-g; X) componentwise when r is the identity
    for n in (2, 3, 5):
        sp = Space.euclidean(n)
        for _ in range(60):
            g = float(rng.uniform(-1.9, 1.9))
            X = rand_vec(make_param(g), sp, rng)
            K = fmf(make_param(-g), sp, X)
            assert abs(fhf(make_param(g), sp, X) - K) <= 1e-12 * K


def test_mirror_symmetry_general_space(rng):
    # general r: the covector side carries the inverse spatial metric
    for _ in range(40):
        p, sp, X = draw(rng)
        assert fhf(p, sp, X) == fmf(p.mirrored(), sp.dual(), X)


def test_gzhat_parity(rng):
    for _ in range(100):
        p, sp, X = draw(rng)
        flipped = X.copy()
        flipped[-1] *= -1.0
        H = fhf(p, sp, X)
        assert abs(fhf(p.mirrored(), sp, flipped) - H) <= 1e-12 * H


def test_duality_norm_transport(rng):
    for _ in range(200):
        p, sp, R = draw(rng)
        K = fmf(p, sp, R)
        assert abs(fhf(p, sp, to_costate(p, sp, R)) - K) <= 1e-9 * K


def test_roundtrip(rng):
    for _ in range(500):
        p, sp, R = draw(rng)
        back = from_costate(p, sp, to_costate(p, sp, R))
        assert np.max(np.abs(back - R)) <= 1e-10 * max(1.0, np.max(np.abs(R)))


def test_roundtrip_on_axis():
    p = make_param(0.9)
    sp = Space.euclidean(3)
    R = np.array([0.0, 0.0, -1.7])
    back = from_costate(p, sp, to_costate(p, sp, R))
    assert np.max(np.abs(back - R)) < 1e-12


def test_from_costate_matches_numeric_inversion(rng):
    # oracle: solve to_costate(R) = Rhat numerically, independent of the
    # closed form
    for _ in range(15):
        p, sp, R = draw(rng, dims=(2, 3))
        rhat = to_costate(p, sp, R)
        sol = scipy.optimize.root(lambda x: to_costate(p, sp, x) - rhat,
                                  x0=R + 0.1, tol=1e-13)
        assert sol.success
        closed = from_costate(p, sp, rhat)
        assert np.max(np.abs(closed - sol.x)) < 1e-8


def test_variable_maps(rng):
    # p = w/(1+gw), w = p/(1-gp), and V^2 W^2 = Q Qhat at matched variables
    for _ in range(100):
        p, sp, R = draw(rng)
        if abs(R[-1]) < 0.2:
            R[-1] = 0.7
        f = scalar_forms(p, sp, R)
        rhat = to_costate(p, sp, R)
        co = co_scalar_forms(p, sp, rhat)
        w = f.q / R[-1]
        pv = co.q / rhat[-1]
        assert pv == pytest.approx(w / (1 + p.g * w), rel=1e-10)
        assert w == pytest.approx(pv / (1 - p.g * pv), rel=1e-10)
        V2 = f.K**2 / R[-1] ** 2
        W2 = co.K ** 2 / rhat[-1] ** 2
        Qhat = co.B / rhat[-1] ** 2
        Q = f.B / (R[-1] * R[-1])  # the Z-scaled form B / Z^2
        assert V2 * W2 == pytest.approx(Q * Qhat, rel=1e-12)


def test_co_metric_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    X = rand_vec(p, sp, rng)
    up, low = co_metric(p, sp, X)
    assert np.allclose(up, sp.r_full_inv, atol=1e-13)
    assert np.allclose(low, sp.r_full, atol=1e-13)


def test_co_metric_at_g_zero_is_the_background_exactly(rng):
    # the dual's inverse metric is the space's own r_full, not inv(inv(r))
    p = make_param(0.0)
    for n in (2, 3, 5):
        sp = rand_space(n, rng)
        up, low = co_metric(p, sp, rand_vec(p, sp, rng))
        assert np.array_equal(low, sp.r_full)
        assert np.array_equal(up, sp.r_full_inv)


def test_co_metric_evaluates_the_forms_once(rng, monkeypatch):
    calls = count_scalar_forms(monkeypatch)
    for _ in range(20):
        p, sp, X = draw(rng)
        calls[0] = 0
        up, low = co_metric(p, sp, X)
        assert calls[0] == 1
        m, d = p.mirrored(), sp.dual()
        assert np.array_equal(up, metric(m, d, X))
        assert np.array_equal(low, metric_inverse(m, d, X))


def test_co_metric_reciprocity(rng):
    for _ in range(60):
        p, sp, X = draw(rng)
        up, low = co_metric(p, sp, X)
        assert np.max(np.abs(up @ low - np.eye(sp.dim))) < 1e-12


def test_co_metric_reproduces_vector_side(rng):
    for _ in range(60):
        p, sp, R = draw(rng)
        rhat = to_costate(p, sp, R)
        up, low = co_metric(p, sp, rhat)
        gi = metric_inverse(p, sp, R)
        gm = metric(p, sp, R)
        assert np.max(np.abs(up - gi)) <= 1e-9 * np.max(np.abs(gi))
        assert np.max(np.abs(low - gm)) <= 1e-9 * np.max(np.abs(gm))


def test_co_metric_is_hamiltonian_hessian(rng):
    # g^pq = (1/2) d^2 H^2 / dR_p dR_q by finite differences
    from conftest import fd_hessian
    for _ in range(10):
        p, sp, X = draw(rng, dims=(2, 3))
        up, _ = co_metric(p, sp, X)
        H = fd_hessian(lambda x: 0.5 * fhf(p, sp, x) ** 2, X,
                       eps=1e-3 * max(1.0, float(np.max(np.abs(X)))))
        assert np.max(np.abs(up - H)) <= 1e-6 * np.max(np.abs(up))


def test_co_profile_is_mirrored_profile():
    # the covector-side unit boundary at g is the vector-side boundary
    # at -g, pointwise: H(g; point of the -g profile) = 1
    from finsleroid import fhf as H
    from finsleroid.shape import indicatrix_profile
    sp = Space.euclidean(2)
    for g in (0.3, -0.8, 1.4):
        p = make_param(g)
        prof = indicatrix_profile(p.mirrored(), 129)
        for q, z in prof:
            assert H(p, sp, np.array([q, z])) == pytest.approx(1.0, abs=1e-12)


def test_co_indicatrix_curvature_via_mirror(rng):
    # the covector-side unit boundary at g matches the vector side at -g,
    # whose constant curvature is 1 + S* = h^2 (same h)
    sp = Space.euclidean(3)
    for g in (0.3, -0.6, 1.1):
        p = make_param(g)
        R = rand_vec(p, sp, rng)
        s_star = curvature_S(p.mirrored(), sp, R).s_star
        assert 1 + s_star == pytest.approx(p.h**2, abs=1e-9)

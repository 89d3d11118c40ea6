"""Accuracy against 50-digit references near singular loci: h and K as
|g| -> 2, and the Gram root and n2 near the antipodal pair; the range of
the tensor stack as |g| -> 2."""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

import finsleroid as fd  # noqa: E402
from finsleroid import ConeLimit, Space, fmf, make_param, n2  # noqa: E402
from conftest import rand_space  # noqa: E402

EPS = np.finfo(float).eps


@pytest.fixture(autouse=True)
def digits():
    with mp.workdps(50):
        yield


def test_h_near_the_cone_limit():
    # h = sqrt((1 - g/2)(1 + g/2)); sqrt(1 - g^2/4) cancels as |g| -> 2
    # (relative error 1.2e-9 at g = 1.99999999)
    gaps = 10.0 ** -np.arange(1, 16)
    g = np.concatenate([2.0 - gaps, -(2.0 - gaps)])
    ref = [mp.sqrt(1 - mp.mpf(x) ** 2 / 4) for x in g]
    hs = make_param(g).h
    for x, h_arr, h_ref in zip(g, hs, ref):
        for h in (h_arr, make_param(float(x)).h):
            assert abs(mp.mpf(h) - h_ref) <= 2 * EPS * h_ref, x
    assert make_param(0.0).h == 1.0


def _mp_K(g, R):
    """K(g; R) in 50 digits at the same float inputs (Euclidean r), and G Phi."""
    q = mp.sqrt(sum(mp.mpf(v) ** 2 for v in R[:-1]))
    Z, g = mp.mpf(R[-1]), mp.mpf(g)
    h = mp.sqrt(1 - g ** 2 / 4)
    Phi = mp.atan2(Z + g * q / 2, h * q)
    return mp.sqrt(Z ** 2 + g * q * Z + q ** 2) * mp.exp(g / h * Phi / 2), g / h * Phi


CONE_VECTORS = np.array([(0.3, 0.5, -1.0), (0.3, -0.5, -1.0), (1.0, 0.2, 0.7),
                         (0.1, 0.1, 1.0), (2.0, -1.0, 0.5)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_K_near_the_cone_limit(sign):
    # J = exp(G Phi / 2) with |G| ~ 2 / sqrt(2 - |g|): K keeps the
    # conditioning of exp, eps (1 + |G Phi|), until J leaves the doubles,
    # and then ConeLimit is raised; K was 0 (g > 0) or inf (g < 0) there.
    # Measured: at most 0.47 eps (1 + |G Phi|)
    sp = Space.euclidean(3)
    raised = 0
    for gap in 10.0 ** -np.arange(1, 16):
        p = make_param(sign * (2.0 - gap))
        for R in CONE_VECTORS:
            try:
                K = fmf(p, sp, R)
            except ConeLimit:
                raised += 1
                continue
            ref, GPhi = _mp_K(p.g, R)
            assert abs(mp.mpf(K) - ref) <= 2 * EPS * (1 + abs(GPhi)) * ref, (p.g, R)
    assert 0 < raised < 15 * len(CONE_VECTORS)


@pytest.mark.parametrize("call", [
    lambda p, sp, R: fmf(p, sp, R),
    lambda p, sp, R: fd.fhf(p, sp, R),
    lambda p, sp, R: fd.mu(p, sp, R),
    lambda p, sp, R: fd.mu_jacobian(p, sp, R[0]),
    lambda p, sp, R: fd.shape_report(p),
    lambda p, sp, R: fd.gen_trig(p, np.linspace(0.0, np.pi, 5)),
], ids=["fmf", "fhf", "mu", "mu_jacobian", "shape_report", "gen_trig"])
@pytest.mark.parametrize("g", [2.0 - 1e-12, -(2.0 - 1e-12)])
def test_exp_of_G_raises_at_the_cone_limit(call, g):
    with pytest.raises(ConeLimit):
        call(make_param(g), Space.euclidean(3), CONE_VECTORS)


TENSOR_CALLS = {
    "grad_covector": lambda p, sp, R, S: fd.grad_covector(p, sp, R),
    "metric": lambda p, sp, R, S: fd.metric(p, sp, R),
    "metric_inverse": lambda p, sp, R, S: fd.metric_inverse(p, sp, R),
    "metric_det": lambda p, sp, R, S: fd.metric_det(p, sp, R),
    "angular": lambda p, sp, R, S: fd.angular(p, sp, R),
    "cartan": lambda p, sp, R, S: fd.cartan(p, sp, R).full,
    # S_pqrs vanishes identically at N = 2, S* never
    "curvature_S": lambda p, sp, R, S: (fd.curvature_S(p, sp, R).s_star if len(R) == 2
                                        else fd.curvature_S(p, sp, R).tensor),
    "fins_angle": lambda p, sp, R, S: [fd.fins_angle(p, sp, R, S).ominus_sq],
}


PHIS = np.linspace(-1.5, 1.5, 31)


@pytest.mark.parametrize("name", TENSOR_CALLS)
def test_tensor_stack_near_the_cone_limit(name):
    # J^2 (J^4 in angular, cartan and curvature_S, J^(2N) in metric_det)
    # left the doubles well before J itself: at g = 1.99999 metric was all
    # zeros and metric_inverse raised ZeroDivisionError, at g = -1.99999
    # metric overflowed, and metric_det read 0.0 or raised OverflowError
    # from g = +-1.9999. Now every result is a finite nonzero double or
    # ConeLimit is raised
    call = TENSOR_CALLS[name]
    rng = np.random.default_rng(13)
    raised = done = 0
    for gap in 10.0 ** -np.arange(3.0, 6.01, 0.5):
        for g in (2.0 - gap, -(2.0 - gap)):
            p = make_param(g)
            for n in range(2, 6):
                sp = Space.euclidean(n)
                # random pairs, and vectors at Phi = atan2(A, h q) across
                # (-pi/2, pi/2), where the 1/B factors meet the largest J
                pairs = rng.normal(size=(6 + len(PHIS), 2, n))
                if n == 3:
                    pairs[0] = CONE_VECTORS[:2]
                u = pairs[6:, 0, :-1]
                u /= np.linalg.norm(u, axis=1)[:, None]
                pairs[6:, 0, -1] = p.h * np.tan(PHIS) - 0.5 * p.g
                for R, S in pairs:
                    try:
                        v = np.asarray(call(p, sp, R, S))
                    except ConeLimit:
                        raised += 1
                        continue
                    done += 1
                    assert np.all(np.isfinite(v)) and np.any(v != 0), (name, g, R)
    assert raised > 0 and done > 0


def _mp_pair(r, x, y):
    R, X, Y = (mp.matrix(v.tolist()) for v in (r, x, y))
    a11, a22, a12 = (X.T * R * X)[0], (Y.T * R * Y)[0], (X.T * R * Y)[0]
    return R, X, Y, a11, a22, a12, mp.sqrt(a11 * a22 - a12 ** 2)


def _mp_n2(g, r, x, y):
    """n_pq(g; x, y) of twovector.n2 in 50 digits at the same float inputs."""
    R, X, Y, a11, a22, a12, u = _mp_pair(r, x, y)
    h = mp.sqrt(1 - mp.mpf(g) ** 2 / 4)
    alpha = mp.atan2(u, a12) / h
    s = mp.sin(alpha) / u
    A1, A2 = mp.cos(alpha) - a12 * s / h, mp.cos(alpha) / h - a12 * s
    perp = Y - (a12 / a11) * X
    d1, d2 = (a11 / u) * perp, (u / a11) * X - (a12 / u) * perp
    n1n2 = mp.sqrt(a11) * mp.sqrt(a22)
    return (a11 * a22 / (h * n1n2) * s * R + A1 * (R * X) * (R * Y).T / n1n2
            - A2 * (R * d1) * (R * d2).T / (h * n1n2))


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
def test_gram_root_near_the_antipodal_pair(rng, delta):
    # t2 = -t1 + delta e: y - (a12/a11) x cancels, and u was off by up to
    # 1.9e-8 relative at delta = 1e-8; n2 at g != 0 inherits 1/u. Measured
    # now: u within 1.2 eps, n2 within 5.8 eps of max |n2|
    p = make_param(0.4)
    for _ in range(20):
        sp = rand_space(3, rng)
        t1 = rng.normal(size=3)
        t2 = -t1 + delta * rng.normal(size=3)
        u = _mp_pair(sp.r_full, t1, t2)[-1]
        assert abs(sp.gram(t1, t2).u - u) <= 4 * EPS * u
        ref = _mp_n2(0.4, sp.r_full, t1, t2)
        got = n2(p, t1, t2, space=sp).components
        scale = max(abs(v) for v in ref)
        assert max(abs(got[i, j] - ref[i, j]) for i in range(3) for j in range(3)) <= 16 * EPS * scale

"""Accuracy against 50-digit references near singular loci: h and K as
|g| -> 2, and the Gram root and n2 near collinear and antipodal pairs; the
range of the tensor stack as |g| -> 2; and the pair constructions (n2, the
covector pair, the exact sum, the perpendicular companion's turned image)
on generic pairs, against their definitions through d1 and d2."""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

import finsleroid as fd  # noqa: E402
from finsleroid import ConeLimit, Space, angle, core, fmf, make_param, n2  # noqa: E402
from finsleroid.quasieuclid import sigma_over_j  # noqa: E402
from conftest import rand_space, rand_vec  # noqa: E402

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
    # R read as a covector: the gradient and the metric pair at -g
    "from_costate": lambda p, sp, R, S: fd.from_costate(p, sp, R),
    "co_metric": lambda p, sp, R, S: fd.co_metric(p, sp, R),
}


PHIS = np.linspace(-1.5, 1.5, 31)


@pytest.mark.parametrize("name", TENSOR_CALLS)
def test_tensor_stack_near_the_cone_limit(name):
    # J^2 (J^4 in angular, cartan and curvature_S, J^(2N) in metric_det)
    # left the doubles well before J itself: at g = 1.99999 metric was all
    # zeros and metric_inverse raised ZeroDivisionError, at g = -1.99999
    # metric overflowed, and metric_det read 0.0 or raised OverflowError
    # from g = +-1.9999. At g = 1.99999 co_metric warned of an invalid
    # product and from_costate raised OverflowError, at g = -1.99999 co_metric raised
    # ZeroDivisionError and from_costate returned zeros. Now every result
    # is a finite nonzero double or ConeLimit is raised
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


def _mp_d(r, x, y):
    """_mp_pair and the Gram vectors d1 = (a11 y - a12 x) / u and
    d2 = (a22 x - a12 y) / u, as Space.gram defines them."""
    R, X, Y, a11, a22, a12, u = _mp_pair(r, x, y)
    perp = Y - (a12 / a11) * X
    return R, X, Y, a11, a22, a12, u, (a11 / u) * perp, (u / a11) * X - (a12 / u) * perp


def _mp_h(g):
    return mp.sqrt(1 - mp.mpf(g) ** 2 / 4)


def _mp_n2(g, r, x, y):
    """n_pq(g; x, y) of twovector.n2 in 50 digits at the same float inputs."""
    R, X, Y, a11, a22, a12, u, d1, d2 = _mp_d(r, x, y)
    h = _mp_h(g)
    alpha = mp.atan2(u, a12) / h
    s = mp.sin(alpha) / u
    A1, A2 = mp.cos(alpha) - a12 * s / h, mp.cos(alpha) / h - a12 * s
    n1n2 = mp.sqrt(a11) * mp.sqrt(a22)
    return (a11 * a22 / (h * n1n2) * s * R + A1 * (R * X) * (R * Y).T / n1n2
            - A2 * (R * d1) * (R * d2).T / (h * n1n2))


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_gram_root_near_the_antipodal_pair(rng, delta):
    # t2 = k t1 + delta e: y - (a12/a11) x cancels. u was off by up to
    # 1.9e-8 relative at k = -1, delta = 1e-8, and by 3.7e9 eps at k = 1.7,
    # delta = 1e-10, while y - lam x was exact only for lam a power of two;
    # n2 at g != 0 inherits 1/u. Measured now: u within 2.0 eps, n2 within
    # 6.9 eps of max |n2|
    p = make_param(0.4)
    for k in (1.7, -0.6, 3.3, -1.0):
        for _ in range(20):
            sp = rand_space(3, rng)
            t1 = rng.normal(size=3)
            t2 = k * t1 + delta * rng.normal(size=3)
            u = _mp_pair(sp.r_full, t1, t2)[-1]
            assert abs(sp.gram(t1, t2).u - u) <= 4 * EPS * u, k
            ref = _mp_n2(0.4, sp.r_full, t1, t2)
            got = n2(p, t1, t2, space=sp).components
            scale = max(abs(v) for v in ref)
            err = max(abs(got[i, j] - ref[i, j]) for i in range(3) for j in range(3))
            assert err <= 16 * EPS * scale, k


def test_gram_root_near_collinear_beyond_the_split_range(rng):
    # lam = a12 / a11 ~ 1.7e301 leaves the range of Veltkamp's split, which
    # gave NaN before lam was scaled by a power of two
    sp = rand_space(3, rng)
    x, e = rng.normal(size=3), rng.normal(size=3)
    t1, t2 = 1e-151 * x, 1e150 * (1.7 * x + 1e-8 * e)
    gram = sp.gram(t1, t2)
    u = _mp_pair(sp.r_full, t1, t2)[-1]
    assert abs(gram.u - u) <= 4 * EPS * u
    stacked = sp.gram(np.stack([x, t1]), np.stack([e, t2]))
    assert stacked.u[1] == gram.u and np.array_equal(stacked.perp[1], gram.perp)


def _mp_covector_pair(g, r, x, y):
    """(T1, T2) = ((|y|/|x|)(cos a x + sin a d1 / h), (|x|/|y|)(cos a y + sin a d2 / h)),
    a the pair angle, in 50 digits."""
    R, X, Y, a11, a22, a12, u, d1, d2 = _mp_d(r, x, y)
    h = _mp_h(g)
    alpha = mp.atan2(u, a12) / h
    ratio = mp.sqrt(a22) / mp.sqrt(a11)
    return (ratio * (mp.cos(alpha) * X + mp.sin(alpha) / h * d1),
            (mp.cos(alpha) * Y + mp.sin(alpha) / h * d2) / ratio)


def _mp_parallelogram_exact(g, r, x, y):
    """t3 = (n3/n1)(cos b x + sin b d1) with b = h atan2(n2 sin a, n1 + n2 cos a),
    in 50 digits; None where the pair angle a is pi or more."""
    R, X, Y, a11, a22, a12, u, d1, d2 = _mp_d(r, x, y)
    h = _mp_h(g)
    alpha = mp.atan2(u, a12) / h
    if alpha >= mp.pi:
        return None
    n1, n2_ = mp.sqrt(a11), mp.sqrt(a22)
    c, s = n1 + n2_ * mp.cos(alpha), n2_ * mp.sin(alpha)
    beta = h * mp.atan2(s, c)
    return mp.sqrt(c * c + s * s) / n1 * (mp.cos(beta) * X + mp.sin(beta) * d1)


def _eps_of_largest(got, ref) -> float:
    """max |got - ref| in eps of the largest |ref| entry, ref a sequence of
    rows and got the float array of the same entries."""
    got = np.reshape(got, (len(ref), -1))
    scale = max(abs(v) for m in ref for v in m)
    err = max(abs(got[i, j] - m[j]) for i, m in enumerate(ref) for j in range(len(m)))
    return float(err / (EPS * scale))


def _generic_pairs(rng, n):
    """(p, sp, t1, t2) of random pairs at dimension n, with r = I and an SPD r,
    and g across (-1.9, 1.9)."""
    for identity in (True, False):
        for _ in range(6):
            p = make_param(float(rng.uniform(-1.9, 1.9)))
            yield p, rand_space(n, rng, identity), rng.normal(size=n), rng.normal(size=n)


# Bounds in eps of the largest reference entry, from the worst over this
# draw at the fixture's seed and at seeds 1-5 (N = 2-6, r = I and SPD r,
# 6 pairs each): n2 28.7 (an N = 2 pair at pi - 0.008 from antipodal, where
# n2 grows as 1/u, g = -1.89; 12.3 on every other pair), the covector pair
# 5.5, the exact sum 16.1 (a pair angle of 2.99, near pi) and the turned
# image 3.6
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_n2_on_generic_pairs(rng, n):
    # the d1_p d2_q term folded into P_p (X1 - (a11 a12/u^2) P)_q
    for p, sp, t1, t2 in _generic_pairs(rng, n):
        ref = _mp_n2(p.g, sp.r_full, t1, t2)
        got = n2(p, t1, t2, space=sp).components
        assert _eps_of_largest(got, ref.tolist()) <= 32, (p.g, t1, t2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_covector_pair_on_generic_pairs(rng, n):
    for p, sp, t1, t2 in _generic_pairs(rng, n):
        ref = _mp_covector_pair(p.g, sp.r_full, t1, t2)
        got = np.stack(fd.covector_pair(p, t1, t2, space=sp))
        assert _eps_of_largest(got, ref) <= 8, (p.g, t1, t2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_parallelogram_exact_on_generic_pairs(rng, n):
    done = 0
    for p, sp, t1, t2 in _generic_pairs(rng, n):
        ref = _mp_parallelogram_exact(p.g, sp.r_full, t1, t2)
        if ref is None:  # no parallelogram at a pair angle of pi or more
            continue
        done += 1
        got = fd.parallelogram_exact(p, t1, t2, space=sp)
        assert _eps_of_largest(got, [ref]) <= 24, (p.g, t1, t2)
    assert done > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_perpendicular_companion_turns_the_image(rng, monkeypatch, n):
    # the turned image w = cos(h pi/2) t + sin(h pi/2) d1 that the companion
    # maps back by mu, with t = sigma(R) and d1 from (t, sigma(seed) / J)
    turned = []
    mu = angle.mu
    monkeypatch.setattr(angle, "mu", lambda p, sp, w: turned.append(w) or mu(p, sp, w))
    for p, sp, _, seed in _generic_pairs(rng, n):
        R = rand_vec(p, sp, rng)
        fd.perpendicular_companion(p, sp, R, seed)
        t = fd.sigma(p, sp, R)
        y = sigma_over_j(p, seed, core.scalar_forms(p, sp, seed).A)
        _, X, *_, d1, _ = _mp_d(sp.r_full, t, y)
        turn = _mp_h(p.g) * mp.pi / 2
        ref = mp.cos(turn) * X + mp.sin(turn) * d1
        assert _eps_of_largest(turned.pop(), [ref]) <= 6, (p.g, R, seed)

"""Accuracy against 50-digit references near singular loci: h as |g| -> 2,
and the Gram root and n2 near the antipodal pair."""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from finsleroid import Space, make_param, n2  # noqa: E402
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

import math

import numpy as np
import pytest

from finsleroid import (DegenerateVector, OutOfRange, Space, fmf, make_param,
                        scalar_forms)
from conftest import rand_space, rand_vec


def test_param_euclidean_case():
    p = make_param(0.0)
    assert p.h == 1.0 and p.G == 0.0
    assert p.g_plus == 1.0 and p.g_minus == -1.0


def test_param_derived_values():
    p = make_param(0.4)
    assert p.h == pytest.approx(math.sqrt(0.96), abs=1e-15)
    assert p.G == pytest.approx(0.4082482904638630, abs=1e-14)


@pytest.mark.parametrize("g", [2.0, -2.0, 2.5, float("nan"), float("inf")])
def test_param_rejects_out_of_range(g):
    with pytest.raises(OutOfRange):
        make_param(g)


def test_param_pair_identities(rng):
    for g in rng.uniform(-1.99, 1.99, size=200):
        p = make_param(g)
        assert p.g_plus + p.g_minus == pytest.approx(g, abs=1e-14)
        assert p.g_plus - p.g_minus == pytest.approx(2 * p.h, abs=1e-14)
        assert p.g_plus**2 + p.g_minus**2 == pytest.approx(2.0, abs=1e-13)
        assert p.g_up_plus + p.g_up_minus == pytest.approx(-g, abs=1e-14)
        assert p.g_up_plus - p.g_up_minus == pytest.approx(2 * p.h, abs=1e-14)
        assert p.g_up_plus**2 + p.g_up_minus**2 == pytest.approx(2.0, abs=1e-13)
        # g -> -g flips each pair with a sign
        m = p.mirrored()
        assert m.g_plus == pytest.approx(-p.g_minus, abs=1e-15)
        assert m.g_up_plus == pytest.approx(-p.g_up_minus, abs=1e-15)


def test_space_validation():
    with pytest.raises(ValueError):
        Space(1)
    with pytest.raises(ValueError):
        Space(3, np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        Space(3, np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite
    sp = Space(3, np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert sp.r_full[-1, -1] == 1.0
    assert np.all(sp.r_full[-1, :-1] == 0.0)


def test_scalar_forms_worked_example():
    # g = 0.4, r = identity, R = (1, 1)
    p = make_param(0.4)
    sp = Space.euclidean(2)
    f = scalar_forms(p, sp, np.array([1.0, 1.0]))
    assert f.q == pytest.approx(1.0, abs=1e-15)
    assert f.B == pytest.approx(2.4, abs=1e-15)
    assert f.A == pytest.approx(1.2, abs=1e-15)
    assert f.A**2 + p.h**2 * f.q**2 == pytest.approx(2.4, abs=1e-14)


def test_axis_values():
    p = make_param(0.7)
    sp = Space.euclidean(3)
    f = scalar_forms(p, sp, np.array([0.0, 0.0, 2.0]))
    assert f.Phi == pytest.approx(math.pi / 2, abs=1e-15)
    assert f.K == pytest.approx(2.0 * math.exp(p.G * math.pi / 4), rel=1e-15)
    f = scalar_forms(p, sp, np.array([0.0, 0.0, -2.0]))
    assert f.Phi == pytest.approx(-math.pi / 2, abs=1e-15)


def test_euclidean_reduction(rng):
    p = make_param(0.0)
    for n in (2, 3, 5):
        sp = rand_space(n, rng)
        for _ in range(20):
            R = rand_vec(p, sp, rng)
            f = scalar_forms(p, sp, R)
            assert f.J == 1.0
            assert f.K == pytest.approx(sp.norm(R), rel=1e-14)
            assert f.B == pytest.approx(sp.norm(R) ** 2, rel=1e-14)


def test_unit_values_on_pole_and_equator():
    p = make_param(0.4)
    sp = Space.euclidean(2)
    z2 = math.exp(-p.G * math.pi / 4)
    assert fmf(p, sp, np.array([0.0, z2])) == pytest.approx(1.0, abs=1e-15)
    q_star = math.exp(-0.5 * p.G * math.atan(0.5 * p.G))
    assert fmf(p, sp, np.array([q_star, 0.0])) == pytest.approx(1.0, abs=1e-15)


def test_rejects_origin():
    p = make_param(0.4)
    sp = Space.euclidean(3)
    with pytest.raises(DegenerateVector):
        scalar_forms(p, sp, np.zeros(3))


def test_quadratic_form_identities_bulk(rng):
    # A^2 + h^2 q^2 = B and L^2 + h^2 Z^2 = B, 1000 random draws
    count = 0
    while count < 1000:
        n = int(rng.choice([2, 3, 5]))
        g = float(rng.uniform(-1.9, 1.9))
        p = make_param(g)
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng, min_q=1e-3)
        f = scalar_forms(p, sp, R)
        assert abs(f.A**2 + p.h**2 * f.q**2 - f.B) <= 1e-12 * f.B
        assert abs(f.L**2 + p.h**2 * R[-1] ** 2 - f.B) <= 1e-12 * f.B
        if f.w is not None:
            assert f.E**2 + p.h**2 * f.w**2 == pytest.approx(f.Q, rel=1e-12)
        count += 1


def test_homogeneity(rng):
    for _ in range(200):
        n = int(rng.choice([2, 3, 5]))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng)
        K = fmf(p, sp, R)
        for lam in (0.5, 2.0, 10.0):
            assert abs(fmf(p, sp, lam * R) - lam * K) <= 1e-12 * lam * K


def test_gz_parity_and_reflection(rng):
    for _ in range(200):
        n = int(rng.choice([2, 3, 5]))
        g = float(rng.uniform(-1.9, 1.9))
        p, pm = make_param(g), make_param(-g)
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng)
        flipped = R.copy()
        flipped[-1] *= -1.0
        K = fmf(p, sp, R)
        assert abs(fmf(pm, sp, flipped) - K) <= 1e-12 * K
        mirrored = R.copy()
        mirrored[:-1] *= -1.0
        assert abs(fmf(p, sp, mirrored) - K) <= 1e-12 * K


def test_phi_continuous_across_equator(rng):
    for _ in range(50):
        n = int(rng.choice([2, 3, 5]))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng, min_q=0.5)
        Rp, Rm = R.copy(), R.copy()
        Rp[-1], Rm[-1] = 1e-8, -1e-8
        phi_p = scalar_forms(p, sp, Rp).Phi
        phi_m = scalar_forms(p, sp, Rm).Phi
        assert abs(phi_p - phi_m) < 1e-6
        # both agree with the branch-free arctangent at Z = 0
        R0 = R.copy()
        R0[-1] = 0.0
        f0 = scalar_forms(p, sp, R0)
        assert f0.Phi == pytest.approx(math.atan(0.5 * p.G), abs=1e-14)
        assert abs(phi_p - f0.Phi) < 1e-6


def _phi_branch_form(p, q, Z):
    """Half-plane branch expression: the published two-branch form."""
    if Z == 0.0:
        return math.atan(0.5 * p.G)
    base = math.atan(0.5 * p.G) - math.atan(q / (p.h * Z) + 0.5 * p.G)
    return math.copysign(math.pi / 2, Z) + base


def test_phi_matches_branch_split(rng):
    for _ in range(300):
        n = int(rng.choice([2, 3]))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n, rng)
        R = rand_vec(p, sp, rng, min_q=1e-2)
        f = scalar_forms(p, sp, R)
        assert f.Phi == pytest.approx(_phi_branch_form(p, f.q, float(R[-1])),
                                      abs=1e-12)


# ------------------------------------------------------------ broadcasting

@pytest.mark.parametrize("identity", [True, False])
def test_fmf_broadcasts_over_leading_axes(rng, identity):
    p = make_param(0.7)
    sp = rand_space(3, rng, identity=identity)
    for shape in ((6,), (2, 4)):
        X = rng.normal(size=shape + (3,))
        K = fmf(p, sp, X)
        assert K.shape == shape
        for idx in np.ndindex(*shape):
            assert K[idx] == pytest.approx(fmf(p, sp, X[idx]), rel=1e-15)
    assert type(fmf(p, sp, X[0, 0])) is float


def test_fmf_batch_checks_every_row():
    p = make_param(0.4)
    sp = Space.euclidean(3)
    X = np.ones((4, 3))
    X[2] = 0.0
    with pytest.raises(DegenerateVector):
        fmf(p, sp, X)
    X[2, 1] = np.nan
    with pytest.raises(ValueError):
        fmf(p, sp, X)
    with pytest.raises(ValueError):
        fmf(p, sp, np.ones((4, 2)))

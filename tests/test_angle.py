import math

import numpy as np
import pytest

import finsleroid.angle as angle_mod
from finsleroid import (AntipodalSingular, CollinearVectors, Space,
                        axis_angle, connect, equator_angle, fins_angle, fmf,
                        make_param, parallelogram_diff, parallelogram_exact,
                        parallelogram_residuals, parallelogram_sum,
                        perpendicular_companion, qe_angle, sigma)
from conftest import count_memo, rand_space, rand_vec


def draw(rng, dims=(2, 3, 5)):
    n = int(rng.choice(dims))
    p = make_param(float(rng.uniform(-1.8, 1.8)))
    sp = rand_space(n, rng)
    return p, sp, rand_vec(p, sp, rng), rand_vec(p, sp, rng)


def test_equal_vectors(rng):
    p, sp, R, _ = draw(rng)
    pair = fins_angle(p, sp, R, R)
    assert pair.alpha == pytest.approx(0.0, abs=1e-7)
    assert pair.scalar_product == pytest.approx(fmf(p, sp, R) ** 2, rel=1e-12)
    assert pair.ominus_sq == pytest.approx(0.0, abs=1e-12)


def test_euclidean_limit(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    for _ in range(30):
        R1 = rand_vec(p, sp, rng)
        R2 = rand_vec(p, sp, rng)
        pair = fins_angle(p, sp, R1, R2)
        expect = math.acos(sp.dot(R1, R2) / (sp.norm(R1) * sp.norm(R2)))
        assert pair.alpha == pytest.approx(expect, abs=1e-12)
        assert pair.scalar_product == pytest.approx(sp.dot(R1, R2), rel=1e-11)


def test_matches_image_angle(rng):
    for _ in range(500):
        p, sp, R1, R2 = draw(rng)
        pair = fins_angle(p, sp, R1, R2)
        a_img = qe_angle(p, sigma(p, sp, R1), sigma(p, sp, R2), space=sp)
        assert abs(pair.alpha - a_img) <= 1e-10
        assert 0.0 <= pair.alpha <= math.pi / p.h + 1e-12


def test_qe_angle_values():
    p = make_param(0.4)
    # Euclidean-perpendicular pair
    a = qe_angle(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert a == pytest.approx(math.pi / (2 * p.h), abs=1e-14)
    assert a == pytest.approx(1.60318728770233, abs=1e-13)
    assert qe_angle(p, np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(
        0.0, abs=1e-7)


def test_ominus_symmetry_and_cosine_theorem(rng):
    for _ in range(100):
        p, sp, R1, R2 = draw(rng)
        pr = fins_angle(p, sp, R1, R2)
        qr = fins_angle(p, sp, R2, R1)
        assert pr.ominus_sq == pytest.approx(qr.ominus_sq, rel=1e-12)
        assert pr.alpha == pytest.approx(qr.alpha, abs=1e-13)
        K1, K2 = fmf(p, sp, R1), fmf(p, sp, R2)
        assert pr.ominus_sq == pytest.approx(
            K1**2 + K2**2 - 2 * K1 * K2 * math.cos(pr.alpha), rel=1e-12)


def test_ominus_matches_geodesic_length(rng):
    count = 0
    while count < 60:
        p, sp, R1, R2 = draw(rng)
        pair = fins_angle(p, sp, R1, R2)
        if pair.alpha < 1e-3 or pair.alpha > 2.9:
            continue
        bd = connect(p, sigma(p, sp, R1), sigma(p, sp, R2), space=sp)
        assert abs(pair.ominus_sq - bd.delta_s**2) <= 1e-9 * max(1.0, pair.ominus_sq)
        count += 1


def test_axis_angle(rng):
    p = make_param(0.8)
    sp = Space.euclidean(3)
    # on-axis vector: angle 0
    assert axis_angle(p, sp, np.array([0.0, 0.0, 2.0])) == pytest.approx(0.0, abs=1e-12)
    # equals the pair angle with the axis unit vector
    axis = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        R = rand_vec(p, sp, rng)
        assert axis_angle(p, sp, R) == pytest.approx(
            fins_angle(p, sp, R, axis).alpha, abs=1e-10)
    # Euclidean limit
    p0 = make_param(0.0)
    R = rand_vec(p0, sp, rng)
    assert axis_angle(p0, sp, R) == pytest.approx(
        math.acos(R[-1] / sp.norm(R)), abs=1e-12)


def test_equator_angle(rng):
    p = make_param(-0.7)
    sp = Space.euclidean(3)
    for _ in range(50):
        R = rand_vec(p, sp, rng)
        u = np.zeros(3)
        u[:-1] = R[:-1] / sp.spatial_norm(R)
        assert equator_angle(p, sp, R) == pytest.approx(
            fins_angle(p, sp, R, u).alpha, abs=1e-10)


def test_axis_equator_angle_sum(rng):
    # for Z > 0 the two angles always sum to arccos(g/2)/h
    for _ in range(60):
        p, sp, R, _ = draw(rng)
        R[-1] = abs(R[-1]) + 0.1
        total = axis_angle(p, sp, R) + equator_angle(p, sp, R)
        assert total == pytest.approx(math.acos(0.5 * p.g) / p.h, abs=1e-10)


def test_perpendicular_and_pythagoras(rng):
    for _ in range(40):
        p, sp, R, seed = draw(rng)
        Rp = perpendicular_companion(p, sp, R, seed=seed)
        pair = fins_angle(p, sp, R, Rp)
        assert pair.alpha == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(pair.scalar_product) <= 1e-12 * fmf(p, sp, R) * fmf(p, sp, Rp)
        K1, K2 = fmf(p, sp, R), fmf(p, sp, Rp)
        assert pair.ominus_sq == pytest.approx(K1**2 + K2**2, rel=1e-12)


# ------------------------------------------------------------ parallelogram

def acute_pair(rng, p, n):
    sp = Space.euclidean(n)
    while True:
        t1 = rng.normal(size=n)
        t2 = rng.normal(size=n)
        if sp.norm(t1) < 0.3 or sp.norm(t2) < 0.3:
            continue
        ca = sp.dot(t1, t2) / (sp.norm(t1) * sp.norm(t2))
        if 0.15 < ca < 0.9:
            return sp, t1, t2


def test_sum_euclidean(rng):
    p = make_param(0.0)
    sp, t1, t2 = acute_pair(rng, p, 3)
    assert np.allclose(parallelogram_sum(p, t1, t2, space=sp), t1 + t2, atol=1e-14)
    assert np.allclose(parallelogram_exact(p, t1, t2, space=sp), t1 + t2, atol=1e-14)
    t3 = t1 + t2
    assert np.allclose(parallelogram_diff(p, t1, t3, space=sp), t2, atol=1e-14)


def test_exact_solver_residuals(rng):
    # unit orthogonal pair at small g plus random acute pairs
    p = make_param(0.2)
    t1 = np.array([1.0, 0.0])
    t2 = np.array([0.0, 1.0])
    t3 = parallelogram_exact(p, t1, t2)
    assert np.max(np.abs(parallelogram_residuals(p, t1, t2, t3))) <= 1e-12
    for _ in range(10):
        k = float(rng.uniform(0.01, 0.12))
        h = 1 / (1 + k)
        p = make_param(2 * math.sqrt(1 - h * h))
        sp, t1, t2 = acute_pair(rng, p, 3)
        t3 = parallelogram_exact(p, t1, t2, space=sp)
        assert np.max(np.abs(parallelogram_residuals(p, t1, t2, t3, space=sp))) <= 1e-12


def test_sum_first_order_accuracy(rng):
    # halving k divides the defect by about four
    sp = Space.euclidean(2)
    t1 = np.array([1.0, 0.2])
    t2 = np.array([0.3, 1.1])
    errs = []
    for k in (0.05, 0.025):
        h = 1 / (1 + k)
        p = make_param(2 * math.sqrt(1 - h * h))
        approx = parallelogram_sum(p, t1, t2, space=sp)
        exact = parallelogram_exact(p, t1, t2, space=sp)
        errs.append(float(np.linalg.norm(approx - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_diff_inverts_sum_to_first_order(rng):
    sp = Space.euclidean(2)
    t1 = np.array([1.0, 0.2])
    t2 = np.array([0.3, 1.1])
    errs = []
    for k in (0.05, 0.025):
        h = 1 / (1 + k)
        p = make_param(2 * math.sqrt(1 - h * h))
        t3 = parallelogram_exact(p, t1, t2, space=sp)
        diff = parallelogram_diff(p, t1, t3, space=sp)
        errs.append(float(np.linalg.norm(diff - t2)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_diff_contraction_identities(rng):
    # the stated contractions of the correction vector
    for _ in range(30):
        p = make_param(float(rng.uniform(-0.9, 0.9)))
        sp, t1, t3 = acute_pair(rng, p, 3)
        k = 1 / p.h - 1
        if k == 0:
            continue
        d = t3 - t1
        svec = (parallelogram_diff(p, t1, t3, space=sp) - d) / k
        a11 = sp.dot(t1, t1)
        a33 = sp.dot(t3, t3)
        u = math.sqrt(a11 * a33 - sp.dot(t1, t3) ** 2)
        e1 = math.acos(sp.dot(t1, t3) / math.sqrt(a11 * a33))
        e2 = math.acos(sp.dot(d, t3) / math.sqrt(sp.dot(d, d) * a33))
        assert sp.dot(d, svec) == pytest.approx(u * e1, rel=1e-10, abs=1e-12)
        assert sp.dot(t1, svec) == pytest.approx(u * e2, rel=1e-10, abs=1e-12)
        # Gram root invariance u(t3 - t1, t3) = u(t1, t3)
        u2 = math.sqrt(sp.dot(d, d) * a33 - sp.dot(d, t3) ** 2)
        assert u2 == pytest.approx(u, rel=1e-11)


def test_sum_symmetry_coefficients(rng):
    # m(t1, t2) multiplies t1 and m(t2, t1) multiplies t2, so the sum is
    # symmetric under swapping the arguments
    p = make_param(0.3)
    sp, t1, t2 = acute_pair(rng, p, 3)
    s12 = parallelogram_sum(p, t1, t2, space=sp)
    s21 = parallelogram_sum(p, t2, t1, space=sp)
    assert np.allclose(s12, s21, rtol=1e-12)


def test_collinear_raises():
    p = make_param(0.3)
    with pytest.raises(CollinearVectors):
        parallelogram_sum(p, np.array([1.0, 1.0]), np.array([2.0, 2.0]))


@pytest.mark.parametrize("fn", [parallelogram_sum, parallelogram_diff,
                                parallelogram_exact, parallelogram_residuals])
def test_parallelogram_refuses_stacks_and_nonfinite(fn):
    # the name, kept so the test ids stay, is that of the check this
    # replaced: the parallelogram functions take stacks now
    # (tests/test_per_row.py). A non-finite entry of any argument, one
    # vector or a row of a stack, raises ValueError
    p = make_param(0.3)
    t = [np.array([1.0, 0.2, 0.1]), np.array([0.3, 1.0, -0.2]), np.array([1.2, 1.1, 0.0])]
    args = t if fn is parallelogram_residuals else t[:2]
    for k in range(len(args)):
        bad = np.array([1.0, np.nan, 0.0])
        for stacked in (bad, np.stack([args[k], bad])):
            with pytest.raises(ValueError, match="non-finite"):
                fn(p, *args[:k], stacked, *args[k + 1:])


def test_large_k_warns():
    p = make_param(1.5)  # k = 1/h - 1 ~ 0.51
    with pytest.warns(UserWarning):
        parallelogram_sum(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("g", [-1.9, -0.4, 0.4, 1.9])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_cosine_laws_jacobian(rng, g, n, identity):
    # both closed forms over the grid (the name, kept so the test ids stay,
    # is that of the Newton Jacobian check this replaced): the sum meets both
    # cosine laws and lies between its edges, AntipodalSingular beyond pi;
    # the companion is at pi/2 with the norm of R
    p = make_param(g)
    sp = rand_space(n, rng, identity=identity)
    summed = 0
    while summed < 10:
        t1, t2 = rand_vec(p, sp, rng), rand_vec(p, sp, rng)
        alpha = qe_angle(p, t1, t2, space=sp)
        if alpha >= math.pi:
            with pytest.raises(AntipodalSingular):
                parallelogram_exact(p, t1, t2, space=sp)
            continue
        t3 = parallelogram_exact(p, t1, t2, space=sp)
        # n3 r_i is the cosine law n_j^2 = n_i^2 + n3^2 - 2 n_i n3 cos(alpha_i3)
        laws = sp.norm(t3) * parallelogram_residuals(p, t1, t2, t3, space=sp)
        assert np.max(np.abs(laws)) <= 1e-13 * (sp.dot(t1, t1) + sp.dot(t2, t2))
        assert abs(qe_angle(p, t1, t3, space=sp) + qe_angle(p, t3, t2, space=sp)
                   - alpha) <= 1e-13
        R, seed = rand_vec(p, sp, rng), rand_vec(p, sp, rng)
        Rp = perpendicular_companion(p, sp, R, seed=seed)
        assert abs(fins_angle(p, sp, R, Rp).alpha - 0.5 * math.pi) <= 1e-12
        assert abs(fmf(p, sp, Rp) / fmf(p, sp, R) - 1.0) <= 1e-13
        summed += 1


def pair_in_range(rng, p, sp):
    """Image-space pair whose angle lies in [0.3, 0.8 pi], where the
    parallelogram has a sum."""
    while True:
        t1, t2 = rand_vec(p, sp, rng), rand_vec(p, sp, rng)
        if 0.3 <= qe_angle(p, t1, t2, space=sp) <= 0.8 * math.pi:
            return t1, t2


@pytest.mark.parametrize("g", [-1.9, 1.9])
def test_exact_converges_at_large_g(rng, g):
    p = make_param(g)
    for n in (2, 3, 5):
        sp = rand_space(n, rng)
        for _ in range(20):
            t1, t2 = pair_in_range(rng, p, sp)
            t3 = parallelogram_exact(p, t1, t2, space=sp)
            assert np.max(np.abs(parallelogram_residuals(p, t1, t2, t3, space=sp))) <= 1e-10


def test_solver_evaluation_counts(rng, monkeypatch):
    # the companion evaluates scalar_forms once for R and once for the seed,
    # counted in every module, core's checked_forms included; the sum
    # evaluates no residual
    calls, _ = count_memo(monkeypatch, "forms")
    residual_calls = [0]
    residuals = angle_mod.parallelogram_residuals

    def counted_residuals(*args, **kwargs):
        residual_calls[0] += 1
        return residuals(*args, **kwargs)
    monkeypatch.setattr(angle_mod, "parallelogram_residuals", counted_residuals)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n, rng, identity=bool(rng.integers(2)))
        R = rand_vec(p, sp, rng)
        calls[0] = 0
        Rp = perpendicular_companion(p, sp, R)
        assert calls[0] == 2
        assert fins_angle(p, sp, R, Rp).alpha == pytest.approx(math.pi / 2, abs=1e-12)
        t1, t2 = pair_in_range(rng, p, sp)
        parallelogram_exact(p, t1, t2, space=sp)
        assert residual_calls[0] == 0


def test_companion_seed_images():
    # a seed whose image is collinear with sigma(R) spans no plane; -R does
    # when g != 0, since its image (-h R^a, A - 2Z) is not -(h R^a, A)
    R = np.array([0.3, 0.5, 1.0])
    sp = Space.euclidean(3)
    for g in (-1.5, 0.0, 0.4, 1.9):
        with pytest.raises(CollinearVectors):
            perpendicular_companion(make_param(g), sp, R, seed=2.0 * R)
    with pytest.raises(CollinearVectors):
        perpendicular_companion(make_param(0.0), sp, R, seed=-R)
    for g in (-1.5, 0.4, 1.9):
        p = make_param(g)
        Rp = perpendicular_companion(p, sp, R, seed=-R)
        assert fins_angle(p, sp, R, Rp).alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_exact_raises_beyond_pi():
    # at g = 1.811 this pair has angle 5.4: no parallelogram has it, and the
    # cosine laws alone admit a root that points against both edges
    p = make_param(1.811)
    t1 = 2.96 * np.array([1.0, 0.0])
    t2 = 2.87 * np.array([math.cos(2.29), math.sin(2.29)])
    assert qe_angle(p, t1, t2) > math.pi
    with pytest.raises(AntipodalSingular):
        parallelogram_exact(p, t1, t2)

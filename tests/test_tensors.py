import numpy as np
import pytest

from finsleroid import (AxisSingular, DegenerateVector, Space, angular, cartan, curvature_S,
                        fmf, grad_covector, make_param, metric, metric_det,
                        metric_inverse, scalar_forms, tensors)
from conftest import count_memo, fd_hessian, rand_space, rand_vec


def draw(rng, dims=(2, 3, 5), g_lo=-1.8, g_hi=1.8, min_q=0.25):
    n = int(rng.choice(dims))
    p = make_param(float(rng.uniform(g_lo, g_hi)))
    sp = rand_space(n, rng)
    R = rand_vec(p, sp, rng, min_q=min_q)
    return p, sp, R


# ------------------------------------------------------------ broadcasting

@pytest.mark.parametrize("identity", [True, False])
def test_metric_broadcasts_over_leading_axes(rng, identity):
    sp = rand_space(3, rng, identity=identity)
    for g in (0.0, 0.7, -1.5):
        p = make_param(g)
        for shape in ((6,), (2, 4)):
            X = rng.normal(size=shape + (3,))
            m = metric(p, sp, X)
            assert m.shape == shape + (3, 3)
            for idx in np.ndindex(*shape):
                assert np.array_equal(m[idx], metric(p, sp, X[idx]))


def test_metric_stack_with_axis_rows(rng):
    # an axis row raises for g != 0 and reads r_pq at g = 0, with no 0 * inf
    sp = rand_space(3, rng)
    X = np.array([[0.3, 0.5, 1.0], [0.0, 0.0, -2.0], [0.2, -0.1, 0.0]])
    for g in (0.4, -1.9):
        with pytest.raises(AxisSingular):
            metric(make_param(g), sp, X)
    m = metric(make_param(0.0), sp, X)
    assert np.array_equal(m[1], sp.r_full)
    X[1] = 0.0
    with pytest.raises(DegenerateVector):
        metric(make_param(0.4), sp, X)
    X[1, 0] = np.nan
    with pytest.raises(ValueError):
        metric(make_param(0.4), sp, X)


# --------------------------------------------------------------- gradient

def test_grad_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(4, rng)
    R = rand_vec(p, sp, rng)
    assert np.allclose(grad_covector(p, sp, R), sp.r_full @ R, atol=1e-14)


def test_grad_euler_identity(rng):
    for _ in range(100):
        p, sp, R = draw(rng)
        K2 = fmf(p, sp, R) ** 2
        assert grad_covector(p, sp, R) @ R == pytest.approx(K2, rel=1e-12)


def test_grad_split_identity(rng):
    # R_a R^a B/K^2 + R_N Z B/K^2 = B
    for _ in range(100):
        p, sp, R = draw(rng)
        f = scalar_forms(p, sp, R)
        low = grad_covector(p, sp, R)
        lhs = (low[:-1] @ R[:-1] + low[-1] * R[-1]) * f.B / f.K**2
        assert lhs == pytest.approx(f.B, rel=1e-12)


def test_grad_on_axis():
    p = make_param(0.8)
    sp = Space.euclidean(3)
    R = np.array([0.0, 0.0, 2.0])
    low = grad_covector(p, sp, R)
    f = scalar_forms(p, sp, R)
    assert np.all(low[:-1] == 0.0)
    assert low[-1] == pytest.approx(R[-1] * f.K**2 / f.B, rel=1e-14)


# ----------------------------------------------------------------- metric

def test_metric_euclidean(rng):
    p = make_param(0.0)
    sp = rand_space(3, rng)
    R = rand_vec(p, sp, rng)
    assert np.allclose(metric(p, sp, R), sp.r_full, atol=1e-14)


def test_metric_is_hessian(rng):
    worst = 0.0
    for _ in range(30):
        p, sp, R = draw(rng)
        gm = metric(p, sp, R)
        H = fd_hessian(lambda x: 0.5 * fmf(p, sp, x) ** 2, R,
                       eps=1e-3 * max(1.0, sp.norm(R)))
        worst = max(worst, np.max(np.abs(gm - H)) / np.max(np.abs(gm)))
    assert worst <= 1e-6


def test_metric_inverse_reciprocity(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        gm = metric(p, sp, R)
        gi = metric_inverse(p, sp, R)
        assert np.max(np.abs(gm @ gi - np.eye(sp.dim))) < 1e-12


def test_metric_det_law(rng):
    for _ in range(100):
        p, sp, R = draw(rng)
        d = np.linalg.det(metric(p, sp, R))
        assert abs(d - metric_det(p, sp, R)) <= 1e-10 * abs(d)
        assert d > 0


def test_metric_det_identity_space():
    # N = 3, identity spatial metric: det = J^6
    p = make_param(0.4)
    sp = Space.euclidean(3)
    R = np.array([0.7, -0.4, 1.1])
    f = scalar_forms(p, sp, R)
    assert np.linalg.det(metric(p, sp, R)) == pytest.approx(f.J**6, rel=1e-12)


def test_metric_axis_raises():
    p = make_param(0.5)
    sp = Space.euclidean(3)
    with pytest.raises(AxisSingular):
        metric(p, sp, np.array([0.0, 0.0, 1.0]))
    # allowed when g = 0
    assert np.allclose(metric(make_param(0.0), sp, np.array([0.0, 0.0, 1.0])),
                       np.eye(3))


# ---------------------------------------------------------------- angular

def test_angular_annihilates_vector(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        h = angular(p, sp, R)
        assert np.max(np.abs(h @ R)) < 1e-12 * np.max(np.abs(h))
        assert np.allclose(h, h.T, atol=1e-13)


def test_angular_euclidean_pole():
    p = make_param(0.0)
    sp = Space.euclidean(2)
    h = angular(p, sp, np.array([0.0, 1.0]))
    assert np.allclose(h, np.diag([1.0, 0.0]), atol=1e-14)


def test_angular_component_list(rng):
    # closed components: h_NN = q^2 K^2/B^2, h_Na = -Z (rR)_a K^2/B^2,
    # h_ab = (K^2/B) r_ab - (gZ + q)(rR)_a(rR)_b K^2 / (q B^2)
    for _ in range(50):
        p, sp, R = draw(rng)
        f = scalar_forms(p, sp, R)
        Z = float(R[-1])
        rR = sp.r_spatial @ R[:-1]
        K2B2 = f.K**2 / f.B**2
        h = angular(p, sp, R)
        assert h[-1, -1] == pytest.approx(f.q**2 * K2B2, rel=1e-10)
        assert np.allclose(h[-1, :-1], -Z * rR * K2B2, rtol=1e-9, atol=1e-12)
        expect = (f.K**2 / f.B) * sp.r_spatial \
            - (p.g * Z + f.q) * np.outer(rR, rR) / f.q * K2B2
        assert np.allclose(h[:-1, :-1], expect, rtol=1e-9, atol=1e-12)


def test_angular_det_identity(rng):
    # det(h_ab spatial block) = det(g_pq) / V^2 with V^2 = K^2/Z^2
    for _ in range(50):
        p, sp, R = draw(rng)
        if abs(R[-1]) < 0.2:
            R[-1] = 0.5
        h = angular(p, sp, R)
        f = scalar_forms(p, sp, R)
        V2 = f.K**2 / R[-1] ** 2
        lhs = np.linalg.det(h[:-1, :-1])
        rhs = np.linalg.det(metric(p, sp, R)) / V2
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_angular_on_g_zero_rows_is_the_background_one(rng, n):
    # at g = 0, R_p = r_pq R^q and h_pq = r_pq - R_p R_q / K^2, on the axis
    # (h_NN = 0, h_ab = r_ab) and the equator as elsewhere: the q that
    # g_zero_rows puts in place of 0 on the axis may only divide
    sp = rand_space(n, rng)
    X = rng.normal(size=(6, n))
    X[0, :-1] = 0.0  # the axis
    X[1, -1] = 0.0  # the equator
    g = rng.uniform(-1.9, 1.9, size=6)
    g[:3] = 0.0
    low = X @ sp.r_full
    want = sp.r_full - low[:, :, None] * low[:, None, :] / np.vecdot(low, X)[:, None, None]
    cases = [(make_param(g), X, np.flatnonzero(g == 0.0)), (make_param(0.0), X, np.arange(6))]
    cases += [(make_param(0.0), X[i], [i]) for i in range(3)]
    for P, Y, rows in cases:
        R, f = tensors._checked(P, sp, Y, 4, "angular tensor")
        for h in (angular(P, sp, Y), tensors._cartan(P, sp, R, f)[1]):
            h = h.reshape(-1, n, n)
            got = h[rows] if Y.ndim == 2 else h
            assert np.max(np.abs(got - want[rows])) <= 1e-14 * np.max(np.abs(want[rows]))


# ----------------------------------------------------------------- cartan

def test_cartan_vanishes_at_zero_g(rng):
    sp = rand_space(3, rng)
    ct = cartan(make_param(0.0), sp, np.array([1.0, 0.5, -0.3]))
    assert np.all(ct.full == 0) and np.all(ct.mixed == 0)


def test_cartan_is_half_metric_derivative(rng):
    worst = 0.0
    for k in range(40):
        p, sp, R = draw(rng, dims=(2, 3, 4, 5))
        if k % 2:
            sp = Space.euclidean(sp.dim)
        eps = 1e-5 * max(1.0, sp.norm(R))
        if k % 4 == 0:
            R[-1] = 0.0  # equatorial plane is inside the domain
        elif k % 4 == 3:
            # near the axis, q/|R| = 1e-3: the metric varies on the scale q
            R[-1] = np.copysign(1.0, R[-1])
            R[:-1] *= 1e-3 / sp.spatial_norm(R)
            eps = 1e-4 * sp.spatial_norm(R)
        ct = cartan(p, sp, R)
        for r in range(sp.dim):
            Rp = R.copy(); Rp[r] += eps
            Rm = R.copy(); Rm[r] -= eps
            fd = (metric(p, sp, Rp) - metric(p, sp, Rm)) / (4 * eps)
            scale = max(np.max(np.abs(ct.full)), 1e-9)
            worst = max(worst, np.max(np.abs(ct.full[:, :, r] - fd)) / scale)
    assert worst <= 1e-5


def test_cartan_total_symmetry_and_transversality(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        ct = cartan(p, sp, R)
        C = ct.full
        assert np.allclose(C, C.transpose(1, 0, 2), atol=1e-12)
        assert np.allclose(C, C.transpose(0, 2, 1), atol=1e-12)
        scale = max(np.max(np.abs(C)) * sp.norm(R), 1e-12)
        assert np.max(np.abs(np.einsum("pqr,r->pq", C, R))) < 1e-12 * max(scale, 1.0)


def test_cartan_mixed_consistent_with_raise(rng):
    for _ in range(50):
        p, sp, R = draw(rng)
        ct = cartan(p, sp, R)
        gi = metric_inverse(p, sp, R)
        raised = np.einsum("qs,psr->pqr", gi, ct.full)
        assert np.allclose(ct.mixed, raised, rtol=4e-12, atol=1e-12)


def test_cartan_traces_and_contraction(rng):
    for _ in range(100):
        p, sp, R = draw(rng, g_lo=-1.8, g_hi=1.8)
        if abs(p.g) < 1e-3:
            continue
        ct = cartan(p, sp, R)
        gi = metric_inverse(p, sp, R)
        assert np.allclose(ct.covector, np.einsum("pqr,qr->p", ct.full, gi),
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(ct.vector, gi @ ct.covector, rtol=1e-9, atol=1e-12)
        K2 = fmf(p, sp, R) ** 2
        target = sp.dim**2 * p.g**2 / (4 * K2)
        assert abs(ct.covector @ ct.vector - target) <= 1e-10 * target


def test_cartan_unit_point_value():
    # on the unit level set with N = 3, g = 0.4: C_p C^p = 9 * 0.16 / 4
    p = make_param(0.4)
    sp = Space.euclidean(3)
    R = np.array([0.4, 0.2, 0.8])
    R = R / fmf(p, sp, R)
    ct = cartan(p, sp, R)
    assert ct.covector @ ct.vector == pytest.approx(0.36, rel=1e-12)


@pytest.mark.parametrize("fn", [angular, cartan, curvature_S])
def test_scalar_forms_evaluated_once(rng, monkeypatch, fn):
    # one evaluation of the forms per call, handed to the private builders
    calls, _ = count_memo(monkeypatch, "forms")
    for _ in range(20):
        p, sp, R = draw(rng)
        calls[0] = 0
        fn(p, sp, R)
        assert calls[0] == 1


def test_cartan_algebraic_representation(rng):
    # C_pqr = (1/N)(h_pq C_r + h_pr C_q + h_qr C_p - C_p C_q C_r / (C.C))
    for _ in range(40):
        p, sp, R = draw(rng)
        if abs(p.g) < 1e-2:
            continue
        ct = cartan(p, sp, R)
        h = angular(p, sp, R)
        Cl = ct.covector
        cc = float(Cl @ ct.vector)
        rep = (np.einsum("pq,r->pqr", h, Cl) + np.einsum("pr,q->pqr", h, Cl)
               + np.einsum("qr,p->pqr", h, Cl)
               - np.einsum("p,q,r->pqr", Cl, Cl, Cl) / cc) / sp.dim
        assert np.max(np.abs(ct.full - rep)) <= 1e-9 * np.max(np.abs(ct.full))


def test_cartan_listed_contractions(rng):
    # spatial trace r^{ac} C_a^b_c and the double w-contraction, Z != 0
    for _ in range(60):
        p, sp, R = draw(rng, dims=(3, 4, 5))
        if abs(p.g) < 1e-3 or abs(R[-1]) < 0.2:
            continue
        f = scalar_forms(p, sp, R)
        Z, q, B = float(R[-1]), f.q, f.B
        ct = cartan(p, sp, R)
        mix_s = ct.mixed[:-1, :-1, :-1]  # C_a^b_c
        lhs = np.einsum("abc,ac->b", mix_s, sp.r_spatial_inv)
        rhs = -p.g * (R[:-1] / q) * ((Z + p.g * q) / B) \
            * ((sp.dim - 2) / 2 + Z * Z / B)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
        lhs2 = np.einsum("abc,a,c->b", mix_s, R[:-1], R[:-1])
        rhs2 = -p.g * q * (Z + p.g * q) * R[:-1] * Z**2 / B**2
        assert np.allclose(lhs2, rhs2, rtol=1e-10, atol=1e-12)


# -------------------------------------------------------------- curvature

def test_curvature_zero_at_g0(rng):
    sp = rand_space(3, rng)
    cv = curvature_S(make_param(0.0), sp, np.array([1.0, 0.2, 0.4]))
    assert np.all(cv.tensor == 0)
    assert 1.0 + cv.s_star == 1.0


def test_curvature_constant_examples():
    sp = Space.euclidean(3)
    R = np.array([0.5, -0.2, 0.9])
    assert 1 + curvature_S(make_param(0.6), sp, R).s_star == pytest.approx(0.91, abs=1e-12)
    assert 1 + curvature_S(make_param(0.4), sp, R).s_star == pytest.approx(0.96, abs=1e-12)


def test_curvature_representation_componentwise(rng):
    for _ in range(25):
        p, sp, R = draw(rng, dims=(3, 4, 5))
        cv = curvature_S(p, sp, R)
        h = angular(p, sp, R)
        K2 = fmf(p, sp, R) ** 2
        M = (np.einsum("pr,qs->pqrs", h, h) - np.einsum("ps,qr->pqrs", h, h)) / K2
        scale = max(np.max(np.abs(cv.tensor)), 1e-12)
        # brute force over all index tuples
        n = sp.dim
        for pp in range(n):
            for qq in range(n):
                for rr in range(n):
                    for ss in range(n):
                        assert abs(cv.tensor[pp, qq, rr, ss]
                                   - cv.s_star * M[pp, qq, rr, ss]) <= 1e-9 * scale
        assert cv.s_star == pytest.approx(-p.g**2 / 4, abs=1e-12)
        assert 1 + cv.s_star == pytest.approx(p.h**2, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_curvature_contraction_is_the_einsum_one(rng, n):
    # S_pqrs = T_pqrs - T_pqsr with T_pqrs = C_tqr C_p^t_s, for one vector
    # and for a stack with one g per row. At N = 2 S vanishes identically and
    # holds rounding alone, so the bound there is the size of a term of T.
    sp = rand_space(n, rng)
    g = rng.uniform(-1.9, 1.9, size=8)
    X = rng.normal(size=(8, n))
    cases = [(make_param(g), X)] + [(make_param(float(g[i])), X[i]) for i in range(3)]
    for P, Y in cases:
        ct = cartan(P, sp, Y)
        T = np.einsum("...tqr,...pts->...pqrs", ct.full, ct.mixed)
        want = T - T.swapaxes(-1, -2)
        got = curvature_S(P, sp, Y).tensor
        scale = (np.max(np.abs(got)) if n > 2
                 else np.max(np.abs(ct.full)) * np.max(np.abs(ct.mixed)))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_curvature_symmetries(rng):
    for _ in range(20):
        p, sp, R = draw(rng, dims=(3, 4))
        S = curvature_S(p, sp, R).tensor
        assert np.allclose(S, -S.transpose(0, 1, 3, 2), atol=1e-12)
        assert np.allclose(S, S.transpose(2, 3, 0, 1), atol=1e-12)


def test_curvature_n2_fit_uses_contraction(rng):
    # N = 2: pair products vanish identically, scalar still -g^2/4
    p = make_param(1.2)
    sp = rand_space(2, rng)
    R = rand_vec(p, sp, rng)
    cv = curvature_S(p, sp, R)
    assert np.max(np.abs(cv.tensor)) < 1e-12
    assert cv.s_star == pytest.approx(-p.g**2 / 4, abs=1e-12)


@pytest.mark.parametrize("g", [-1.5, 0.4, 1.9])
def test_curvature_n2_constant_on_random_vectors(rng, g):
    # rounding noise in the rank-one angular products must not be fitted
    p = make_param(g)
    sp = Space.euclidean(2)
    for _ in range(300):
        R = rand_vec(p, sp, rng)
        assert abs(1.0 + curvature_S(p, sp, R).s_star - p.h**2) <= 1e-12

import dataclasses
import functools
import math

import numpy as np
import pytest

import finsleroid as fd
from finsleroid import (DegenerateVector, OutOfRange, Param, Space, connect,
                        fmf, make_param, scalar_forms)
from conftest import leaves, rand_space, rand_vec


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


def _same_param(a, b):
    return a.G_max == b.G_max and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) and
        type(getattr(a, f.name)) is type(getattr(b, f.name)) for f in dataclasses.fields(Param))


@pytest.mark.parametrize("g", [0.0, 0.4, -1.3, 1.99999, np.linspace(-1.9, 1.9, 11)])
def test_mirrored_is_make_param_of_minus_g(g):
    # built from the fields, bit for bit the Param make_param(-g) builds
    p = make_param(g)
    assert _same_param(p.mirrored(), make_param(-np.asarray(g)))
    # built once and paired both ways
    assert p.mirrored() is p.mirrored() and p.mirrored().mirrored() is p


def test_mirrored_keeps_a_replaced_h():
    p = make_param(np.array([0.4, -1.2]))
    p.mirrored()
    # a replaced Param builds its own mirror, from its own h
    faulty = dataclasses.replace(p, h=p.h + 1e-3)
    assert np.array_equal(faulty.mirrored().h, p.h + 1e-3)
    assert np.array_equal(faulty.mirrored().g, -p.g)


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
        Z = float(R[-1])
        if Z != 0.0:
            # the Z-scaled forms w = q/Z, Q = B/Z^2 and E = 1 + g w / 2
            w, Q = f.q / Z, f.B / (Z * Z)
            E = 1.0 + 0.5 * p.g * w
            assert E**2 + p.h**2 * w**2 == pytest.approx(Q, rel=1e-12)
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


def test_fmf_is_scalar_forms_k(rng):
    # one formula of K: fmf is the K field of scalar_forms, bit for bit
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        p = make_param(float(rng.uniform(-1.9, 1.9)))
        sp = rand_space(n, rng, identity=bool(rng.integers(2)))
        R = rng.normal(size=n)
        assert fmf(p, sp, R) == scalar_forms(p, sp, R).K


def test_scalar_forms_of_one_vector_are_floats(rng):
    # Python floats, not numpy scalars: the one-vector builders run on them
    p = make_param(0.7)
    sp = rand_space(3, rng)
    for R in (rand_vec(p, sp, rng), [0.0, 0.0, -2.0], [0.5, 0.0, 0.0]):
        f = scalar_forms(p, sp, R)
        assert [type(v) for v in f] == [float] * len(f._fields)


@pytest.mark.parametrize("identity", [True, False])
def test_scalar_forms_broadcast_over_leading_axes(rng, identity):
    p = make_param(-1.3)
    sp = rand_space(3, rng, identity=identity)
    for shape in ((6,), (2, 4)):
        X = rng.normal(size=shape + (3,))
        X.reshape(-1, 3)[1, :-1] = 0.0  # an axis row
        f = scalar_forms(p, sp, X)
        assert all(field.shape == shape for field in f)
        for idx in np.ndindex(*shape):
            assert tuple(field[idx] for field in f) == scalar_forms(p, sp, X[idx])


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


def test_euclidean_space_is_shared():
    sp = Space.euclidean(3)
    assert Space.euclidean(np.int64(3)) is sp
    assert Space.euclidean(4) is not sp
    with pytest.raises(ValueError):
        sp.r_spatial[0, 0] = 2.0
    with pytest.raises(ValueError):
        sp.r_full[0, 0] = 2.0


def test_dual_is_built_once_and_paired():
    sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
    d = sp.dual()
    assert sp.dual() is d and d.dual() is sp
    assert np.array_equal(d.r_spatial, sp.r_spatial_inv)
    for name in ("r_spatial", "r_spatial_inv", "r_full", "r_full_inv", "base_frame",
                 "base_frame_inv"):
        with pytest.raises(ValueError):
            getattr(d, name)[0, 0] = 2.0


def test_dual_takes_the_original_matrices_as_its_inverses(rng):
    # not inv(inv(r)), which is off r by about 1e-16
    for n in (2, 3, 5):
        sp = rand_space(n, rng)
        d = sp.dual()
        assert np.array_equal(d.r_spatial_inv, sp.r_spatial)
        assert np.array_equal(d.r_full_inv, sp.r_full)
        assert np.array_equal(d.r_full, sp.r_full_inv)
        assert d.dual() is sp and d.dim == sp.dim


@pytest.mark.parametrize("cls", [Space, Param])
def test_no_cached_property(cls):
    # filling a cached_property materialises the instance __dict__, and
    # every later attribute read of that object is slower
    assert not [name for klass in cls.__mro__ for name, v in vars(klass).items()
                if isinstance(v, functools.cached_property)]


def test_default_space_built_once(monkeypatch):
    p = make_param(0.4)
    t1, t2 = np.array([1.0, 0.2, 0.5]), np.array([0.3, 1.1, 0.4])
    connect(p, t1, t2)
    built = []
    init = Space.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Space, "__init__", counted)
    for _ in range(3):
        connect(p, t1, t2)
    assert built == []


def test_covector_side_builds_one_dual_per_space(monkeypatch):
    p = make_param(0.4)
    X = np.array([0.3, 0.5, 1.0])
    spaces = [Space(3, [[1.5, 0.2], [0.2, 0.8]]), Space(3), Space.euclidean(3)]
    built = []
    fill = Space._fill

    # every Space, a dual included, sets its matrices through _fill
    def counted(self, r_spatial, inv):
        built.append(r_spatial)
        fill(self, r_spatial, inv)

    monkeypatch.setattr(Space, "_fill", counted)
    for sp in spaces:
        for _ in range(3):
            fd.fhf(p, sp, X)
            fd.from_costate(p, sp, X)
            fd.co_metric(p, sp, X)
    # each build is the dual of one of the spaces, and at most one per
    # space: the shared Euclidean space may have built its dual before
    per_space = [sum(r is sp.r_spatial_inv for r in built) for sp in spaces]
    assert per_space[:2] == [1, 1] and per_space[2] <= 1
    assert len(built) == sum(per_space)


# the functions of ONE_VECTOR that also take vectors stacked along leading axes
STACKED = {"scalar_forms", "fmf", "grad_covector", "metric", "metric_inverse",
           "metric_det", "angular", "cartan", "curvature_S", "to_costate",
           "from_costate", "fhf", "co_scalar_forms", "co_metric", "sigma",
           "sigma_jacobian", "mu", "n_metric"}
ONE_VECTOR = ["scalar_forms", "fmf", "grad_covector", "metric",
              "metric_inverse", "metric_det", "angular", "cartan",
              "curvature_S", "to_costate", "from_costate", "fhf",
              "co_scalar_forms", "co_metric", "sigma", "sigma_jacobian", "mu",
              "mu_jacobian", "n_metric", "qe_christoffel", "qe_curvature",
              "qe_frames", "conformal_factor", "conformal_check",
              "axis_angle", "equator_angle", "perpendicular_companion"]


@pytest.mark.parametrize("name", ONE_VECTOR + ["snorm", "mnorm", "unit_l"])
def test_one_vector_functions_take_lists(name):
    # a plain list gives the result of the same vector as an array
    fn = getattr(fd, name)
    p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    R = [0.3, 0.5, 1.0]
    args = (sp,) if name in ("snorm", "mnorm", "unit_l") else (p, sp)
    got, want = leaves(fn(*args, R)), leaves(fn(*args, np.array(R)))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ONE_VECTOR)
def test_one_vector_functions_refuse_stacks(name):
    # a (2, N) stack gives the rows' results from the functions of STACKED
    # and ValueError from every other one
    fn = getattr(fd, name)
    p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    X = np.array([[0.3, 0.5, 1.0], [0.2, -0.4, 0.7]])
    if name not in STACKED:
        with pytest.raises(ValueError):
            fn(p, sp, X)
        return
    got = leaves(fn(p, sp, X))
    for i, row in enumerate(X):
        want = leaves(fn(p, sp, row))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            # a 0-d leaf is shared by every row (n_metric's det at a float g)
            assert np.array_equal(a if a.ndim == 0 else a[i], b)

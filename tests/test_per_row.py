"""Per-row g: a Param built from an array of g evaluates row i of a stack
at g[i], through the one implementation of every stacked function."""

import dataclasses

import numpy as np
import pytest

import finsleroid as fd
from finsleroid import AxisSingular, DegenerateVector, OutOfRange, make_param
from conftest import leaves, rand_space


def _per_row_stack(rng, n):
    """40 rows with per-row g: g = 0 rows (one on the axis) and rows within
    1e-6 and 1e-4 of the axis at g != 0."""
    g = rng.uniform(-1.9, 1.9, size=40)
    g[::7] = g[3] = 0.0
    X = rng.normal(size=(40, n))
    X[3, :-1] = 0.0
    X[5, :-1] *= 1e-6
    X[9, :-1] *= 1e-4
    return g, X


# the functions that take (..., N), with what they take: vectors R, their
# covectors (to_costate) or their images (sigma)
STACKED = {"scalar_forms": "R", "fmf": "R", "grad_covector": "R", "metric": "R",
           "metric_inverse": "R", "metric_det": "R", "angular": "R",
           "cartan": "R", "curvature_S": "R", "to_costate": "R", "fhf": "co",
           "co_scalar_forms": "co", "from_costate": "co", "co_metric": "co",
           "sigma": "R", "sigma_jacobian": "R", "mu": "t", "n_metric": "t"}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_per_row_g_matches_one_vector_calls(rng, n, identity):
    # measured: at most 4.3e-15 (metric_det, J^(2N) of a J one ulp apart),
    # since numpy's array exp and arctan2 can round differently from its
    # scalar ones
    sp = rand_space(n, rng, identity=identity)
    for _ in range(5):
        g, X = _per_row_stack(rng, n)
        P = make_param(g)
        inputs = {"R": X, "co": fd.to_costate(P, sp, X), "t": fd.sigma(P, sp, X)}
        for name, kind in STACKED.items():
            fn = getattr(fd, name)
            got = leaves(fn(P, sp, inputs[kind]))
            for i in range(len(X)):
                p = make_param(float(g[i]))
                want = leaves(fn(p, sp, inputs[kind][i]))
                scales = [np.max(np.abs(b)) for b in want]
                if name == "curvature_S":
                    # S is a difference of Cartan products: scale by them
                    ct = fd.cartan(p, sp, inputs[kind][i])
                    scales[0] = n * np.max(np.abs(ct.full)) * np.max(np.abs(ct.mixed))
                assert len(got) == len(want)
                for a, b, scale in zip(got, want, scales):
                    assert np.max(np.abs(a[i] - b)) <= 1e-14 * scale, (name, i)


def test_g_zero_rows_are_exact(rng):
    sp = rand_space(3, rng)
    g, X = _per_row_stack(rng, 3)
    P = make_param(g)
    zero = g == 0.0
    eye = np.eye(3)
    assert np.array_equal(fd.metric(P, sp, X)[zero], np.broadcast_to(sp.r_full, (zero.sum(), 3, 3)))
    assert np.array_equal(fd.metric_inverse(P, sp, X)[zero],
                          np.broadcast_to(sp.r_full_inv, (zero.sum(), 3, 3)))
    assert np.array_equal(fd.sigma_jacobian(P, sp, X)[zero], np.broadcast_to(eye, (zero.sum(), 3, 3)))
    ct = fd.cartan(P, sp, X)
    for part in (ct.full, ct.mixed, ct.covector, ct.vector):
        assert not np.any(part[zero])
        assert np.all(np.isfinite(part))


def test_axis_rows_raise_only_off_g_zero(rng):
    sp = rand_space(3, rng)
    X = np.array([[0.3, 0.5, 1.0], [0.0, 0.0, -2.0], [0.2, -0.1, 0.7]])
    fns = (fd.metric, fd.metric_inverse, fd.angular, fd.cartan, fd.curvature_S,
           fd.sigma_jacobian)
    for fn in fns:
        with pytest.raises(AxisSingular):
            fn(make_param(np.array([0.0, 0.4, 0.0])), sp, X)
        # the g = 0 axis row computes no x/0 or 0 * inf (warnings are errors)
        out = leaves(fn(make_param(np.array([0.4, 0.0, -1.2])), sp, X))
        assert all(np.all(np.isfinite(leaf)) for leaf in out)


@pytest.mark.parametrize("g", [[0.4, 2.0], [-2.0, 0.1], [0.4, np.nan], [np.inf],
                               [[0.1, 0.2], [0.3, -2.5]]])
def test_make_param_rejects_any_entry_out_of_range(g):
    with pytest.raises(OutOfRange):
        make_param(np.array(g))


def test_make_param_of_array_is_per_row():
    g = np.array([-1.5, 0.0, 0.4, 1.9])
    P = make_param(g)
    for f in dataclasses.fields(P):
        col = getattr(P, f.name)
        assert isinstance(col, np.ndarray) and col.shape == g.shape
        for i in range(len(g)):
            assert col[i] == getattr(make_param(float(g[i])), f.name)
    # G_max, the largest |G|, is no field and follows every new Param
    assert P.G_max == max(abs(P.G)) and "G_max" not in {f.name for f in dataclasses.fields(P)}
    assert dataclasses.replace(P, G=P.G[:2]).G_max == abs(P.G[0])
    assert make_param(-0.4).G_max == make_param(0.4).G == abs(make_param(-0.4).G)


def test_float_g_keeps_one_vector_types(rng):
    # a float g gives Python floats and (N,) / (N, N) arrays, as before
    p = make_param(0.7)
    assert all(type(getattr(p, f.name)) is float for f in dataclasses.fields(p))
    sp = rand_space(3, rng)
    R = np.array([0.3, -0.5, 0.8])
    t = fd.sigma(p, sp, R)
    assert type(fd.metric_det(p, sp, R)) is float
    assert type(fd.fhf(p, sp, R)) is float
    assert type(fd.curvature_S(p, sp, R).s_star) is float
    assert type(fd.n_metric(p, sp, t).det) is float
    assert type(fd.snorm(sp, t)) is float
    assert all(type(v) is float for v in fd.co_scalar_forms(p, sp, R))
    report = fd.shape_report(p)
    assert all(type(getattr(report, f.name)) is float for f in dataclasses.fields(report))
    for fn in (fd.grad_covector, fd.to_costate, fd.sigma):
        assert fn(p, sp, R).shape == (3,)
    for fn in (fd.metric, fd.metric_inverse, fd.angular, fd.sigma_jacobian):
        assert fn(p, sp, R).shape == (3, 3)
    ct = fd.cartan(p, sp, R)
    assert ct.full.shape == ct.mixed.shape == (3, 3, 3)
    assert ct.covector.shape == ct.vector.shape == (3,)
    nm = fd.n_metric(p, sp, t)
    assert nm.low.shape == nm.up.shape == (3, 3)


def test_shape_report_per_row_g():
    gs = np.linspace(-1.9, 1.9, 191)
    report = fd.shape_report(make_param(gs))
    for i in (0, 37, 95, 190):
        one = fd.shape_report(make_param(float(gs[i])))
        for f in dataclasses.fields(one):
            assert getattr(report, f.name)[i] == pytest.approx(getattr(one, f.name), rel=1e-15)


def _pair_rows(rng, n):
    """Second vectors for _per_row_stack: random rows, then collinear,
    antiparallel, near-parallel (ratio 1.7 and 2) and coincident rows, and
    rows whose |y|^2 / |x|^2 overflows (1e312) or underflows to 0 (1e-360):
    two random, two near-parallel."""
    g, X = _per_row_stack(rng, n)
    Y = rng.normal(size=X.shape)
    e = rng.normal(size=n)
    Y[10], Y[11], Y[12] = 2.5 * X[10], -0.7 * X[11], X[12]
    Y[13], Y[14] = 1.7 * X[13] + 1e-6 * e, 2.0 * X[14] + 1e-9 * e
    Y[15] = -0.6 * X[15] + 1e-9 * e
    X[16], Y[16] = 1e-78 * X[16], 1e78 * Y[16]
    X[17], Y[17] = 1e90 * X[17], 1e-90 * Y[17]
    X[18], X[19] = 1e-78 * X[18], 1e90 * X[19]
    Y[18], Y[19] = 1e156 * X[18] + 1e72 * e, 1e-180 * X[19] + 1e-96 * e
    return g, X, Y


def _assert_rows_match(got, want, i, scales=None):
    """Row i of the stacked result got against the one-pair result want,
    leaf by leaf, within 1e-14 of each leaf's scale (default max |want|);
    bool leaves exactly."""
    got, want = leaves(got), leaves(want)
    assert len(got) == len(want)
    scales = scales or [np.max(np.abs(b)) for b in want]
    for a, b, scale in zip(got, want, scales):
        if b.dtype == bool:
            assert a[i] == b, i
        else:
            assert np.max(np.abs(a[i] - b)) <= 1e-14 * scale, i


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_stacked_pairs_match_one_pair_calls(rng, n, identity):
    sp = rand_space(n, rng, identity=identity)
    for _ in range(5):
        g, X, Y = _pair_rows(rng, n)
        P = make_param(g)
        T1, T2 = fd.sigma(P, sp, X), fd.sigma(P, sp, Y)
        grams, pairs = sp.gram(X, Y), fd.fins_angle(P, sp, X, Y)
        angles = fd.qe_angle(P, T1, T2, space=sp)
        for i in range(len(X)):
            p = make_param(float(g[i]))
            gram = sp.gram(X[i], Y[i])
            _assert_rows_match(grams, gram, i)
            # the exact collinear, antiparallel and coincident rows, and only
            # they, are collinear
            assert gram.collinear == (i in (10, 11, 12)), i
            one = fd.fins_angle(p, sp, X[i], Y[i])
            # the scalar product K1 K2 cos(alpha) vanishes at alpha = pi/2:
            # scale it by K1 K2. alpha is compared absolutely: at N = 5 the
            # stacked scalar_forms can differ from the one-vector ones in the
            # last bit (a stacked matmul), which moves the angle of a
            # near-parallel pair by about eps
            K12 = fd.fmf(p, sp, X[i]) * fd.fmf(p, sp, Y[i])
            _assert_rows_match(pairs, one, i, [1.0, K12, one.ominus_sq])
            _assert_rows_match(angles, fd.qe_angle(p, T1[i], T2[i], space=sp), i)


def test_zero_row_anywhere_raises(rng):
    sp = rand_space(3, rng)
    P = make_param(rng.uniform(-1.5, 1.5, size=6))
    X, Y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    for i in (0, 3, 5):
        for k in (0, 1):
            pair = [X.copy(), Y.copy()]
            pair[k][i] = 0.0
            with pytest.raises(DegenerateVector):
                sp.gram(*pair)
            with pytest.raises(DegenerateVector):
                fd.qe_angle(P, *pair, space=sp)
            with pytest.raises(DegenerateVector):
                fd.fins_angle(P, sp, *pair)


def test_one_pair_keeps_python_scalars(rng):
    # generic, near-parallel (the residual branch) and collinear pairs
    sp = rand_space(3, rng)
    p = make_param(0.7)
    x = np.array([0.3, -0.5, 0.8])
    for y in (np.array([1.0, 0.2, -0.4]), 1.7 * x + 1e-6, 2.5 * x):
        pair = sp.gram(x, y)
        assert all(type(v) is float for v in (pair.a11, pair.a22, pair.a12, pair.u, pair.angle))
        assert type(pair.collinear) is bool
        ap = fd.fins_angle(p, sp, x, y)
        assert all(type(getattr(ap, f.name)) is float for f in dataclasses.fields(ap))
        assert type(fd.qe_angle(p, x, y, space=sp)) is float


def test_plane_and_profile_take_per_row_g():
    # a faulted h and a wrong Cartan scalar make residuals that depend on g,
    # so the per-row calls must evaluate row i at g[i]
    gs = np.array([0.0, 0.4, -0.6, 1.2, -1.7])
    fs = np.linspace(0.05, np.pi - 0.05, 40)
    for shift in (0.0, 1e-3):
        P = dataclasses.replace(make_param(gs[:, None]), h=make_param(gs[:, None]).h + shift)
        ones = [dataclasses.replace(make_param(float(g)), h=make_param(float(g)).h + shift)
                for g in gs]
        for cartan in (None, 0.3):
            want = max(fd.rund_residual(p, fs, cartan) for p in ones)
            assert fd.rund_residual(P, fs, cartan) == pytest.approx(want, rel=1e-14, abs=1e-16)
        chk = fd.landsberg_check(P, fs)
        for key, value in chk.items():
            want = max(fd.landsberg_check(p, fs)[key] for p in ones)
            assert value == pytest.approx(want, rel=1e-14, abs=1e-16), key
        prof = fd.indicatrix_profile(P, 64)
        assert prof.shape == (len(gs), 64, 2)
        for i, p in enumerate(ones):
            one = fd.indicatrix_profile(p, 64)
            assert np.max(np.abs(prof[i] - one)) <= 1e-14 * np.max(np.abs(one))

"""Per-row g: a Param built from an array of g evaluates row i of a stack
at g[i], through the one implementation of every stacked function."""

import dataclasses
import importlib
import inspect
import warnings

import numpy as np
import pytest

import finsleroid as fd
from finsleroid import AntipodalSingular, AxisSingular, DegenerateVector, OutOfRange, make_param
from finsleroid.geodesic import ANTIPODAL_TOL
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
           "sigma": "R", "sigma_jacobian": "R", "mu": "t", "n_metric": "t",
           "mu_jacobian": "t", "qe_christoffel": "t", "qe_curvature": "t",
           "qe_frames": "t", "conformal_factor": "t", "conformal_check": "t"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("identity", [True, False])
def test_per_row_g_matches_one_vector_calls(rng, n, identity):
    # one row formula, products with r through Space, and integer powers as
    # products: row i gets the bits of the one-vector call at g[i]
    sp = rand_space(n, rng, identity=identity)
    for _ in range(5):
        g, X = _per_row_stack(rng, n)
        P = make_param(g)
        inputs = {"R": X, "co": fd.to_costate(P, sp, X), "t": fd.sigma(P, sp, X)}
        for name, kind in STACKED.items():
            fn = getattr(fd, name)
            got = leaves(fn(P, sp, inputs[kind]))
            for i in range(len(X)):
                want = leaves(fn(make_param(float(g[i])), sp, inputs[kind][i]))
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a[i].dtype == b.dtype and a[i].tobytes() == b.tobytes(), (name, i)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacks_in_any_memory_layout_match_the_c_ordered_call(rng, n):
    # a transposed stack, such as np.array([xs, ys, zs]).T, a strided view
    # of every other row and a Fortran-ordered copy give the C-ordered
    # stack's values, bit for bit, conformal_check's einsum included
    sp = rand_space(n, rng, identity=False)
    g, X = _per_row_stack(rng, n)
    P = make_param(g)
    inputs = {"R": X, "co": fd.to_costate(P, sp, X), "t": fd.sigma(P, sp, X)}
    for name, kind in STACKED.items():
        fn = getattr(fd, name)
        want = leaves(fn(P, sp, inputs[kind]))
        c = inputs[kind]
        for x in (np.array([c[:, q] for q in range(n)]).T, np.repeat(c, 2, axis=0)[::2],
                  np.asfortranarray(c)):
            assert not x.flags.c_contiguous
            got = leaves(fn(P, sp, x))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _g_zero_layout(rng, layout):
    """(P, X, zero) for a layout of g with g = 0 rows: zero masks those rows
    of X, and one vector counts as a stack of one row."""
    if layout == "per-row g, mixed":
        g, X = _per_row_stack(rng, 3)
        return make_param(g), X, g == 0.0
    X = rng.normal(size=(6, 3))
    X[2, :-1] = 0.0
    if layout == "one vector off the axis":
        return make_param(0.0), X[0], np.array([True])
    if layout == "one vector on the axis":
        return make_param(0.0), X[2], np.array([True])
    if layout == "float g, axis row":
        return make_param(0.0), X, np.full(6, True)
    return make_param(np.zeros(6)), X, np.full(6, True)  # per-row g, all 0


def test_g_zero_rows_are_exact(rng):
    # every builder runs its one formula and write_rows sets the g = 0 rows:
    # r_pq, r^pq, I for both Jacobians (X read as image points for mu's) and
    # zero Cartan and curvature tensors, exactly
    sp = rand_space(3, rng)
    for layout in ("one vector off the axis", "one vector on the axis",
                   "float g, axis row", "per-row g, all 0", "per-row g, mixed"):
        P, X, zero = _g_zero_layout(rng, layout)

        def rows(a):
            a = np.asarray(a)
            return (a[None] if X.ndim == 1 else a)[zero]

        k = np.count_nonzero(zero)
        for fn, want in ((fd.metric, sp.r_full), (fd.metric_inverse, sp.r_full_inv),
                         (fd.sigma_jacobian, np.eye(3)), (fd.mu_jacobian, np.eye(3))):
            want = np.broadcast_to(want, (k, 3, 3))
            assert rows(fn(P, sp, X)).tobytes() == want.tobytes(), layout  # signs of zeros too
        ct = fd.cartan(P, sp, X)
        cs = fd.curvature_S(P, sp, X)
        for part in (ct.full, ct.mixed, ct.covector, ct.vector, cs.tensor, cs.s_star):
            assert not np.any(rows(part)), layout
            assert np.all(np.isfinite(part)), layout


def test_axis_rows_raise_only_off_g_zero(rng):
    sp = rand_space(3, rng)
    X = np.array([[0.3, 0.5, 1.0], [0.0, 0.0, -2.0], [0.2, -0.1, 0.7]])
    fns = (fd.metric, fd.metric_inverse, fd.angular, fd.cartan, fd.curvature_S,
           fd.sigma_jacobian, fd.mu_jacobian)
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
    assert type(fd.conformal_factor(p, sp, t)) is float
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
    for fn in (fd.mu_jacobian, fd.conformal_check):
        assert fn(p, sp, t).shape == (3, 3)
    assert fd.qe_christoffel(p, sp, t).shape == (3, 3, 3)
    assert fd.qe_curvature(p, sp, t).shape == (3, 3, 3, 3)
    fr = fd.qe_frames(p, sp, t)
    assert fr.f.shape == fr.m.shape == (3, 3) and fr.ricci.shape == (3, 3, 3)


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
            # scale it by K1 K2. alpha is compared absolutely: the math path
            # of one pair can differ from the stacked formula in the last
            # bit, which moves the angle of a near-parallel pair by about eps
            K12 = fd.fmf(p, sp, X[i]) * fd.fmf(p, sp, Y[i])
            _assert_rows_match(pairs, one, i, [1.0, K12, one.ominus_sq])
            _assert_rows_match(angles, fd.qe_angle(p, T1[i], T2[i], space=sp), i)


# every pair function on the rows (X, Y) of _pair_rows: the image-space
# ones on image points t1 = X, t2 = Y, the anisotropic ones on vectors
# R = X, S = Y
PAIR_FUNCTIONS = {
    "n2": lambda p, sp, X, Y: fd.n2(p, X, Y, space=sp),
    "n2_frame": lambda p, sp, X, Y: fd.n2_frame(p, X, Y, space=sp),
    "covector_pair": lambda p, sp, X, Y: fd.covector_pair(p, X, Y, space=sp),
    "invert_covector_pair": lambda p, sp, X, Y: fd.invert_covector_pair(
        p, X, Y, fd.qe_angle(p, X, Y, space=sp), space=sp),
    "g2": lambda p, sp, X, Y: fd.g2(p, sp, X, Y),
    "scalar_grad": lambda p, sp, X, Y: fd.scalar_grad(p, sp, X, Y),
    "perpendicular_companion": lambda p, sp, X, Y: fd.perpendicular_companion(p, sp, X, Y),
    "parallelogram_exact": lambda p, sp, X, Y: fd.parallelogram_exact(p, X, Y, space=sp),
    "parallelogram_residuals": lambda p, sp, X, Y: fd.parallelogram_residuals(
        p, X, Y, X + Y, space=sp),
    "parallelogram_sum": lambda p, sp, X, Y: fd.parallelogram_sum(p, X, Y, space=sp),
    "parallelogram_diff": lambda p, sp, X, Y: fd.parallelogram_diff(p, X, Y, space=sp),
    "difference_gradients": lambda p, sp, X, Y: fd.difference_gradients(p, X, Y, space=sp),
}
# what the collinear row 10, the antiparallel row 11, the coincident row 12
# and the near-antipodal row 15 get: a value, or the typed refusal of the
# row, and of every stack that holds it. The images of R and -0.7 R are
# not collinear at g != 0, so the anisotropic functions answer row 11
_C, _NAMED_ROWS = fd.CollinearVectors, (10, 11, 12, 15)
NAMED_ROWS = {
    "n2": (None, AntipodalSingular, None, None),
    "n2_frame": (_C, _C, _C, fd.NegativeRadicand),
    "covector_pair": (_C, _C, _C, None),
    "invert_covector_pair": (fd.SingularXi, fd.SingularXi, fd.SingularXi, None),
    "g2": (None, None, None, None),
    "scalar_grad": (fd.DegenerateW, None, fd.DegenerateW, None),
    "perpendicular_companion": (_C, None, _C, None),
    "parallelogram_exact": (_C, _C, _C, AntipodalSingular),
    "parallelogram_residuals": (None, None, None, None),
    "parallelogram_sum": (_C, _C, _C, None),
    "parallelogram_diff": (_C, _C, _C, None),
    "difference_gradients": (_C, _C, _C, None),
}


def _pair_scales(name, want, sp, x, y):
    """The scale of each leaf of the one-pair result want on (x, y): its
    largest entry, but the size of the terms for the leaves that are
    differences of them and vanish up to their rounding. n2's mixing
    coefficients A1 = cos(alpha) - a12 s / h and A2 = cos(alpha) / h - a12 s
    (at g = 0) take 1 + |A|; the residuals
    n3 - (a_jj - a_ii) / n3 - 2 sqrt(a_ii) cos(...) of t3 = x + y (the
    Euclidean sum, exact at g = 0) take |x| + |y| + |x + y|."""
    scales = [np.max(np.abs(b)) for b in leaves(want)]
    if name == "n2":
        scales[1:3] = [1.0 + abs(want.A1), 1.0 + abs(want.A2)]
    if name == "parallelogram_residuals":
        scales = [sp.norm(x) + sp.norm(y) + sp.norm(x + y)]
    return scales


@pytest.mark.filterwarnings("ignore:first-order")  # parallelogram_sum/diff at k > 0.2
@pytest.mark.parametrize("name", list(PAIR_FUNCTIONS))
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_stacked_pair_functions_match_one_pair_calls(rng, name, n, identity):
    # the pair layer over stacks with per-row g: each row the pair function
    # answers is within 1e-14 of its one-pair call (Space.gram runs in math
    # for one pair), n2's collinear rows get the one-vector tensor n_metric
    # with u = 0, and a row the one-pair call refuses makes every stack
    # that holds it raise the same typed refusal. Warnings are errors, so
    # no row makes a 0/0
    fn, named = PAIR_FUNCTIONS[name], NAMED_ROWS[name]
    sp = rand_space(n, rng, identity=identity)
    for _ in range(2):
        g, X, Y = _pair_rows(rng, n)
        ones = []
        for i in range(len(X)):
            try:
                ones.append(fn(make_param(float(g[i])), sp, X[i], Y[i]))
            except fd.FinsleroidError as exc:
                ones.append(type(exc))
        for i, want in zip(_NAMED_ROWS, named):
            assert ones[i] is want if want else not isinstance(ones[i], type), (name, i)
        rows = np.array([not isinstance(one, type) for one in ones])
        got = fn(make_param(g[rows]), sp, X[rows], Y[rows])
        for j, i in enumerate(np.flatnonzero(rows)):
            _assert_rows_match(got, ones[i], j, _pair_scales(name, ones[i], sp, X[i], Y[i]))
        for i in np.flatnonzero(~rows):
            with_i = rows.copy()
            with_i[i] = True
            with pytest.raises(ones[i]):
                fn(make_param(g[with_i]), sp, X[with_i], Y[with_i])
        if name == "n2":
            for i in (10, 12):
                j = np.count_nonzero(rows[:i])  # row i in the stack of answered rows
                nm = fd.n_metric(make_param(float(g[i])), sp, X[i]).low
                assert np.array_equal(got.components[j], nm) and got.u[j] == 0.0


def _boundary(bd):
    """The array fields of a GeodesicBoundary, and their scales: b is at
    most a in size and cancels near 0, so it is scaled by a."""
    fields = (bd.t1, bd.t2, bd.a, bd.b, bd.delta_s, bd.S_end, bd.alpha, bd.radial)
    scales = [np.max(np.abs(f)) for f in fields[:-1]]
    scales[3] = bd.a
    return fields, scales


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("identity", [True, False])
def test_stacked_connect_matches_one_pair_calls(rng, n, identity):
    # the rows connect accepts: random ones, the radial and coincident
    # rows 10 and 12, near-parallel ones and rows of extreme |t2| / |t1|;
    # the (near-)antiparallel rows 11 and 15 are refused. Warnings are
    # errors, so the radial and coincident rows make no 0/0
    sp = rand_space(n, rng, identity=identity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            g, X, Y = _pair_rows(rng, n)
            rows = fd.qe_angle(make_param(g), X, Y, space=sp) < np.pi - ANTIPODAL_TOL
            assert rows[10] and rows[12] and not rows[11] and not rows[15]
            bd = fd.connect(make_param(g[rows]), X[rows], Y[rows], space=sp)
            s = np.linspace(0.0, 1.0, 7) * bd.delta_s[:, None]
            paths = [fd.qe_geodesic_at(bd, s), fd.qe_geodesic_at(bd, s[:, 3])]
            assert paths[0][0].shape == s.shape + (n,) and paths[1][1].shape == s[:, 3].shape
            for j, i in enumerate(np.flatnonzero(rows)):
                one = fd.connect(make_param(float(g[i])), X[i], Y[i], space=sp)
                assert one.radial == (i in (10, 12)), i
                want, scales = _boundary(one)
                _assert_rows_match(_boundary(bd)[0], want, j, scales)
                _assert_rows_match(paths[0], fd.qe_geodesic_at(one, s[j]), j)
                _assert_rows_match(paths[1], fd.qe_geodesic_at(one, s[j, 3]), j)
            # the velocities of the same rows, but 17 and 19: their t2 is
            # 1e-180 |t1|, and the norm law S^2 = a^2 + 2 b s + s^2, which
            # the velocity divides by, cancels to 0 at s = delta_s. Elsewhere
            # it cancels by kappa = (a^2 + 2 |b| s + s^2) / S^2, which scales
            # the last bits by which a stacked boundary can differ
            rows[[17, 19]] = False
            bd = fd.connect(make_param(g[rows]), X[rows], Y[rows], space=sp)
            s = np.linspace(0.0, 1.0, 7) * bd.delta_s[:, None]
            vel = [fd.qe_velocity(bd, s), fd.qe_velocity(bd, s[:, 3]), fd.endpoint_velocities(bd)]
            assert vel[0].shape == s.shape + (n,) and vel[2][1].shape == bd.t2.shape
            for j, i in enumerate(np.flatnonzero(rows)):
                one = fd.connect(make_param(float(g[i])), X[i], Y[i], space=sp)
                a, b, sj = one.a, one.b, s[j]
                kappa = np.max((a * a + 2 * abs(b) * sj + sj * sj) / (a * a + 2 * b * sj + sj * sj))
                for got, want in ((vel[0], fd.qe_velocity(one, sj)),
                                  (vel[1], fd.qe_velocity(one, sj[3])),
                                  (vel[2], fd.endpoint_velocities(one))):
                    scales = [kappa * np.max(np.abs(v)) for v in leaves(want)]
                    _assert_rows_match(got, want, j, scales)


# the public functions that take a vector of their Space but no stack of
# them: the vector of each is of another kind
ONE_VECTOR_ONLY = {
    "sphere_curvature",  # a chart point u of the radius-r sphere, an (N-1)-vector
    "indicatrix_point",  # a unit spatial direction n, an (N-1)-vector
}
# the parameters that take no vector, and the ones left at their default
NOT_VECTORS = {"p", "sp", "space", "g", "n_samples", "s", "alpha"}
LEFT_AT_DEFAULT = {"seed", "base_frame"}


def _guard_inputs(k):
    """(g, sp, stacked, row): the inputs of every vector parameter for a
    stack of k rows with per-row g, by parameter name, and row(i), those of
    row i. The pair (R, S) is acute, so that n2_frame's radicands are
    positive."""
    sp = fd.Space(3, [[1.5, 0.2], [0.2, 0.8]])
    g = np.array([0.4, -0.9])[:k]
    P = make_param(g)
    R = np.array([[0.3, 0.5, 1.0], [0.6, -0.2, 0.9]])[:k]
    S = np.array([[0.5, 0.4, 0.8], [0.2, -0.6, 1.1]])[:k]
    t1, t2 = fd.sigma(P, sp, R), fd.sigma(P, sp, S)
    stacked = {"R": R, "S": S, "R1": R, "R2": S, "Rhat": fd.to_costate(P, sp, R), "t": t1,
               "t1": t1, "t2": t2, "t3": t1 + t2, "T1": t1, "T2": t2,
               "v1": fd.endpoint_velocities(fd.connect(P, t1, t2, space=sp))[0],
               "alpha": np.array([0.7, 0.9])[:k]}

    def row(i):
        one = {name: v[i] for name, v in stacked.items() if name != "bd"}
        return {**one, "bd": fd.connect(make_param(float(g[i])), t1[i], t2[i], space=sp)}
    stacked["bd"] = fd.connect(P, t1, t2, space=sp)
    return g, sp, stacked, row


def _call(fn, p, sp, inputs):
    """fn on the inputs by parameter name, sp as its space, s = 0.3, and the
    parameters of LEFT_AT_DEFAULT left out."""
    args = {"p": p, "sp": sp, "space": sp, "s": 0.3, **inputs}
    return fn(**{name: args[name] for name in inspect.signature(fn).parameters
                 if name not in LEFT_AT_DEFAULT})


def _vector_functions():
    """The public functions of the modules that take a vector, by name."""
    found = {}
    for module in ("core", "tensors", "cospace", "quasieuclid", "angle", "twovector",
                   "geodesic", "shape"):
        mod = importlib.import_module(f"finsleroid.{module}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and set(inspect.signature(fn).parameters) - NOT_VECTORS:
                found[name] = fn
    return found


VECTOR_FUNCTIONS = _vector_functions()


def test_the_vector_functions_are_found():
    # the scan sees every module: a function it missed would be unguarded
    assert {"fmf", "metric", "co_metric", "sigma", "fins_angle", "n2", "g2", "connect",
            "qe_geodesic_initial", "profile_slopes"} <= set(VECTOR_FUNCTIONS)
    assert ONE_VECTOR_ONLY <= set(VECTOR_FUNCTIONS)
    assert not {"make_param", "shape_report", "indicatrix_profile"} & set(VECTOR_FUNCTIONS)


@pytest.mark.parametrize("name", sorted(set(VECTOR_FUNCTIONS) - ONE_VECTOR_ONLY))
@pytest.mark.parametrize("k", [1, 2])
def test_every_vector_function_takes_a_stack(name, k):
    # one input contract: every public function that takes a vector of its
    # Space takes a (k, N) stack with per-row g, and its row i answers as
    # the call on row i does (within 1e-14 of the leaf's scale, or of 1
    # where the leaf is smaller; the rows are compared closely by the tests
    # of each function). A new function limited to one vector fails here,
    # or must be named in ONE_VECTOR_ONLY; one with a parameter this table
    # does not know fails in _call
    fn = VECTOR_FUNCTIONS[name]
    g, sp, stacked, row = _guard_inputs(k)
    got = leaves(_call(fn, make_param(g), sp, stacked))
    for i in range(k):
        want = leaves(_call(fn, make_param(float(g[i])), sp, row(i)))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if b.dtype == object:  # the Space of a GeodesicBoundary
                continue
            assert a.shape == (k,) + b.shape and a.dtype == b.dtype, name
            if b.dtype == bool:  # the radial flag of a GeodesicBoundary
                assert a[i] == b
            else:
                assert np.max(np.abs(a[i] - b), initial=0.0) <= 1e-14 * max(np.max(np.abs(b)), 1.0)


def test_connect_refuses_a_stack_with_an_antipodal_row(rng):
    sp = rand_space(3, rng)
    P = make_param(rng.uniform(-1.5, 1.5, size=6))
    X = rng.normal(size=(6, 3))
    Y = X + 0.1 * rng.normal(size=(6, 3))
    assert not np.any(fd.connect(P, X, Y, space=sp).radial)
    Y[4] = -2.0 * X[4]
    with pytest.raises(AntipodalSingular):
        fd.connect(P, X, Y, space=sp)


def test_connect_takes_an_empty_stack():
    sp = fd.Space.euclidean(3)
    bd = fd.connect(make_param(np.empty(0)), np.empty((0, 3)), np.empty((0, 3)), space=sp)
    assert bd.a.shape == bd.b.shape == bd.radial.shape == (0,)
    t, nu = fd.qe_geodesic_at(bd, np.empty((0, 5)))
    assert t.shape == (0, 5, 3) and nu.shape == (0, 5)


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
            with pytest.raises(DegenerateVector):
                fd.connect(P, *pair, space=sp)


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
        bd = fd.connect(p, x, y, space=sp)
        assert all(type(v) is float for v in (bd.a, bd.b, bd.delta_s, bd.S_end, bd.alpha))
        assert type(bd.radial) is bool and type(fd.qe_geodesic_at(bd, 0.5)[1]) is float


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

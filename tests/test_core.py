import ast
import builtins
import dataclasses
import functools
import importlib
import math
import pathlib
import sys
import threading
import warnings

import numpy as np
import pytest

import finsleroid as fd
from finsleroid import (ConeLimit, DegenerateVector, OutOfRange, Param, Space, core,
                        connect, fmf, make_param, scalar_forms, tensors, twovector)
from conftest import count_calls, count_memo, leaves, rand_space, rand_vec


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
    for bad in (np.inf, -np.inf, np.nan):
        # refused before the symmetry test, whose tolerance a non-finite entry
        # would make non-finite (warnings are errors)
        with pytest.raises(ValueError, match="spatial metric must be finite"):
            Space(3, [[1.0, 0.0], [0.0, bad]])
    sp = Space(3, np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert sp.r_full[-1, -1] == 1.0
    assert np.all(sp.r_full[-1, :-1] == 0.0)


def test_space_symmetry_check_is_relative():
    # the asymmetry is measured against the largest entry: a tiny matrix
    # with an indefinite symmetric part (eigenvalues -1.5e-13 and 3.5e-13)
    # is refused, a large one asymmetric at rounding level is taken
    with pytest.raises(ValueError, match="symmetric"):
        Space(3, [[1e-13, 5e-13], [0.0, 1e-13]])
    sp = Space(3, [[1e6, 0.3], [0.3 + 1e-9, 2e6]])
    assert sp.r_spatial[1, 0] == 0.3 + 1e-9
    for scale in (1e-100, 1.0, 1e100):
        with pytest.raises(ValueError, match="symmetric"):
            Space(3, scale * np.array([[1.0, 2.0], [0.0, 1.0]]))
        Space(3, scale * np.array([[1.5, 0.2], [0.2 + 1e-13, 0.8]]))


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


def test_tensor_field_calls_evaluate_the_forms_twice(rng, monkeypatch):
    # the one-vector tensor stack at R: its 10 scalar_forms calls evaluate
    # the forms of R and of its costate once each, curvature_S finds the
    # Cartan tensors that cartan built, and cartan builds h_pq from the forms,
    # so the metric and the covector of R are each built once, by metric and
    # to_costate
    calls, evaluations = count_memo(monkeypatch, "forms")
    cartan_calls, cartan_evaluations = count_memo(monkeypatch, "cartan")
    metric_calls = count_calls(monkeypatch, tensors._metric)
    covector_calls = count_calls(monkeypatch, tensors._grad_covector)
    for n in (3, 5):
        p, sp = make_param(0.7), rand_space(n, rng)
        R = rand_vec(p, sp, rng)
        calls[0] = evaluations[0] = cartan_calls[0] = cartan_evaluations[0] = 0
        metric_calls[0] = covector_calls[0] = 0
        fd.fmf(p, sp, R)
        fd.metric(p, sp, R)
        fd.metric_inverse(p, sp, R)
        fd.metric_det(p, sp, R)
        fd.cartan(p, sp, R)
        fd.curvature_S(p, sp, R)
        co = fd.to_costate(p, sp, R)
        fd.fhf(p, sp, co)
        fd.sigma_jacobian(p, sp, R)
        fd.n_metric(p, sp, fd.sigma(p, sp, R))
        assert (calls[0], evaluations[0]) == (10, 2)
        assert (cartan_calls[0], cartan_evaluations[0]) == (2, 1)
        assert (metric_calls[0], covector_calls[0]) == (1, 1)


def test_diagonal_adds_in_place_and_refuses_other_layouts():
    # the view writes into a C-contiguous stack; on any other layout its
    # reshape would be a copy, so the addition would be lost: refused
    a = np.zeros((2, 4, 4))
    core.diagonal(a, 3)[...] += np.array([[1.0], [2.0]])
    assert np.array_equal(a, np.diag([1.0, 1.0, 1.0, 0.0]) * np.array([1.0, 2.0])[:, None, None])
    for b in (np.asfortranarray(a), a.transpose(0, 2, 1), a[:, ::2, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            core.diagonal(b, 3)


def test_pair_constructions_read_no_d1_or_d2_vector(rng, monkeypatch):
    # the one-pair constructions take d1 = (a11/u) perp and
    # d2 = (u/a11) x - (a12/u) perp only as coefficients on x, y and perp:
    # g2, n2, covector_pair, parallelogram_exact and perpendicular_companion
    # read neither Gram vector, which is built anew on every read.
    # difference_gradients returns both, so it reads each once
    reads = [0]
    for name in ("d1", "d2"):
        fget = getattr(core.Gram, name).fget

        def counted(pair, fget=fget):
            reads[0] += 1
            return fget(pair)
        monkeypatch.setattr(core.Gram, name, property(counted))
    for n in (2, 3, 5):
        p, sp = make_param(0.7), rand_space(n, rng)
        R, S = rand_vec(p, sp, rng), rand_vec(p, sp, rng)
        t1, t2 = fd.sigma(p, sp, R), fd.sigma(p, sp, S)
        reads[0] = 0
        fd.g2(p, sp, R, S)
        fd.n2(p, t1, t2, space=sp)
        fd.covector_pair(p, t1, t2, space=sp)
        fd.invert_covector_pair(p, t1, t2, 0.9, space=sp)
        fd.n2_frame(p, t1, t2, space=sp)
        fd.parallelogram_exact(p, t1, t2, space=sp)
        fd.perpendicular_companion(p, sp, R, S)
        assert reads[0] == 0
        fd.difference_gradients(p, t1, t2, space=sp)
        assert reads[0] == 2


def _fields(x) -> list:
    return ([getattr(x, f.name) for f in dataclasses.fields(x)]
            if dataclasses.is_dataclass(x) else list(x))


def _same(a, b) -> bool:
    """Whether two results hold the same types, shapes and bits, field by field."""
    fa, fb = _fields(a), _fields(b)
    return ([(type(v), np.shape(v), np.asarray(v).tobytes()) for v in fa]
            == [(type(v), np.shape(v), np.asarray(v).tobytes()) for v in fb])


def _cone_vectors(p, sp):
    """Two vectors at g = 1.9999999 (the Param p) whose forms are doubles:
    A / q = 1e-5 and 3e-5, so |G Phi / 2| is about 100 and 299. The Cartan
    tensors, built on J^4, are doubles at the first and leave the double
    range at the second."""
    q = sp.spatial_norm(np.array([0.5, 0.5, 0.0]))
    return [np.array([0.5, 0.5, (c - 0.5 * p.g) * q]) for c in (1e-5, 3e-5)]


class _Forms:
    """scalar_forms: two entries, keyed by p, sp and R."""

    name = "forms"

    @staticmethod
    def memo():
        return core._forms_memo

    @staticmethod
    def run(objects, args):
        return core.scalar_forms(*objects, *args)

    @staticmethod
    def inputs(sp, rng):
        for g in (0.0, -1.3, 1.9):
            p = make_param(g)
            yield (p, sp), (rand_vec(p, sp, rng),)

    @staticmethod
    def equal_objects(objects):
        p, sp = objects
        return [(make_param(p.g), sp), (p, Space(sp.dim, sp.r_spatial))]

    @staticmethod
    def copy(args):
        return (list(args[0]),)  # a list is converted as check_vector would

    @staticmethod
    def shares(hit, first, args) -> bool:
        return hit is first

    @staticmethod
    def check_hit(hit, objects, args):
        p, sp = objects
        assert [type(v) for v in hit] == [float] * 7
        # the key is the Param, not its g: a replaced h is evaluated anew
        assert scalar_forms(dataclasses.replace(p, h=p.h + 1e-3), sp, *args).Phi != hit.Phi
        assert fd.metric(p, sp, *args).tobytes() == fd.metric(make_param(p.g), sp, *args).tobytes()

    @staticmethod
    def failures():
        p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
        cone = make_param(1.9999999)
        R = np.array([0.3, 0.5, 1.0])
        # near A = Z + g q / 2 = 0 the cone limit is still far off
        S = np.array([0.3, 0.5, -sp.spatial_norm(R)])
        good = [((p, sp), (R,)), ((cone, sp), (S,))]
        bad = [((p, sp), (np.zeros(3),), DegenerateVector),
               ((p, sp), (np.array([0.3, np.nan, 1.0]),), ValueError),
               ((p, sp), (np.array([0.3, 1.0]),), ValueError), ((cone, sp), (R,), ConeLimit)]
        return good, bad

    @staticmethod
    def one():
        return (make_param(-0.6), Space.euclidean(3)), (np.array([0.3, 0.5, 1.0]),)

    @staticmethod
    def stacks():
        p, sp = make_param(0.4), Space.euclidean(3)
        X = np.array([[0.3, 0.5, 1.0], [0.2, -0.4, 0.7]])
        return [((p, sp), (X,)), ((p, sp), (X[:1],))]

    @staticmethod
    def shared(rng):
        p, sp = make_param(0.8), rand_space(3, rng)
        return (p, sp), [(rand_vec(p, sp, rng),) for _ in range(12)]

    @staticmethod
    def holds_callers_arrays(result, args) -> bool:
        return True


class _Gram(_Forms):
    """Space.gram: one entry, keyed by the Space and the pair."""

    name = "gram"

    @staticmethod
    def memo():
        return core._gram_memo

    @staticmethod
    def run(objects, args):
        return objects[0].gram(*args)

    @staticmethod
    def inputs(sp, rng):
        # a generic pair, and near-collinear, near-antipodal, collinear and
        # antipodal ones
        x, e = rng.normal(size=sp.dim), rng.normal(size=sp.dim)
        for y in (rng.normal(size=sp.dim), 1.7 * x + 1e-9 * e, -x + 1e-9 * e, 2.0 * x, -x):
            yield (sp,), (x, y)

    @staticmethod
    def equal_objects(objects):
        sp = objects[0]
        return [(Space(sp.dim, sp.r_spatial),)]

    @staticmethod
    def copy(args):
        return tuple(a.copy() for a in args)

    @staticmethod
    def shares(hit, first, args) -> bool:
        # the stored record, with the caller's own x and y
        return hit.perp is first.perp and _Gram.holds_callers_arrays(hit, args)

    @staticmethod
    def check_hit(hit, objects, args):
        assert [type(v) for v in hit[3:]] == [float] * 5 + [bool]
        if not hit.collinear:
            fresh = _Gram.run(_Gram.equal_objects(objects)[0], args)
            assert hit.d1.tobytes() == fresh.d1.tobytes()
            assert hit.d2.tobytes() == fresh.d2.tobytes()

    @staticmethod
    def failures():
        sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
        x, y = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
        bad = [((sp,), (np.zeros(3), y), DegenerateVector),
               ((sp,), (x, np.zeros(3)), DegenerateVector),
               ((sp,), (x, np.array([0.3, np.nan, 1.0])), ValueError),
               ((sp,), (np.array([np.inf, 0.5, 1.0]), y), ValueError),
               ((sp,), (x, np.array([0.3, 1.0])), ValueError),
               ((sp,), (np.array([0.3, 0.5, 1.0, 2.0]), y), ValueError)]
        return [((sp,), (x, y))], bad

    @staticmethod
    def one():
        return (Space.euclidean(3),), (np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7]))

    @staticmethod
    def stacks():
        sp = Space.euclidean(3)
        X = np.array([[0.3, 0.5, 1.0], [0.2, -0.4, 0.7]])
        # one x against a stack of y too
        return [((sp,), (X, X[::-1])), ((sp,), (X[:1], X[1:])), ((sp,), (X[0], X))]

    @staticmethod
    def shared(rng):
        sp = rand_space(3, rng)
        return (sp,), [(rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]

    @staticmethod
    def holds_callers_arrays(result, args) -> bool:
        return result.x is args[0] and result.y is args[1]


class _Cartan(_Forms):
    """The Cartan tensors of cartan and curvature_S: one entry, keyed by p,
    sp and R."""

    name = "cartan"

    @staticmethod
    def memo():
        return tensors._cartan_memo

    @staticmethod
    def run(objects, args):
        return fd.cartan(*objects, *args)

    @staticmethod
    def shares(hit, first, args) -> bool:
        return all(a is b for a, b in zip(_fields(hit), _fields(first)))

    @staticmethod
    def check_hit(hit, objects, args):
        p, sp = objects
        for a in _fields(hit):
            assert type(a) is np.ndarray and not a.flags.writeable
        # curvature_S runs on the stored tensors
        fresh = fd.curvature_S(make_param(p.g), sp, *args)
        assert _same(fd.curvature_S(p, sp, *args), fresh)

    @staticmethod
    def failures():
        p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
        cone = make_param(1.9999999)
        S, T = _cone_vectors(cone, sp)
        bad = [((p, sp), (np.array([0.0, 0.0, 1.3]),), fd.AxisSingular),
               ((cone, sp), (T,), ConeLimit),
               ((p, sp), (np.zeros(3),), DegenerateVector),
               ((p, sp), (np.array([0.3, np.nan, 1.0]),), ValueError)]
        return [((cone, sp), (S,))], bad

    @staticmethod
    def one():
        return (make_param(-0.6), Space.euclidean(3)), (np.array([0.3, 0.5, 1.0]),)


class _N2(_Forms):
    """twovector.n2: one entry, keyed by p, sp and the pair."""

    name = "n2"

    @staticmethod
    def memo():
        return twovector._n2_memo

    @staticmethod
    def run(objects, args):
        p, sp = objects
        return fd.n2(p, *args, space=sp)

    @staticmethod
    def inputs(sp, rng):
        # a generic pair, and near-collinear, near-antipodal and parallel
        # ones at each g; the antipodal pair at g = 0 only
        x, e = rng.normal(size=sp.dim), rng.normal(size=sp.dim)
        for g in (0.0, -1.3, 1.9):
            p = make_param(g)
            for y in (rng.normal(size=sp.dim), 1.7 * x + 1e-9 * e, -x + 1e-9 * e, 2.0 * x):
                yield (p, sp), (x, y)
        yield (make_param(0.0), sp), (x, -x)

    @staticmethod
    def copy(args):
        return tuple(a.copy() for a in args)

    @staticmethod
    def check_hit(hit, objects, args):
        p, sp = objects
        assert type(hit.components) is np.ndarray and not hit.components.flags.writeable
        assert [type(v) for v in (hit.A1, hit.A2, hit.u)] == [float] * 3
        # the key holds the Param, not its g, and the Space: a replaced h and
        # a scaled metric are evaluated anew
        for other in ((dataclasses.replace(p, h=p.h + 1e-3), sp),
                      (p, Space(sp.dim, 2.0 * sp.r_spatial))):
            assert _same(_N2.run(objects, args), hit)  # stored for (p, sp)
            assert _N2.run(other, args).components.tobytes() != hit.components.tobytes()

    @staticmethod
    def failures():
        p, sp = make_param(0.4), Space(3, [[1.5, 0.2], [0.2, 0.8]])
        x, y = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
        bad = [((p, sp), (x, -2.0 * x), fd.AntipodalSingular),
               ((make_param(-1.3), sp), (x, -x), fd.AntipodalSingular),
               ((p, sp), (x, np.array([0.3, np.nan, 1.0])), ValueError),
               ((p, sp), (x, np.zeros(3)), DegenerateVector)]
        # a parallel pair is kept, in the branch that refuses antipodal ones
        return [((p, sp), (x, 2.0 * x))], bad

    @staticmethod
    def one():
        return (make_param(-0.6), Space.euclidean(3)), (np.array([0.3, 0.5, 1.0]),
                                                        np.array([0.2, -0.4, 0.7]))

    @staticmethod
    def stacks():
        p, sp = make_param(0.4), Space.euclidean(3)
        X = np.array([[0.3, 0.5, 1.0], [0.2, -0.4, 0.7]])
        # one x against a stack of y, and a collinear row
        return [((p, sp), (X, X[::-1])), ((p, sp), (X[:1], X[1:])), ((p, sp), (X[0], X)),
                ((p, sp), (X, 2.0 * X))]

    @staticmethod
    def shared(rng):
        p, sp = make_param(0.8), rand_space(3, rng)
        return (p, sp), [(rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]


MEMO_CASES = [_Forms, _Gram, _Cartan, _N2]
memo_cases = pytest.mark.parametrize("case", MEMO_CASES, ids=[c.name for c in MEMO_CASES])
STACKED_CASES = [c for c in MEMO_CASES if c.stacks()]


@memo_cases
@pytest.mark.parametrize("n", [2, 3, 5])
def test_memo_hit_equals_a_fresh_evaluation(rng, monkeypatch, case, n):
    # a hit hands back what a fresh evaluation on equal, new objects gives,
    # bit for bit
    evaluations = count_memo(monkeypatch, case.name)[1]
    for identity in (True, False):
        sp = rand_space(n, rng, identity=identity)
        for objects, args in case.inputs(sp, rng):
            evaluations[0] = 0
            first = case.run(objects, args)
            again = case.copy(args)
            hit = case.run(objects, again)
            assert evaluations[0] == 1 and case.shares(hit, first, again)
            equal = case.equal_objects(objects)
            fresh = [case.run(other, args) for other in equal]
            assert evaluations[0] == 1 + len(equal)
            for f in fresh:
                assert _same(f, hit) and _same(first, hit)
            case.check_hit(hit, objects, args)


@memo_cases
def test_memo_keeps_no_failure(monkeypatch, case):
    # every refused input is refused again, and leaves the memo as it was
    calls, evaluations = count_memo(monkeypatch, case.name)
    good, bad = case.failures()
    for objects, args in good:
        case.run(objects, args)
    stored = case.memo().entries
    calls[0] = evaluations[0] = 0
    for objects, args, err in bad:
        for _ in range(2):
            with pytest.raises(err):
                case.run(objects, args)
        assert case.memo().entries is stored
    assert evaluations[0] == calls[0]  # no refused call is a hit
    for objects, args in good:
        case.run(objects, args)
    assert evaluations[0] == calls[0] - len(good)


@memo_cases
def test_memo_sees_a_vector_changed_in_place(monkeypatch, case):
    evaluations = count_memo(monkeypatch, case.name)[1]
    objects, args = case.one()
    before = case.run(objects, args)
    args[-1][1] = 0.9
    after = case.run(objects, args)
    assert evaluations[0] == 2 and not _same(after, before)
    fresh = case.run(case.equal_objects(objects)[0], tuple(a.copy() for a in args))
    assert _same(after, fresh)


@pytest.mark.parametrize("case", STACKED_CASES, ids=[c.name for c in STACKED_CASES])
def test_stacks_bypass_the_memo(monkeypatch, case):
    # and hand back writable arrays, as no hit shares them
    evaluations = count_memo(monkeypatch, case.name)[1]
    stacks = case.stacks()
    for k in range(3):
        for objects, args in stacks:
            assert all(leaf.flags.writeable for leaf in leaves(case.run(objects, args)))
        assert evaluations[0] == len(stacks) * (k + 1)
    assert case.memo().entries == ()


@memo_cases
def test_memo_under_concurrent_threads(rng, case):
    # threads sharing the key objects, each cycling over its own inputs with
    # a short switch interval: every result is the one of its own input
    objects, inputs = case.shared(rng)
    fresh = case.equal_objects(objects)[0]
    want = [case.run(fresh, args) for args in inputs]
    wrong = []

    def work(k):
        for i in range(600):
            j = (3 * k + i % 3) % len(inputs)
            result = case.run(objects, inputs[j])
            if not _same(result, want[j]) or not case.holds_callers_arrays(result, inputs[j]):
                wrong.append(j)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_memo_keeps_the_newest_entries():
    a, b = object(), object()
    memo = core._Memo(2)
    for data in (b"1", b"2", b"3"):
        memo.put(a, None, data, data.decode())
    assert [entry[2] for entry in memo.entries] == [b"3", b"2"]
    assert memo.get(a, None, b"1") is None and memo.get(a, None, b"2") == "2"
    # objects are compared by identity, both of them
    assert memo.get(b, None, b"3") is None and memo.get(a, b, b"3") is None
    memo.put(a, b, b"4", "4")
    assert memo.get(a, b, b"4") == "4" and memo.get(b, a, b"4") is None


def test_every_memo_is_the_helper():
    # no module keeps state through a global statement, and every
    # module-level memo is a core._Memo: a hand-written one fails here
    root = pathlib.Path(fd.__file__).parent
    memos = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Global)], path.name
        module = importlib.import_module(f"finsleroid.{path.stem}" if path.stem != "__init__"
                                         else "finsleroid")
        for name, value in vars(module).items():
            if "memo" in name.lower() and value is not core._Memo:
                assert isinstance(value, core._Memo), (path.name, name)
                memos.append(f"{path.stem}.{name}")
    assert sorted(set(memos)) == ["core._forms_memo", "core._gram_memo", "tensors._cartan_memo",
                                  "twovector._n2_memo"]


# The raises of a typed refusal outside core.refuse: the checks of one
# input that has no row mask, a spatial direction, a base frame and a chart
# point.
ONE_INPUT_REFUSALS = {"shape.indicatrix_point", "quasieuclid.checked_base_frame",
                      "quasieuclid.sphere_curvature"}


def test_every_refusal_is_the_helper():
    # a typed refusal is raised in core.refuse, which names the rows of its
    # mask and their measure, and in the three checks of one input alone:
    # `if any_row(mask): raise Error(message)` fails here, and so does a
    # raise of anything but a builtin exception class (an error held in a
    # variable, a bare re-raise) in any other function
    root = pathlib.Path(fd.__file__).parent
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, BaseException)):
                found.add(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None)
    assert found == ONE_INPUT_REFUSALS | {"core.refuse"}


# The functions outside core.py that multiply a vector by r: the chart
# point of sphere_curvature is an (N-1)-vector of a graph chart, not a
# vector of its Space, which may be None.
R_PRODUCTS_OUTSIDE_CORE = {"quasieuclid.sphere_curvature"}


def test_every_product_with_r_goes_through_space():
    # a vector meets r_full or r_spatial only in core.Space (lower,
    # spatial_norm, dot and gram), where each row of a stack is summed as
    # one vector is: an @, or a product function such as np.matvec,
    # np.vecmat, np.einsum or np.dot, with r or a local name bound to it
    # fails here outside core.py
    r_attrs = {"r_full", "r_spatial"}
    products = {"matvec", "vecmat", "einsum", "dot", "matmul", "inner", "tensordot"}

    def names_r(node):
        return any(isinstance(n, ast.Attribute) and n.attr in r_attrs for n in ast.walk(node))

    root = pathlib.Path(fd.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            bound = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and names_r(n.value)
                     for t in n.targets if isinstance(t, ast.Name)}

            def is_r(node):
                return names_r(node) or any(isinstance(n, ast.Name) and n.id in bound
                                            for n in ast.walk(node))
            for n in ast.walk(fn):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult):
                    operands = [n.left, n.right]
                elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr in products):
                    operands = [n.func.value, *n.args]
                else:
                    continue
                if any(is_r(x) for x in operands):
                    found.add(f"{path.stem}.{fn.name}")
    assert found == R_PRODUCTS_OUTSIDE_CORE


def test_gram_keeps_its_range_while_the_products_are_finite():
    # u, the near-parallel branch test and the collinear test are products
    # that stay finite while |x| |y| does: scaled by powers of two, so that
    # every step scales exactly, a pair gives the Gram record of its unit
    # scale, bit for bit, where |x|^2 |y|^2 or |x|^2 |perp|^2 overflows (at
    # the parent, a wrong angle of pi/2 and a collinear flag). Warnings are
    # errors, so no product overflows on the way
    sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
    x, e = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
    for y in (e, 1.7 * x + 1e-6 * e, -x + 1e-9 * e):
        want = sp.gram(x, y)
        for kx, ky in ((500, 33), (260, 260), (33, 500), (-300, 500)):
            X, Y = x * 2.0 ** kx, y * 2.0 ** ky
            for got in (sp.gram(X, Y), sp.gram(X[None], Y[None])):
                assert np.all(got.angle == want.angle) and np.all(got.collinear == want.collinear)
                assert np.all(got.u == want.u * 2.0 ** (kx + ky))


def test_gram_memo_hit_returns_the_callers_arrays():
    sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
    x, y = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
    sp.gram(x, y)
    x2, y2 = x.copy(), y.copy()
    hit = sp.gram(x2, y2)
    assert hit.x is x2 and hit.y is y2
    # a list is converted as check_vector would, on a hit too
    listed = sp.gram(list(x), list(y))
    assert listed.perp is hit.perp and listed.x.tobytes() == x.tobytes()


def test_gram_memo_keys_the_space_by_identity(monkeypatch):
    evaluations = count_memo(monkeypatch, "gram")[1]
    r = [[1.5, 0.2], [0.2, 0.8]]
    x, y = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
    for _ in range(2):
        Space(3, r).gram(x, y)
    assert evaluations[0] == 2
    sp = Space(3, r)
    sp.gram(x, y)
    sp.gram(x, y)
    assert evaluations[0] == 3


def test_gram_memo_perp_is_read_only():
    sp = Space.euclidean(3)
    x, y = np.array([0.3, 0.5, 1.0]), np.array([0.2, -0.4, 0.7])
    for pair in (sp.gram(x, y), sp.gram(x, y)):
        with pytest.raises(ValueError):
            pair.perp[0] = 1.0
    assert core._gram_memo.entries[0][3][0].flags.writeable is False


@pytest.mark.parametrize("g", [0.0, 0.7])
def test_cartan_memo_serves_curvature_S(rng, monkeypatch, g):
    # curvature_S after cartan on the same vector builds no tensor anew;
    # the arrays cartan returns are the stored, read-only ones, zero at g = 0
    calls, evaluations = count_memo(monkeypatch, "cartan")
    p, sp = make_param(g), rand_space(4, rng)
    R = rand_vec(p, sp, rng)
    ct = fd.cartan(p, sp, R)
    curv = fd.curvature_S(p, sp, R)
    assert (calls[0], evaluations[0]) == (2, 1)
    stored_ct, stored_h = tensors._cartan_memo.entries[0][3]
    assert stored_ct is ct and not stored_h.flags.writeable
    assert _same(curv, fd.curvature_S(make_param(g), sp, R))
    for a in _fields(ct):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert (np.count_nonzero(ct.full) == 0) == (g == 0.0)


def test_stacked_cartan_returns_writable_arrays(rng):
    p, sp = make_param(-0.9), rand_space(3, rng)
    X = np.stack([rand_vec(p, sp, rng) for _ in range(3)])
    stored = tensors._cartan_memo.entries
    ct = fd.cartan(p, sp, X)
    for a in _fields(ct):
        assert a.flags.writeable
        a[0] = 0.0
    assert tensors._cartan_memo.entries is stored
    # each row equals the one-vector tensors, bit for bit
    ct = fd.cartan(p, sp, X)
    for i in range(3):
        assert _same(fd.CartanTensors(*(a[i] for a in _fields(ct))), fd.cartan(p, sp, X[i]))


def test_pair_geometry_sequence_makes_two_gram_evaluations(monkeypatch):
    # the calls of one pair_geometry op: fins_angle evaluates the pair of the
    # sigma images and perpendicular_companion R with its seed; g2, connect,
    # n2, covector_pair and parallelogram_exact on the sigma images are hits,
    # as qe_geodesic_at makes no call. The n2 call on the sigma images finds
    # the tensor that g2 pulled back, and the three angles of the images are
    # one number
    calls, evaluations = count_memo(monkeypatch, "gram")
    n2_calls, n2_evaluations = count_memo(monkeypatch, "n2")
    sp = Space.euclidean(3)
    R, S = np.array([0.3, 0.5, 1.0]), np.array([0.6, -0.2, 0.9])
    for g in (-1.3, 0.0, 0.4, 1.7):
        p = make_param(g)
        calls[0] = evaluations[0] = n2_calls[0] = n2_evaluations[0] = 0
        ap = fd.fins_angle(p, sp, R, S)
        fd.g2(p, sp, R, S)
        t1, t2 = fd.sigma(p, sp, R), fd.sigma(p, sp, S)
        bd = connect(p, t1, t2)
        fd.qe_geodesic_at(bd, 0.5 * bd.delta_s)
        fd.n2(p, t1, t2)
        fd.covector_pair(p, t1, t2)
        fd.parallelogram_exact(p, t1, t2)
        fd.perpendicular_companion(p, sp, R)
        assert (calls[0], evaluations[0]) == (7, 2)
        assert (n2_calls[0], n2_evaluations[0]) == (2, 1)
        assert bd.t1 is t1 and bd.t2 is t2
        alpha = fd.qe_angle(p, t1, t2)
        assert type(alpha) is float and ap.alpha == bd.alpha == alpha


def test_stacked_difference_gradients_make_one_gram_evaluation(rng, monkeypatch):
    # stacks bypass the memo, so the covector pair is built on the Gram
    # record that difference_gradients checked, not on one of its own
    calls, evaluations = count_memo(monkeypatch, "gram")
    sp = rand_space(3, rng)
    P = make_param(rng.uniform(-1.5, 1.5, size=40))
    T1, T2 = rng.normal(size=(2, 40, 3))
    out = fd.difference_gradients(P, T1, T2, space=sp)
    assert (calls[0], evaluations[0]) == (1, 1)
    want = fd.covector_pair(P, T1, T2, space=sp)
    assert np.array_equal(out["b1"], T1 - want[0]) and np.array_equal(out["b2"], T2 - want[1])


def test_dot_and_norm_over_stacks(rng):
    # one formula over (..., N): row by row the one-pair floats, bit for bit
    for n in (2, 3, 5):
        sp = rand_space(n, rng)
        X, Y = rng.normal(size=(2, 4, n)), rng.normal(size=(2, 4, n))
        dots, norms = sp.dot(X, Y), sp.norm(X)
        assert dots.shape == norms.shape == (2, 4)
        for i in np.ndindex(2, 4):
            assert type(sp.dot(X[i], Y[i])) is float and type(sp.norm(X[i])) is float
            assert dots[i] == sp.dot(X[i], Y[i])
            assert norms[i] == sp.norm(X[i]) == pytest.approx(math.sqrt(X[i] @ sp.r_full @ X[i]))


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


# the functions of ONE_VECTOR whose stacked rows go through Space.gram, whose
# math path for one pair can differ from the stacked formula in the last bit
THROUGH_GRAM = {"perpendicular_companion"}
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
    # the name, kept so the test ids stay, is that of the check this
    # replaced: these functions once refused a stack. A (2, N) or (1, N)
    # stack gives the rows' results, bit for bit, and within 1e-14 of each
    # leaf's scale for THROUGH_GRAM. At g = 0 the second row lies on the
    # axis, where equator_angle raises DegenerateVector for the row and for
    # the stack alike
    fn = getattr(fd, name)
    sp = Space(3, [[1.5, 0.2], [0.2, 0.8]])
    X04 = np.array([[0.3, 0.5, 1.0], [0.2, -0.4, 0.7]])
    X00 = np.array([[0.3, 0.5, 1.0], [0.0, 0.0, 0.7]])
    for p, X in ((make_param(0.4), X04), (make_param(0.4), X04[:1]),
                 (make_param(0.0), X00), (make_param(0.0), X00[:1])):
        if name == "equator_angle" and not np.all(X[:, :-1].any(axis=-1)):
            with pytest.raises(DegenerateVector):
                fn(p, sp, X[-1])
            with pytest.raises(DegenerateVector):
                fn(p, sp, X)
            continue
        got = leaves(fn(p, sp, X))
        for i, row in enumerate(X):
            want = leaves(fn(p, sp, row))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                # a 0-d leaf is shared by every row (n_metric's det at a float g)
                a = a if a.ndim == 0 else a[i]
                assert a.dtype == b.dtype
                if name in THROUGH_GRAM:
                    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
                else:
                    assert a.tobytes() == b.tobytes()  # signs of zeros too


@pytest.mark.parametrize("g", [np.array([0.4]), np.array([0.4, 0.5])])
def test_one_vector_refuses_an_array_of_g(g):
    # one vector takes one g: a ValueError naming both shapes, and no warning
    P, sp = make_param(g), Space(3, [[1.5, 0.2], [0.2, 0.8]])
    R = np.array([0.3, 0.5, 1.0])
    calls = (lambda: scalar_forms(P, sp, R), lambda: fd.metric(P, sp, R),
             lambda: fd.sigma(P, sp, R), lambda: fd.fins_angle(P, sp, R, 2.0 * R + 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=rf"shape \(3,\).* shape \({len(g)},\)"):
                call()

"""Tests of the benchmark's reference, made without the finsleroid package.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref

RNG = np.random.default_rng(20260402)
SPD = np.array([[2.0, 0.3], [0.3, 0.7]])


def _vectors(n, dim=3):
    return [v for v in RNG.normal(size=(n, dim)) if np.linalg.norm(v[:-1]) > 0.2]


@pytest.mark.parametrize("r", [np.eye(2), SPD])
def test_euclidean_limit_is_exact(r):
    for R in _vectors(20):
        S = RNG.normal(size=3)
        euclid = math.sqrt(R[:-1] @ r @ R[:-1] + R[-1] ** 2)
        assert ref.K(0.0, r, R) == pytest.approx(euclid, rel=1e-15)
        assert np.array_equal(ref.sigma_image(0.0, r, R), R)
        alpha, product, ominus_sq = ref.pair(0.0, r, R, S)
        dot = R[:-1] @ r @ S[:-1] + R[-1] * S[-1]
        assert product == pytest.approx(dot, rel=1e-14, abs=1e-14)
        d = R - S
        assert ominus_sq == pytest.approx(d[:-1] @ r @ d[:-1] + d[-1] ** 2, rel=1e-13)
        r_full = np.eye(3)
        r_full[:-1, :-1] = r
        hess = ref.hessian_half_sq(lambda x: ref.K(0.0, r, x), R)
        assert np.max(np.abs(hess - r_full)) < 1e-7
        mixed = ref.mixed_hessian(lambda x, y: ref.scalar_product(0.0, r, x, y), R, S)
        assert np.max(np.abs(mixed - r_full)) < 1e-7


@pytest.mark.parametrize("g", [-1.7, -0.6, 0.4, 1.2, 1.9])
@pytest.mark.parametrize("r", [np.eye(2), SPD])
def test_dual_norm_is_the_mirror(g, r):
    """H(g; X) = K(-g; X) on covectors (inverse spatial metric) is the dual
    norm: at X = d(K^2/2)/dR it returns K(R)."""
    r_inv = np.linalg.inv(r)
    for R in _vectors(10):
        # a first difference has no 1/step^2 rounding term, so its step can
        # be small enough for the steep directions near |g| = 2
        step = 1e-6 * np.linalg.norm(R)
        X = np.array([(ref.K(g, r, R + step * e) ** 2 - ref.K(g, r, R - step * e) ** 2)
                      / (4.0 * step) for e in np.eye(3)])
        assert ref.K(-g, r_inv, X) == pytest.approx(ref.K(g, r, R), rel=1e-8)


@pytest.mark.parametrize("g", [-1.5, 0.4, 1.9])
def test_image_norm_and_angle_laws(g):
    for R in _vectors(10):
        t = ref.sigma_image(g, SPD, R)
        assert ref.K(0.0, SPD, t) == pytest.approx(ref.K(g, SPD, R), rel=1e-14)
        assert ref.pair(g, SPD, R, 2.5 * R)[0] == pytest.approx(0.0, abs=1e-7)
        # K is 1-homogeneous and Euler's identity holds for the FD Hessian
        hess = ref.hessian_half_sq(lambda x: ref.K(g, SPD, x), R)
        scale = np.max(np.abs(hess)) * (R @ R)
        assert abs(R @ hess @ R - ref.K(g, SPD, R) ** 2) < 1e-7 * scale


def test_widest_point_lies_on_the_unit_body():
    for g in (-1.9, -0.4, 0.0, 0.6, 1.9):
        q, Z = ref.widest_point(g)
        assert ref.unit_level_rows(g, np.array([q]), np.array([Z]))[0] == pytest.approx(1.0, abs=1e-15)
        # no wider point on the body: sample the generatrix densely
        f = np.linspace(0.0, math.pi, 20001)
        h, G = ref.h_of(g), g / ref.h_of(g)
        qs = np.sin(f) / h * np.exp(0.5 * G * (f - 0.5 * math.pi))
        assert qs.max() <= q * (1 + 1e-12)

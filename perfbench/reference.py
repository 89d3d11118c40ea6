"""Independent reference for the benchmark's output checks.

Written from the closed forms of the Finsleroid geometry (arXiv
math/0402013), apart from the ``finsleroid`` package, which this module
never imports. Every function takes numpy arrays with the axial component
last and broadcasts over leading axes, so one batch call serves a whole
CSV or a finite-difference stencil.

g is the characteristic parameter, r the (N-1)x(N-1) spatial metric.
"""

from __future__ import annotations

import math

import numpy as np

# Relative finite-difference step. Each step is scaled by the norm of the
# point it perturbs: a fixed absolute step is swamped by rounding at |R| ~ 3
# and by truncation at |R| ~ 0.1. At 1e-4 both errors are near 1e-8.
FD_STEP = 1e-4


def h_of(g: float) -> float:
    return math.sqrt(1.0 - 0.25 * g * g)


def forms(g: float, r: np.ndarray, R: np.ndarray):
    """(q, A, B, J, K) of R: spatial norm, axial combination, quadratic
    form, exponential factor and metric function K = sqrt(B) exp(G Phi/2)
    with Phi = atan2(A, h q)."""
    R = np.asarray(R, dtype=float)
    Rs, Z = R[..., :-1], R[..., -1]
    q2 = np.einsum("...a,ab,...b->...", Rs, r, Rs)
    q = np.sqrt(q2)
    h = h_of(g)
    B = Z * Z + g * q * Z + q2
    A = Z + 0.5 * g * q
    J = np.exp(0.5 * (g / h) * np.arctan2(A, h * q))
    return q, A, B, J, np.sqrt(B) * J


def K(g: float, r: np.ndarray, R: np.ndarray):
    return forms(g, r, R)[4]


def sigma_image(g: float, r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Image (h J R^a, A J) of R in the quasi-Euclidean picture."""
    R = np.asarray(R, dtype=float)
    _, A, _, J, _ = forms(g, r, R)
    t = np.empty(R.shape)
    t[..., :-1] = R[..., :-1] * (h_of(g) * J)[..., None]
    t[..., -1] = A * J
    return t


def euclid_coords(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Coordinates in which the background metric diag(r, 1) is the identity."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    out[..., :-1] = t[..., :-1] @ np.linalg.cholesky(r)
    out[..., -1] = t[..., -1]
    return out


def euclid_angle(x: np.ndarray, y: np.ndarray):
    """Angle between x and y in [0, pi], by Kahan's formula
    2 atan2(| |y| x - |x| y |, | |y| x + |x| y |), accurate at 0 and pi."""
    nx = np.linalg.norm(x, axis=-1)[..., None]
    ny = np.linalg.norm(y, axis=-1)[..., None]
    return 2.0 * np.arctan2(np.linalg.norm(ny * x - nx * y, axis=-1),
                            np.linalg.norm(ny * x + nx * y, axis=-1))


def image_angle(g: float, r: np.ndarray, t1: np.ndarray, t2: np.ndarray):
    """Angle of two image-space points: their Euclidean angle divided by h."""
    return euclid_angle(euclid_coords(r, t1), euclid_coords(r, t2)) / h_of(g)


def pair(g: float, r: np.ndarray, R: np.ndarray, S: np.ndarray):
    """(alpha, scalar product, squared two-point length) of R and S from the
    angle of their sigma images and the cosine theorem."""
    K1, K2 = K(g, r, R), K(g, r, S)
    alpha = image_angle(g, r, sigma_image(g, r, R), sigma_image(g, r, S))
    c = np.cos(alpha)
    return alpha, K1 * K2 * c, K1 * K1 + K2 * K2 - 2.0 * K1 * K2 * c


def scalar_product(g: float, r: np.ndarray, R: np.ndarray, S: np.ndarray):
    return pair(g, r, R, S)[1]


def image_scalar_product(g: float, r: np.ndarray, t1: np.ndarray, t2: np.ndarray):
    """|t1| |t2| cos(alpha) of two image-space points."""
    e1, e2 = euclid_coords(r, t1), euclid_coords(r, t2)
    return (np.linalg.norm(e1, axis=-1) * np.linalg.norm(e2, axis=-1)
            * np.cos(euclid_angle(e1, e2) / h_of(g)))


def _unit_steps(x: np.ndarray) -> np.ndarray:
    """Rows e_i * FD_STEP * |x|, one per component."""
    return np.eye(len(x)) * (FD_STEP * float(np.linalg.norm(x)))


def hessian_half_sq(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of fn(x)^2 / 2 (fn broadcasts over rows)."""
    x = np.asarray(x, dtype=float)
    e = _unit_steps(x)
    s = e[0, 0]
    pp = x + e[:, None, :] + e[None, :, :]
    pm = x + e[:, None, :] - e[None, :, :]
    mm = x - e[:, None, :] - e[None, :, :]
    f = lambda y: 0.5 * fn(y) ** 2
    return (f(pp) - f(pm) - f(pm.transpose(1, 0, 2)) + f(mm)) / (4.0 * s * s)


def mixed_hessian(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Central-difference d^2 fn(x, y) / dx^p dy^q (fn broadcasts over rows)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ex, ey = _unit_steps(x), _unit_steps(y)
    n = len(x)
    xp = np.broadcast_to((x + ex)[:, None, :], (n, n, n))
    xm = np.broadcast_to((x - ex)[:, None, :], (n, n, n))
    yp = np.broadcast_to((y + ey)[None, :, :], (n, n, n))
    ym = np.broadcast_to((y - ey)[None, :, :], (n, n, n))
    return ((fn(xp, yp) - fn(xp, ym) - fn(xm, yp) + fn(xm, ym))
            / (4.0 * ex[0, 0] * ey[0, 0]))


def unit_level_rows(g: float, q: np.ndarray, Z: np.ndarray):
    """K(q, Z) of plane points with r = 1: 1 for rows on the unit body."""
    return K(g, np.eye(1), np.column_stack([q, Z]))


def widest_point(g: float):
    """(q_2star, Z_2star): the widest point of the unit body lies where the
    profile slope dZ/dq = -q / (Z + g q) is infinite, on the ray Z = -g q;
    K is 1-homogeneous, so the ray meets K = 1 at 1 / K(1, -g)."""
    q = 1.0 / float(K(g, np.eye(1), np.array([1.0, -g])))
    return q, -g * q

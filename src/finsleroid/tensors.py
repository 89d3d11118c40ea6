"""Tensor stack: gradient covector, metric tensor and inverse, angular
tensor, Cartan tensor, and the algebraic curvature tensor.

All tensors are dense numpy arrays with the axial slot stored last.
Index conventions for mixed objects are spelled out per function.

Every public function takes one vector R of shape (N,) or vectors stacked
along leading axes, shape (..., N), with one implementation: a tensor of
shape T at one vector is an array of shape R.shape[:-1] + T for a stack,
and a scalar an array of shape R.shape[:-1]. The Param may hold one g per
row (make_param of an array of g). One vector at a float g gives (N,) and
(N, N) arrays and Python floats.

Each public function evaluates the scalar forms of its vector once and
hands them to private builders, which take the checked vector R and its
forms f. The Cartan tensor is built from the algebraic form that the
constant curvature of the indicatrix implies (see cartan). The g = 0
shortcuts (r_pq, zero Cartan tensors) hold row by row, and a row on the
axis raises AxisSingular unless its g is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (Param, Space, axial, fill_rows, g_zero_rows, half_G_angle,
                   per_row, require_off_axis, require_tensor_range, scalar_forms,
                   write_rows)

__all__ = [
    "grad_covector",
    "metric",
    "metric_inverse",
    "metric_det",
    "angular",
    "cartan",
    "CartanTensors",
    "curvature_S",
    "CurvatureS",
]


def _checked(p: Param, sp: Space, R: np.ndarray, power: int, what: str):
    """R as a float array and its scalar forms, for a tensor built on J^power:
    a row on the axis with g != 0 raises AxisSingular, and ConeLimit is
    raised where the tensor would leave the normal doubles."""
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    require_off_axis(p, f, what)
    require_tensor_range(p, f, power)
    return R, f


def _grad_covector(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    k = f.K * f.K / f.B
    out = np.empty(R.shape)
    out[..., :-1] = (R[..., :-1] @ sp.r_spatial) * per_row(k)
    out[..., -1] = (axial(R) + p.g * f.q) * k
    return out


def grad_covector(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Covector R_p = (1/2) d K^2 / d R^p. Satisfies R_p R^p = K^2."""
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    require_tensor_range(p, f, 2)
    return _grad_covector(p, sp, R, f)


def _metric(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    """g_pq of shape R.shape + (N,) at the checked R off the axis; r_pq on
    the g = 0 rows."""
    z, q = g_zero_rows(p, f.q)
    if z is True:
        return fill_rows(R, sp.r_full)
    # products, not **2: float ** 2 can differ from numpy's square by an ulp
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    k = K2 / (B * B)
    Zgq = Z + g * q
    rR = R[..., :-1] @ sp.r_spatial
    out = np.empty(R.shape + R.shape[-1:])
    out[..., -1, -1] = (Zgq * Zgq + q * q) * k
    out[..., -1, :-1] = out[..., :-1, -1] = per_row(g * q * k) * rR
    out[..., :-1, :-1] = (per_row(K2 / B, 2) * sp.r_spatial
                          - (per_row(g * Z / q * k) * rR)[..., :, None] * rR[..., None, :])
    write_rows(z, R, out, sp.r_full)
    return out


def metric(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Metric tensor g_pq = (1/2) d^2 K^2 / dR^p dR^q. A row on the axis
    raises AxisSingular for g != 0; at g = 0 the metric is r_pq."""
    R, f = _checked(p, sp, R, 2, "metric")
    return _metric(p, sp, R, f)


def _metric_inverse(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    """g^pq of shape R.shape + (N,) at the checked R off the axis; r^pq on
    the g = 0 rows."""
    z, q = g_zero_rows(p, f.q)
    if z is True:
        return fill_rows(R, sp.r_full_inv)
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    Rs = R[..., :-1]
    out = np.empty(R.shape + R.shape[-1:])
    out[..., -1, -1] = (Z * Z + q * q) / K2
    out[..., -1, :-1] = out[..., :-1, -1] = per_row(-g * q / K2) * Rs
    out[..., :-1, :-1] = (per_row(B / K2, 2) * sp.r_spatial_inv
                          + (per_row(g * (Z + g * q) / (q * K2)) * Rs)[..., :, None]
                          * Rs[..., None, :])
    write_rows(z, R, out, sp.r_full_inv)
    return out


def metric_inverse(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Reciprocal tensor g^pq with g_pq g^qr = delta; r^pq at g = 0."""
    R, f = _checked(p, sp, R, 2, "metric inverse")
    return _metric_inverse(p, sp, R, f)


def metric_det(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """det(g_pq) in closed form: J^(2N) det(r_ab). Always positive; raises
    ConeLimit where J^(2N) would leave the normal doubles."""
    f = scalar_forms(p, sp, R)
    half_G_angle(p, f.Phi, 2 * sp.dim)  # for its range check only
    return f.J ** (2 * sp.dim) * sp.r_spatial_det


def _angular(p: Param, sp: Space, R: np.ndarray, f, Rlow: np.ndarray) -> np.ndarray:
    return (_metric(p, sp, R, f)
            - Rlow[..., :, None] * Rlow[..., None, :] / per_row(f.K * f.K, 2))


def angular(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Angular tensor h_pq = g_pq - R_p R_q / K^2; annihilates R^q."""
    R, f = _checked(p, sp, R, 4, "angular tensor")
    return _angular(p, sp, R, f, _grad_covector(p, sp, R, f))


@dataclass(frozen=True)
class CartanTensors:
    """Cartan tensor in all four shapes.

    full[p, q, r]  = C_pqr (totally symmetric)
    mixed[p, q, r] = C_p^q_r = g^{qs} C_psr
    covector[p]    = C_p = C_pqr g^{qr}
    vector[p]      = C^p = g^{pq} C_q
    """

    full: np.ndarray
    mixed: np.ndarray
    covector: np.ndarray
    vector: np.ndarray


def _cartan(p: Param, sp: Space, R: np.ndarray,
            f) -> tuple[CartanTensors, np.ndarray]:
    """The Cartan tensors at R off the axis or at g = 0, and the angular
    tensor h_pq. With C_p = (N g / 2) v_p, C^p = (N g / 2) v^p and
    v_p v^p = 1 / K^2, the form reads
    C_pqr = (g / 2)(h_pq v_r + h_pr v_q + h_qr v_p - K^2 v_p v_q v_r);
    raising q turns h_pq into h_p^q = delta_p^q - R_p R^q / K^2."""
    n = sp.dim
    Rlow = _grad_covector(p, sp, R, f)
    h = _angular(p, sp, R, f, Rlow)
    z, q = g_zero_rows(p, f.q)
    if z is True:
        z3 = np.zeros(R.shape + (n, n))
        return CartanTensors(z3, z3.copy(), np.zeros(R.shape), np.zeros(R.shape)), h
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    h_mixed = np.eye(n) - Rlow[..., :, None] * R[..., None, :] / per_row(K2, 2)
    v_low = np.empty(R.shape)
    v_low[..., :-1] = (R[..., :-1] @ sp.r_spatial) * per_row(-Z / (q * B))
    v_low[..., -1] = q / B
    v_up = np.empty(R.shape)
    v_up[..., :-1] = R[..., :-1] * per_row(-(Z + g * q) / (q * K2))
    v_up[..., -1] = q / K2
    # index swaps of the last three axes: [p, q, r] -> [p, r, q] and [q, r, p]
    lead = tuple(range(R.ndim - 1))
    d = len(lead)
    swap_qr, cycle = lead + (d, d + 2, d + 1), lead + (d + 2, d, d + 1)
    c, K2_3 = per_row(0.5 * g, 3), per_row(K2, 3)
    v_r = v_low[..., None, None, :]
    hv = h[..., :, :, None] * v_r
    full = c * (hv + hv.transpose(swap_qr) + hv.transpose(cycle)
                - K2_3 * (v_low[..., :, None] * v_low[..., None, :])[..., None] * v_r)
    mixed = c * (h_mixed[..., :, :, None] * v_r
                 + (h[..., :, :, None] * v_up[..., None, None, :]
                    + v_low[..., :, None, None] * h_mixed[..., None, :, :]).transpose(swap_qr)
                 - K2_3 * (v_low[..., :, None] * v_up[..., None, :])[..., None] * v_r)
    cn = per_row(0.5 * n * g)
    ct = CartanTensors(full=full, mixed=mixed, covector=cn * v_low, vector=cn * v_up)
    for part in (ct.full, ct.mixed, ct.covector, ct.vector):
        write_rows(z, R, part, 0.0)
    return ct, h


def cartan(p: Param, sp: Space, R: np.ndarray) -> CartanTensors:
    """Cartan tensor C_pqr = (1/2) d g_pq / d R^r plus mixed and traced forms.

    Built from the algebraic form, with the angular tensor h_pq and the
    closed forms of C_p and C^p, which carry no 1/w factors (w = q/Z):
    C_pqr = (1/N)(h_pq C_r + h_pr C_q + h_qr C_p - C_p C_q C_r / C^2) and
    C^2 = C_p C^p = N^2 g^2 / (4 K^2). Valid for every q > 0, the
    equatorial plane Z = 0 included; zero at g = 0, AxisSingular on the
    axis otherwise.
    """
    R, f = _checked(p, sp, R, 4, "Cartan tensor")
    return _cartan(p, sp, R, f)[0]


@dataclass(frozen=True)
class CurvatureS:
    """Algebraic curvature tensor S_pqrs and the fitted scalar S*.

    The indicatrix carries constant curvature 1 + S* = h^2.
    """

    tensor: np.ndarray
    s_star: Union[float, np.ndarray]


def curvature_S(p: Param, sp: Space, R: np.ndarray) -> CurvatureS:
    """S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r and the proportionality
    scalar of its representation S* (h_pr h_qs - h_ps h_qr) / K^2.

    For N = 2 the angular tensor has rank one, so the pair product
    vanishes identically and the fit is empty; S* is then taken from the
    trace identity (equal to -g^2/4 either way).
    """
    R, f = _checked(p, sp, R, 4, "Cartan tensor")
    ct, h = _cartan(p, sp, R, f)
    T = np.einsum("...tqr,...pts->...pqrs", ct.full, ct.mixed)  # S_pqrs = T_pqrs - T_pqsr
    lead = tuple(range(R.ndim - 1))
    d = len(lead)
    swap_rs = lead + (d, d + 1, d + 3, d + 2)
    S = T - T.transpose(swap_rs)
    n, K2 = sp.dim, f.K * f.K
    if n == 2:
        s_star = -np.vecdot(ct.covector, ct.vector) * K2 / n**2
    else:
        hh = h[..., :, None, :, None] * h[..., None, :, None, :]  # h_pr h_qs
        M = ((hh - hh.transpose(swap_rs)) / per_row(K2, 4)).reshape(R.shape[:-1] + (-1,))
        s_star = np.vecdot(S.reshape(M.shape), M) / np.vecdot(M, M)
    return CurvatureS(tensor=S, s_star=float(s_star) if R.ndim == 1 else s_star)

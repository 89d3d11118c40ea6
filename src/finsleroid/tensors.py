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
constant curvature of the indicatrix implies (see cartan). Each builder
runs its one formula on every row and ends in core.write_rows, which sets
the g = 0 rows to their exact values: r_pq, r^pq and zero Cartan tensors.
A row on the axis raises AxisSingular unless its g is 0.

The angular tensor h_pq and the Cartan tensors are built from the forms and
one lowering rho = sp.lower(R), not from g_pq and R_p: metric, cartan,
curvature_S and to_costate on one vector build g_pq once (_metric, in
metric) and R_p once (_grad_covector, in to_costate).

cartan and curvature_S build on the same Cartan tensors, so the tensors of
the last single vector are kept in a one-entry core._Memo, keyed by the
Param and the Space by identity and the bytes of R, with every array made
read-only: curvature_S right after cartan on the same vector builds no
tensor anew. Both still check the vector on every call; stacks bypass the
memo and return writable arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (Param, Space, _Memo, axial, diagonal, g_zero_rows, half_G_angle,
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
    require_off_axis(p, f.q, what)
    require_tensor_range(p, f, power)
    return R, f


def _grad_covector(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    k = f.K * f.K / f.B
    out = sp.lower(R) * per_row(k)
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
    # products, not **2: float ** 2 can differ from numpy's square by an ulp
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    k = K2 / (B * B)
    Zgq = Z + g * q
    rR = sp.lower(R)[..., :-1]
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
    # (J^2)^N as products: float ** k and numpy's power can differ by an ulp
    return math.prod((f.J * f.J,) * sp.dim) * sp.r_spatial_det


def _angular(p: Param, sp: Space, R: np.ndarray, f, rho: np.ndarray) -> np.ndarray:
    """h_pq of shape R.shape + (N,) at the checked R off the axis or at g = 0,
    from the forms and rho = sp.lower(R). With R_p = (K^2/B)(rho_a; Z + g q),
    g_pq - R_p R_q / K^2 reads (K^2/B^2)(B r_ab - ((q + g Z)/q) rho_a rho_b;
    -Z rho_a; q^2). Only the 1/q takes the q of g_zero_rows, so an axis row
    at g = 0 gets r_pq - R_p R_q / K^2 (h_NN = 0)."""
    q = g_zero_rows(p, f.q)[1]
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    k = K2 / (B * B)
    rs = rho[..., :-1]
    out = np.empty(R.shape + R.shape[-1:])
    out[..., -1, -1] = f.q * f.q * k
    out[..., -1, :-1] = out[..., :-1, -1] = per_row(-Z * k) * rs
    out[..., :-1, :-1] = (per_row(K2 / B, 2) * sp.r_spatial
                          - (per_row((f.q + g * Z) / q * k) * rs)[..., :, None] * rs[..., None, :])
    return out


def angular(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Angular tensor h_pq = g_pq - R_p R_q / K^2; annihilates R^q."""
    R, f = _checked(p, sp, R, 4, "angular tensor")
    return _angular(p, sp, R, f, sp.lower(R))


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


# (CartanTensors, h) of the last single vector, keyed by p, sp and the bytes
# of R: one entry, as cartan and curvature_S on one vector come one after
# another.
_cartan_memo = _Memo(1)


def _cartan(p: Param, sp: Space, R: np.ndarray,
            f) -> tuple[CartanTensors, np.ndarray]:
    """The Cartan tensors at the checked R off the axis or at g = 0, and the
    angular tensor h_pq; for one vector the read-only arrays of the memo."""
    if R.ndim != 1:
        return _cartan_tensors(p, sp, R, f)
    key = R.tobytes()
    stored = _cartan_memo.get(p, sp, key)
    if stored is None:
        stored = ct, h = _cartan_tensors(p, sp, R, f)
        for a in (ct.full, ct.mixed, ct.covector, ct.vector, h):
            a.setflags(write=False)  # shared by every hit
        _cartan_memo.put(p, sp, key, stored)
    return stored


def _cartan_tensors(p: Param, sp: Space, R: np.ndarray,
                    f) -> tuple[CartanTensors, np.ndarray]:
    """The Cartan tensors and h_pq, evaluated. With C_p = (N g / 2) v_p,
    C^p = (N g / 2) v^p and v_p v^p = 1 / K^2, the form reads
    C_pqr = (g / 2)(h_pq v_r + h_pr v_q + h_qr v_p - K^2 v_p v_q v_r);
    raising q turns h_pq into h_p^q = delta_p^q - R_p R^q / K^2."""
    n = sp.dim
    rho = sp.lower(R)
    h = _angular(p, sp, R, f, rho)
    z, q = g_zero_rows(p, f.q)
    g, B, K2, Z = p.g, f.B, f.K * f.K, axial(R)
    u = rho.copy()  # R_p = (K^2 / B) u_p
    u[..., -1] = Z + g * q
    h_mixed = np.multiply(u[..., :, None], R[..., None, :], order="C")  # for diagonal
    h_mixed /= per_row(-B, 2)
    diagonal(h_mixed, n)[...] += 1.0  # h_p^q = delta_p^q - u_p R^q / B
    v_low = rho * per_row(-Z / (q * B))
    v_low[..., -1] = q / B
    v_up = np.empty(R.shape)
    v_up[..., :-1] = R[..., :-1] * per_row(-(Z + g * q) / (q * K2))
    v_up[..., -1] = q / K2
    c, K2_2 = per_row(0.5 * g, 3), per_row(K2, 2)
    v_r = v_low[..., None, None, :]
    # C_pqr = c (X_pqr + X_prq + X_qrp) with X_pqr = (h_pq - (K^2/3) v_p v_q) v_r
    X = (h - K2_2 / 3.0 * (v_low[..., :, None] * v_low[..., None, :]))[..., None] * v_r
    X_prq = X.swapaxes(-1, -2)
    full = c * (X + X_prq + X_prq.swapaxes(-2, -3))
    # C_p^q_r = c (Y_pqr + Y_rqp + h_pr v^q) with Y_pqr = (h_p^q - (K^2/2) v_p v^q) v_r
    Y = (h_mixed - 0.5 * K2_2 * (v_low[..., :, None] * v_up[..., None, :]))[..., None] * v_r
    mixed = c * (Y + Y.swapaxes(-1, -3) + h[..., :, None, :] * v_up[..., None, :, None])
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
    axis otherwise. The arrays of one vector are read-only: they are kept
    for the next call on the same vector, curvature_S's included.
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

    The contraction T_pqrs = C_tqr C_p^t_s is one matrix product per row.
    For N = 2 the angular tensor has rank one, so the pair product
    vanishes identically and the fit is empty; S* is then taken from the
    trace identity (equal to -g^2/4 either way).
    """
    R, f = _checked(p, sp, R, 4, "Cartan tensor")
    ct, h = _cartan(p, sp, R, f)
    n, K2 = sp.dim, f.K * f.K
    # T_pqrs = C_p^t_s C_tqr as one product of (ps, t) by (t, qr) per row,
    # which gives U[p, s, q, r] = T_pqrs
    lead = R.shape[:-1]
    U = (ct.mixed.swapaxes(-1, -2).reshape(lead + (n * n, n))
         @ ct.full.reshape(lead + (n, n * n))).reshape(lead + (n,) * 4)
    T = U.swapaxes(-3, -2).swapaxes(-2, -1)
    S = np.subtract(T, T.swapaxes(-1, -2), order="C")  # S_pqrs = T_pqrs - T_pqsr
    if n == 2:
        s_star = -np.vecdot(ct.covector, ct.vector) * K2 / n**2
    else:
        hh = h[..., :, None, :, None] * h[..., None, :, None, :]  # h_pr h_qs
        M = ((hh - hh.swapaxes(-1, -2)) / per_row(K2, 4)).reshape(R.shape[:-1] + (-1,))
        s_star = np.vecdot(S.reshape(M.shape), M) / np.vecdot(M, M)
    return CurvatureS(tensor=S, s_star=float(s_star) if R.ndim == 1 else s_star)

"""One-vector tensor stack: gradient covector, metric tensor and inverse,
angular tensor, Cartan tensor, and the algebraic curvature tensor.

All tensors are dense numpy arrays with the axial slot stored last.
Index conventions for mixed objects are spelled out per function.

Each public function evaluates the scalar forms of its vector once and
hands them to private builders, which take the checked vector R and its
forms f. The Cartan tensor is built from the algebraic form that the
constant curvature of the indicatrix implies (see cartan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Param, Space, checked_forms, scalar_forms
from .errors import AxisSingular

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


def _grad_covector(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    out = np.empty(sp.dim)
    out[:-1] = (sp.r_spatial @ R[:-1]) * f.K**2 / f.B
    out[-1] = (R[-1] + p.g * f.q) * f.K**2 / f.B
    return out


def grad_covector(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Covector R_p = (1/2) d K^2 / d R^p. Satisfies R_p R^p = K^2."""
    R, f = checked_forms(p, sp, R)
    return _grad_covector(p, sp, R, f)


def _require_off_axis(p: Param, f, what: str) -> None:
    if p.g != 0.0 and np.count_nonzero(f.q == 0.0):
        raise AxisSingular(f"{what} undefined on the axis (q = 0) for g != 0")


def _rows(x) -> np.ndarray:
    """A per-row scalar (a float for one vector) with a trailing axis."""
    return np.asarray(x)[..., None]


def _metric(p: Param, sp: Space, R: np.ndarray, f) -> np.ndarray:
    """g_pq of shape R.shape + (N,) at the checked R off the axis; r_pq at g = 0."""
    if p.g == 0.0:
        return np.broadcast_to(sp.r_full, R.shape + R.shape[-1:]).copy()
    # products, not **2: float ** 2 can differ from numpy's square by an ulp
    g, q, B, K2 = p.g, f.q, f.B, f.K * f.K
    Z = R[..., -1][()]  # a float, not a 0-d array, for one vector
    k = K2 / (B * B)
    Zgq = Z + g * q
    rR = R[..., :-1] @ sp.r_spatial
    out = np.empty(R.shape + R.shape[-1:])
    out[..., -1, -1] = (Zgq * Zgq + q * q) * k
    out[..., -1, :-1] = out[..., :-1, -1] = _rows(g * q * k) * rR
    out[..., :-1, :-1] = (_rows(_rows(K2 / B)) * sp.r_spatial
                          - (_rows(g * Z / q * k) * rR)[..., None] * rR[..., None, :])
    return out


def metric(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Metric tensor g_pq = (1/2) d^2 K^2 / dR^p dR^q, of shape R.shape + (N,)
    for one vector or a stack (..., N), as for scalar_forms. A row on the
    axis raises AxisSingular for g != 0; at g = 0 the metric is r_pq."""
    R = np.asarray(R, dtype=float)
    f = scalar_forms(p, sp, R)
    _require_off_axis(p, f, "metric")
    return _metric(p, sp, R, f)


def metric_inverse(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Reciprocal tensor g^pq with g_pq g^qr = delta."""
    R, f = checked_forms(p, sp, R)
    _require_off_axis(p, f, "metric inverse")
    if f.q == 0.0:
        return sp.r_full_inv.copy()
    g, q, B, Z, K2 = p.g, f.q, f.B, float(R[-1]), f.K**2
    Rs = R[:-1]
    out = np.empty((sp.dim, sp.dim))
    out[-1, -1] = (Z * Z + q * q) / K2
    out[-1, :-1] = out[:-1, -1] = -g * q * Rs / K2
    out[:-1, :-1] = (B / K2) * sp.r_spatial_inv + g * (Z + g * q) * np.outer(Rs, Rs) / (q * K2)
    return out


def metric_det(p: Param, sp: Space, R: np.ndarray) -> float:
    """det(g_pq) in closed form: J^(2N) det(r_ab). Always positive."""
    f = checked_forms(p, sp, R)[1]
    return f.J ** (2 * sp.dim) * sp.r_spatial_det


def _angular(p: Param, sp: Space, R: np.ndarray, f, Rlow: np.ndarray) -> np.ndarray:
    return _metric(p, sp, R, f) - np.outer(Rlow, Rlow) / f.K**2


def angular(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Angular tensor h_pq = g_pq - R_p R_q / K^2; annihilates R^q."""
    R, f = checked_forms(p, sp, R)
    _require_off_axis(p, f, "angular tensor")
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
    n, g, q, B, Z, K2 = sp.dim, p.g, f.q, f.B, float(R[-1]), f.K**2
    Rlow = _grad_covector(p, sp, R, f)
    h = _angular(p, sp, R, f, Rlow)
    if g == 0.0:
        z3 = np.zeros((n, n, n))
        return CartanTensors(z3, z3.copy(), np.zeros(n), np.zeros(n)), h
    h_mixed = np.eye(n) - np.outer(Rlow, R) / K2
    v_low = np.empty(n)
    v_low[:-1] = -(sp.r_spatial @ R[:-1]) * Z / (q * B)
    v_low[-1] = q / B
    v_up = np.empty(n)
    v_up[:-1] = -R[:-1] * (Z + g * q) / (q * K2)
    v_up[-1] = q / K2
    hv = h[:, :, None] * v_low
    full = 0.5 * g * (hv + hv.transpose(0, 2, 1) + hv.transpose(2, 0, 1)
                      - K2 * (v_low[:, None] * v_low)[:, :, None] * v_low)
    mixed = 0.5 * g * (h_mixed[:, :, None] * v_low
                       + (h[:, :, None] * v_up
                          + v_low[:, None, None] * h_mixed).transpose(0, 2, 1)
                       - K2 * (v_low[:, None] * v_up)[:, :, None] * v_low)
    c = 0.5 * n * g
    return CartanTensors(full=full, mixed=mixed, covector=c * v_low, vector=c * v_up), h


def cartan(p: Param, sp: Space, R: np.ndarray) -> CartanTensors:
    """Cartan tensor C_pqr = (1/2) d g_pq / d R^r plus mixed and traced forms.

    Built from the algebraic form, with the angular tensor h_pq and the
    closed forms of C_p and C^p, which carry no 1/w factors (w = q/Z):
    C_pqr = (1/N)(h_pq C_r + h_pr C_q + h_qr C_p - C_p C_q C_r / C^2) and
    C^2 = C_p C^p = N^2 g^2 / (4 K^2). Valid for every q > 0, the
    equatorial plane Z = 0 included; zero at g = 0, AxisSingular on the
    axis otherwise.
    """
    R, f = checked_forms(p, sp, R)
    _require_off_axis(p, f, "Cartan tensor")
    return _cartan(p, sp, R, f)[0]


@dataclass(frozen=True)
class CurvatureS:
    """Algebraic curvature tensor S_pqrs and the fitted scalar S*.

    The indicatrix carries constant curvature 1 + S* = h^2.
    """

    tensor: np.ndarray
    s_star: float


def curvature_S(p: Param, sp: Space, R: np.ndarray) -> CurvatureS:
    """S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r and the proportionality
    scalar of its representation S* (h_pr h_qs - h_ps h_qr) / K^2.

    For N = 2 the angular tensor has rank one, so the pair product
    vanishes identically and the fit is empty; S* is then taken from the
    trace identity (equal to -g^2/4 either way).
    """
    R, f = checked_forms(p, sp, R)
    _require_off_axis(p, f, "Cartan tensor")
    ct, h = _cartan(p, sp, R, f)
    T = np.einsum("tqr,pts->pqrs", ct.full, ct.mixed)  # S_pqrs = T_pqrs - T_pqsr
    S = T - T.transpose(0, 1, 3, 2)
    n, K2 = sp.dim, f.K**2
    if n == 2:
        s_star = -float(ct.covector @ ct.vector) * K2 / n**2
    else:
        hh = h[:, None, :, None] * h[:, None, :]  # h_pr h_qs
        M = (hh - hh.transpose(0, 1, 3, 2)) / K2
        s_star = float(np.vdot(S, M)) / float(np.vdot(M, M))
    return CurvatureS(tensor=S, s_star=s_star)

"""One-vector tensor stack: gradient covector, metric tensor and inverse,
angular tensor, Cartan tensor, and the algebraic curvature tensor.

All tensors are dense numpy arrays with the axial slot stored last.
Index conventions for mixed objects are spelled out per function.

The Cartan components are implemented in a form cleared of all 1/w
factors (w = q/Z), so they extend continuously onto the equatorial plane
Z = 0; only q > 0 is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Param, Space, scalar_forms
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


def grad_covector(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Covector R_p = (1/2) d K^2 / d R^p. Satisfies R_p R^p = K^2."""
    f = scalar_forms(p, sp, R)
    out = np.empty(sp.dim)
    out[:-1] = (sp.r_spatial @ R[:-1]) * f.K**2 / f.B
    out[-1] = (R[-1] + p.g * f.q) * f.K**2 / f.B
    return out


def _require_off_axis(p: Param, f, what: str) -> None:
    if f.q == 0.0 and p.g != 0.0:
        raise AxisSingular(f"{what} undefined on the axis (q = 0) for g != 0")


def metric(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Metric tensor g_pq = (1/2) d^2 K^2 / dR^p dR^q."""
    f = scalar_forms(p, sp, R)
    _require_off_axis(p, f, "metric")
    if f.q == 0.0:  # g == 0, Euclidean
        return sp.r_full.copy()
    g, q, B, Z, K2 = p.g, f.q, f.B, float(R[-1]), f.K**2
    rR = sp.r_spatial @ R[:-1]
    out = np.empty((sp.dim, sp.dim))
    out[-1, -1] = ((Z + g * q) ** 2 + q * q) * K2 / B**2
    out[-1, :-1] = out[:-1, -1] = g * q * rR * K2 / B**2
    out[:-1, :-1] = (K2 / B) * sp.r_spatial - g * np.outer(rR, rR) * Z / q * K2 / B**2
    return out


def metric_inverse(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Reciprocal tensor g^pq with g_pq g^qr = delta."""
    f = scalar_forms(p, sp, R)
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
    f = scalar_forms(p, sp, R)
    return f.J ** (2 * sp.dim) * float(np.linalg.det(sp.r_spatial))


def angular(p: Param, sp: Space, R: np.ndarray) -> np.ndarray:
    """Angular tensor h_pq = g_pq - R_p R_q / K^2; annihilates R^q."""
    f = scalar_forms(p, sp, R)
    _require_off_axis(p, f, "angular tensor")
    gm = metric(p, sp, R)
    Rlow = grad_covector(p, sp, R)
    return gm - np.outer(Rlow, Rlow) / f.K**2


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


def cartan(p: Param, sp: Space, R: np.ndarray) -> CartanTensors:
    """Cartan tensor C_pqr = (1/2) d g_pq / d R^r plus mixed and traced forms.

    Valid for every q > 0 including the equatorial plane Z = 0 (the 1/w
    factors of the raw component list cancel after clearing denominators).
    """
    f = scalar_forms(p, sp, R)
    if f.q == 0.0:
        if p.g == 0.0:
            n = sp.dim
            z3 = np.zeros((n, n, n))
            return CartanTensors(z3, z3.copy(), np.zeros(n), np.zeros(n))
        raise AxisSingular("Cartan tensor undefined on the axis (q = 0) for g != 0")
    g, q, B, Z = p.g, f.q, f.B, float(R[-1])
    K2 = f.K**2
    n = sp.dim
    rs = sp.r_spatial
    Rs = R[:-1]
    rR = rs @ Rs

    full = np.empty((n, n, n))
    sym3 = (np.einsum("ab,c->abc", rs, rR)
            + np.einsum("ac,b->abc", rs, rR)
            + np.einsum("bc,a->abc", rs, rR))
    full[:-1, :-1, :-1] = (
        -0.5 * g * K2 * Z * sym3 / (q * B**2)
        + 0.5 * g * (Z * Z + 3 * g * q * Z + 3 * q * q) * K2 * Z / (q**3 * B**3)
        * np.einsum("a,b,c->abc", rR, rR, rR)
    )
    c_abN = (0.5 * g * q * K2 * rs / B**2
             + 0.5 * g * (Z * Z - g * q * Z - q * q) * np.outer(rR, rR) * K2 / (q * B**3))
    full[:-1, :-1, -1] = c_abN
    full[:-1, -1, :-1] = c_abN
    full[-1, :-1, :-1] = c_abN
    c_aNN = -g * q * rR * K2 * Z / B**3
    full[:-1, -1, -1] = c_aNN
    full[-1, :-1, -1] = c_aNN
    full[-1, -1, :-1] = c_aNN
    full[-1, -1, -1] = g * q**3 * K2 / B**3

    mixed = np.empty((n, n, n))
    mixed[-1, -1, -1] = g * q**3 / B**2
    c_aNN_m = -g * q * rR * Z / B**2
    mixed[:-1, -1, -1] = c_aNN_m
    mixed[-1, -1, :-1] = c_aNN_m
    mixed[-1, :-1, -1] = -g * q * (Z + g * q) * Rs / B**2
    c_aNb = (0.5 * g * q * rs / B
             + 0.5 * g * (Z * Z - g * q * Z - q * q) * np.outer(rR, rR) / (q * B**2))
    mixed[:-1, -1, :-1] = c_aNb
    c_Nab = (0.5 * g * q * np.eye(n - 1) / B
             + 0.5 * g * (Z * Z + g * q * Z - q * q) * np.outer(Rs, rR) / (q * B**2))
    mixed[-1, :-1, :-1] = c_Nab
    mixed[:-1, :-1, -1] = c_Nab.T
    t1 = (Z * np.einsum("ab,c->abc", np.eye(n - 1), rR)
          + Z * np.einsum("cb,a->abc", np.eye(n - 1), rR)
          + (Z + g * q) * np.einsum("ac,b->abc", rs, Rs))
    t2 = (B * (Z + g * q) + 2 * q * q * Z) / q**3 * np.einsum("a,b,c->abc", rR, Rs, rR)
    mixed[:-1, :-1, :-1] = -0.5 * g * t1 / (q * B) + 0.5 * g * t2 / B**2

    covector = np.empty(n)
    covector[-1] = 0.5 * n * g * q / B
    covector[:-1] = -0.5 * n * g * rR * Z / (q * B)
    vector = np.empty(n)
    vector[-1] = 0.5 * n * g * q / K2
    vector[:-1] = -0.5 * n * g * Rs * (Z + g * q) / (q * K2)
    return CartanTensors(full=full, mixed=mixed, covector=covector, vector=vector)


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
    if p.g == 0.0:
        scalar_forms(p, sp, R)  # reject the origin
        n = sp.dim
        return CurvatureS(np.zeros((n, n, n, n)), 0.0)
    ct = cartan(p, sp, R)
    S = (np.einsum("tqr,pts->pqrs", ct.full, ct.mixed)
         - np.einsum("tqs,ptr->pqrs", ct.full, ct.mixed))
    f = scalar_forms(p, sp, R)
    if sp.dim == 2:
        s_star = -float(ct.covector @ ct.vector) * f.K**2 / sp.dim**2
    else:
        h_ang = angular(p, sp, R)
        M = (np.einsum("pr,qs->pqrs", h_ang, h_ang)
             - np.einsum("ps,qr->pqrs", h_ang, h_ang)) / f.K**2
        s_star = float(np.sum(S * M)) / float(np.sum(M * M))
    return CurvatureS(tensor=S, s_star=s_star)

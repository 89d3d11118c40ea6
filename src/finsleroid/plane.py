"""The N = 2 plane: generalized trigonometric functions, indicatrix
length, the second-order profile equation, and the arc-length factor
identities.

With r_11 = 1 the unit level set is the curve
R^1(f) = Sin_g f, R^2(f) = Cos_g f, where

    Cos_g f  = (cos f - (G/2) sin f) / J(f)
    Sin_g f  = sin f / (h J(f))
    Cos*_g f = (cos f + (G/2) sin f) / (h^2 J(f))

with J(f) = exp(-G (f - pi/2) / 2). The exact derivative chain (in f) is

    (Cos_g)'  = -(1/h) Sin_g
    (Sin_g)'  = h Cos*_g
    (Cos*_g)' = (G cos f - (1 - G^2/4) sin f) / (h^2 J)

and arc length along the curve advances as ds = df / h, so the profile
satisfies d2R/ds2 - g dR/ds + R = 0 exactly. gen_trig and
trig_derivatives, the one place of these formulas, take a float f or an
array of f. Every function of f also takes a per-row Param whose g has
shape (k, 1): it broadcasts over the samples f, and row i is the curve at
g[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from . import tensors
from .core import Param, Space, half_G_angle, per_row

__all__ = [
    "TrigTriple",
    "gen_trig",
    "trig_derivatives",
    "indicatrix_length",
    "rund_residual",
    "landsberg_check",
]


@dataclass(frozen=True)
class TrigTriple:
    cos_g: Union[float, np.ndarray]
    sin_g: Union[float, np.ndarray]
    cos_star: Union[float, np.ndarray]


def _j(p: Param, f):
    return np.exp(half_G_angle(p, 0.5 * math.pi - f))


def gen_trig(p: Param, f: Union[float, np.ndarray]) -> TrigTriple:
    """Generalized trigonometric values at parameter f in [0, pi]: floats
    for a float f and a float g, else arrays of the broadcast shape of g
    and f."""
    J = _j(p, f)
    G, h = p.G, p.h
    s, c = np.sin(f), np.cos(f)
    return TrigTriple(
        cos_g=(c - 0.5 * G * s) / J,
        sin_g=s / (h * J),
        cos_star=(c + 0.5 * G * s) / (h * h * J),
    )


def trig_derivatives(p: Param, f: Union[float, np.ndarray]) -> TrigTriple:
    """Exact f-derivatives of the triple (same field order); f is a float
    or an array, as for gen_trig."""
    J = _j(p, f)
    G, h = p.G, p.h
    t = gen_trig(p, f)
    return TrigTriple(
        cos_g=-t.sin_g / h,
        sin_g=h * t.cos_star,
        cos_star=(G * np.cos(f) - (1.0 - 0.25 * G * G) * np.sin(f)) / (h * h * J),
    )


def indicatrix_length(p: Param) -> float:
    """Total arc length of the plane indicatrix: 2 pi / h (= 2 pi iff g = 0)."""
    return 2.0 * math.pi / p.h


def _curve(p: Param, f):
    """R(f) = (Sin_g f, Cos_g f), dR/df, d2R/df2 on the unit level set
    (K = 1, r = identity), each of shape f.shape + (2,), or (k,) + f.shape
    + (2,) for g of shape (k, 1)."""
    t, d = gen_trig(p, f), trig_derivatives(p, f)
    R = np.stack([t.sin_g, t.cos_g], axis=-1)
    dR = np.stack([d.sin_g, d.cos_g], axis=-1)
    d2R = np.stack([p.h * d.cos_star, -t.cos_star], axis=-1)
    return R, dR, d2R


def _worst(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def rund_residual(p: Param, f_samples: Iterable[float],
                  cartan_scalar: Optional[float] = None) -> float:
    """Max norm residual of d2R/ds2 + I dR/ds + R over the given samples,
    with ds = df/h, and over the rows of a per-row g of shape (k, 1). The
    residual vanishes for I = -g (the default); any other I is a negative
    control."""
    I = -p.g if cartan_scalar is None else float(cartan_scalar)
    h = per_row(p.h)
    R, dR, d2R = _curve(p, np.fromiter(f_samples, dtype=float))
    return _worst(h * h * d2R + per_row(I) * h * dR + R)


def landsberg_check(p: Param, f_samples: Iterable[float]) -> dict:
    """Arc-length factor identities along the plane indicatrix.

    Returns the worst deviations, as floats, over the samples and over the
    rows of a per-row g of shape (k, 1), of
      "wronskian":   R^2 dR^1/df - R^1 dR^2/df - K^2/(h J^2)   (K = 1)
      "sqrt_det":    sqrt(det g_pq) - J^2   (one metric call over the samples)
      "convexity":   the curvature ratio minus 1/h^2 (constant)
    All vanish identically; the arc-length element is df / h.
    """
    sp = Space.euclidean(2)
    h = p.h
    fs = np.fromiter(f_samples, dtype=float)
    R, dR, d2R = _curve(p, fs)
    J2 = _j(p, fs) ** 2
    wronskian = R[..., 1] * dR[..., 0] - R[..., 0] * dR[..., 1] - 1.0 / (h * J2)
    num = d2R[..., 1] * dR[..., 0] - dR[..., 1] * d2R[..., 0]
    den = dR[..., 1] * R[..., 0] - R[..., 1] * dR[..., 0]
    inner = (fs > 1e-9) & (fs < math.pi - 1e-9)  # metric needs q > 0
    sqrt_det = (np.sqrt(np.linalg.det(tensors.metric(p, sp, R[..., inner, :])))
                - J2[..., inner])
    return {"wronskian": _worst(wronskian), "sqrt_det": _worst(sqrt_det),
            "convexity": _worst(num / den - 1.0 / (h * h))}

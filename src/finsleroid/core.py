"""Parameter algebra, characteristic scalar forms, and the Finsleroid
metric function.

The geometry lives on an N-dimensional vector space split into an
(N-1)-dimensional spatial part and a distinguished axial direction.
Vectors are plain 1-D numpy arrays with the axial component stored last:
``R = (R^1, ..., R^{N-1}, Z)``. ``fmf`` also takes vectors stacked along
leading axes, an array of shape ``(..., N)``, and evaluates every row.

The anisotropy is controlled by a single parameter ``g`` in (-2, 2).
At g = 0 everything collapses to the Euclidean geometry of the input
metric; as |g| -> 2 the unit body stretches toward a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DegenerateVector, OutOfRange

__all__ = [
    "COLLINEAR_TOL",
    "Gram",
    "Param",
    "Space",
    "ScalarForms",
    "make_param",
    "scalar_forms",
    "fmf",
]


@dataclass(frozen=True)
class Param:
    """Characteristic parameter g with its derived constants.

    h = sqrt(1 - g^2/4), G = g/h, and the two conjugate root pairs
    g_plus/g_minus (roots of the characteristic form in -Z/q) and
    g_up_plus/g_up_minus (their mirror under g -> -g).
    """

    g: float
    h: float
    G: float
    g_plus: float
    g_minus: float
    g_up_plus: float
    g_up_minus: float

    def mirrored(self) -> "Param":
        """The parameter set for -g."""
        return make_param(-self.g)


def make_param(g: float) -> Param:
    """Build a Param from the characteristic parameter g in (-2, 2)."""
    g = float(g)
    if not -2.0 < g < 2.0 or not math.isfinite(g):
        raise OutOfRange(f"characteristic parameter must satisfy |g| < 2, got {g}")
    h = math.sqrt(1.0 - 0.25 * g * g)
    return Param(
        g=g,
        h=h,
        G=g / h,
        g_plus=0.5 * g + h,
        g_minus=0.5 * g - h,
        g_up_plus=-0.5 * g + h,
        g_up_minus=-0.5 * g - h,
    )


# The one collinearity threshold of the pair code, on u / sqrt(a11 a22), the
# sine of the pair's angle. The residual of Space.gram carries a few eps |y|
# of rounding, so a pair at or below 1e-14 spans no plane at working precision.
COLLINEAR_TOL = 1e-14


class Gram(NamedTuple):
    """Pair geometry of nonzero x, y from Space.gram: the products a11, a22,
    a12, the residual perp = y - (a12/a11) x, the Gram root u = |x| |perp|,
    the angle atan2(u, a12) in [0, pi] and u / sqrt(a11 a22) <= COLLINEAR_TOL.
    Taking u from the residual, not from a11 a22 - a12^2, keeps u and the
    angle accurate near 0 and pi (Kahan 2006). d1 = (a11 y - a12 x) / u and
    d2 = (a22 x - a12 y) / u: (x.d1) = (d2.y) = 0, (d1.y) = (x.d2) = u."""

    x: np.ndarray
    y: np.ndarray
    perp: np.ndarray
    a11: float
    a22: float
    a12: float
    u: float
    angle: float
    collinear: bool

    @property
    def d1(self) -> np.ndarray:
        return (self.a11 / self.u) * self.perp

    @property
    def d2(self) -> np.ndarray:
        return (self.u / self.a11) * self.x - (self.a12 / self.u) * self.perp


class Space:
    """Dimension N plus the spatial metric matrix r_ab ((N-1) x (N-1)).

    The full background tensor r_pq extends r_ab by a unit axial slot
    (r_NN = 1, r_Na = 0). The matrix must be symmetric positive definite.
    """

    def __init__(self, dim: int, r_spatial: Optional[np.ndarray] = None):
        dim = int(dim)
        if dim < 2:
            raise ValueError(f"dimension must be >= 2, got {dim}")
        if r_spatial is None:
            r_spatial = np.eye(dim - 1)
        r_spatial = np.array(r_spatial, dtype=float)  # own copy: frozen below
        if r_spatial.shape != (dim - 1, dim - 1):
            raise ValueError(
                f"spatial metric must be {(dim - 1, dim - 1)}, got {r_spatial.shape}"
            )
        if not np.allclose(r_spatial, r_spatial.T, rtol=0, atol=1e-12):
            raise ValueError("spatial metric must be symmetric")
        if np.any(np.linalg.eigvalsh(r_spatial) <= 0):
            raise ValueError("spatial metric must be positive definite")
        self.dim = dim
        self.r_spatial = r_spatial
        self.r_spatial.setflags(write=False)

    @classmethod
    def euclidean(cls, dim: int) -> "Space":
        return cls(dim, np.eye(dim - 1))

    @cached_property
    def r_full(self) -> np.ndarray:
        r = np.zeros((self.dim, self.dim))
        r[:-1, :-1] = self.r_spatial
        r[-1, -1] = 1.0
        r.setflags(write=False)
        return r

    @cached_property
    def r_spatial_inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.r_spatial)
        inv = 0.5 * (inv + inv.T)
        inv.setflags(write=False)
        return inv

    @cached_property
    def r_full_inv(self) -> np.ndarray:
        inv = np.zeros((self.dim, self.dim))
        inv[:-1, :-1] = self.r_spatial_inv
        inv[-1, -1] = 1.0
        inv.setflags(write=False)
        return inv

    @cached_property
    def base_frame(self) -> np.ndarray:
        """Cholesky-derived orthonormal frame: frame[P, q] with
        sum_P frame[P, p] frame[P, q] = r_pq."""
        f = np.linalg.cholesky(self.r_full).T
        f.setflags(write=False)
        return f

    @cached_property
    def base_frame_inv(self) -> np.ndarray:
        """Dual frame: sum_P inv[P, p] inv[P, q] = r^pq."""
        f = np.linalg.inv(np.linalg.cholesky(self.r_full))
        f.setflags(write=False)
        return f

    def dual(self) -> "Space":
        """Space whose spatial metric is the inverse matrix (covector side)."""
        return Space(self.dim, self.r_spatial_inv)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Full background product r_pq x^p y^q."""
        return float(x[:-1] @ self.r_spatial @ y[:-1] + x[-1] * y[-1])

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.dot(x, x), 0.0))

    def gram(self, x: np.ndarray, y: np.ndarray) -> Gram:
        """The pair kernel: every angle and Gram root of two vectors in the
        package comes from here. Raises DegenerateVector on a zero vector."""
        x, y, r = np.asarray(x, dtype=float), np.asarray(y, dtype=float), self.r_full
        rx = r @ x
        a11, a12, a22 = rx @ x, rx @ y, y @ r @ y
        if a11 == 0.0 or a22 == 0.0:
            raise DegenerateVector("pair geometry needs two nonzero vectors")
        perp = y - (a12 / a11) * x
        u = math.sqrt(a11 * max(perp @ r @ perp, 0.0))
        return Gram(x, y, perp, a11, a22, a12, u, math.atan2(u, a12),
                    u <= COLLINEAR_TOL * math.sqrt(a11 * a22))

    def spatial_norm(self, R: np.ndarray) -> Union[float, np.ndarray]:
        """q = sqrt(r_ab R^a R^b) of the spatial part, over the leading axes
        of R: a float for one vector, an array of shape R.shape[:-1] for a
        stack of them."""
        Rs = R[..., :-1]
        # abs: rounding can leave the form of a near-null vector at -eps
        q = np.sqrt(abs((Rs @ self.r_spatial * Rs).sum(axis=-1)))
        return float(q) if q.ndim == 0 else q

    def check_vector(self, R: np.ndarray) -> np.ndarray:
        """R as a float array of shape (..., N): one vector, or vectors
        stacked along leading axes. Every entry must be finite."""
        R = np.asarray(R, dtype=float)
        if R.shape[-1:] != (self.dim,):
            raise ValueError(f"expected vectors of length {self.dim}, got shape {R.shape}")
        if np.count_nonzero(np.isfinite(R)) < R.size:
            raise ValueError("vector has non-finite components")
        return R

    def __repr__(self) -> str:  # pragma: no cover
        return f"Space(dim={self.dim})"


def space_for(t: np.ndarray, space: Optional[Space]) -> Space:
    """space, or the Euclidean space of t's dimension when it is None."""
    return space if space is not None else Space.euclidean(len(np.asarray(t)))


def checked_pair(t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space]) -> Tuple[Space, Gram]:
    """space_for(t1, space) and the Space.gram data of t1, t2 after
    check_vector; Gram.x and Gram.y hold the checked arrays."""
    sp = space_for(t1, space)
    return sp, sp.gram(sp.check_vector(t1), sp.check_vector(t2))


@dataclass(frozen=True)
class ScalarForms:
    """Characteristic scalars of a vector.

    q   spatial norm of R
    B   characteristic quadratic form Z^2 + g q Z + q^2 (always > 0)
    A   axial combination Z + g q / 2
    L   spatial combination q + g Z / 2
    Phi angular argument in [-pi/2, pi/2]
    J   exponential factor exp(G Phi / 2)
    K   metric function value sqrt(B) J
    w, Q, E are the Z-scaled variants q/Z, B/Z^2, 1 + g w / 2 and are
    None on the equatorial plane Z = 0.
    """

    q: float
    w: Optional[float]
    B: float
    Q: Optional[float]
    E: Optional[float]
    A: float
    L: float
    Phi: float
    J: float
    K: float


def scalar_forms(p: Param, sp: Space, R: np.ndarray) -> ScalarForms:
    """Evaluate all characteristic scalars at one nonzero vector."""
    R = sp.check_vector(R)
    if R.ndim != 1:
        raise ValueError(f"scalar forms take one vector, got shape {R.shape}")
    q = sp.spatial_norm(R)
    Z = float(R[-1])
    if q == 0.0 and Z == 0.0:
        raise DegenerateVector("scalar forms are undefined at the origin")
    g, h, G = p.g, p.h, p.G
    B = Z * Z + g * q * Z + q * q
    A = Z + 0.5 * g * q
    L = q + 0.5 * g * Z
    if q > 0.0:
        # branch-free form: agrees with the +-pi/2 split and is continuous
        # across Z = 0 at fixed q
        Phi = math.atan2(A, h * q)
    else:
        Phi = math.copysign(0.5 * math.pi, Z)
    J = math.exp(0.5 * G * Phi)
    K = math.sqrt(B) * J
    if Z != 0.0:
        w = q / Z
        Q = B / (Z * Z)
        E = 1.0 + 0.5 * g * w
    else:
        w = Q = E = None
    return ScalarForms(q=q, w=w, B=B, Q=Q, E=E, A=A, L=L, Phi=Phi, J=J, K=K)


def fmf(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """Finsleroid metric function K(g; R), the anisotropic norm of R.

    R is one vector of shape (N,), which gives a float, or vectors stacked
    along leading axes, shape (..., N), which gives an array of shape
    R.shape[:-1]. The whole stack is checked: a non-finite entry or a wrong
    last axis raises ValueError, a row at the origin DegenerateVector.
    The formula is that of scalar_forms, K = sqrt(B) exp(G Phi / 2) with
    Phi = atan2(A, h q).
    """
    R = sp.check_vector(R)
    q = sp.spatial_norm(R)
    Z = R[..., -1]
    if np.count_nonzero((q == 0.0) & (Z == 0.0)):
        raise DegenerateVector("metric function undefined at the origin")
    g = p.g
    # on the axis atan2(Z, +0) = +-pi/2, the axis branch of scalar_forms
    K = (np.sqrt(Z * Z + g * q * Z + q * q)
         * np.exp(0.5 * p.G * np.arctan2(Z + 0.5 * g * q, p.h * q)))
    return float(K) if R.ndim == 1 else K

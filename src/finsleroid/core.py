"""Parameter algebra, characteristic scalar forms, and the Finsleroid
metric function.

The geometry lives on an N-dimensional vector space split into an
(N-1)-dimensional spatial part and a distinguished axial direction.
Vectors are plain 1-D numpy arrays with the axial component stored last:
``R = (R^1, ..., R^{N-1}, Z)``. ``scalar_forms``, the one place of the
forms and of K (``fmf`` is its K), also takes vectors stacked along leading
axes, shape ``(..., N)``, and evaluates every row with one numpy formula.

The anisotropy is controlled by a single parameter ``g`` in (-2, 2), or by
one ``g`` per row of a stack (``make_param`` of an array of g).
At g = 0 everything collapses to the Euclidean geometry of the input
metric; as |g| -> 2 the unit body stretches toward a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import AxisSingular, ConeLimit, DegenerateVector, OutOfRange

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

    Every field is a float for a float g. For an array of g every field is
    an array of g's shape, one entry per row, and broadcasts with the rows
    of a stack of vectors: R of shape (..., N) with g of shape R.shape[:-1]
    evaluates row i at g[i].

    G_max, the largest |G| over the rows, is a float that the cone-limit
    checks compare before they look at any angle; it is no field.
    """

    g: Union[float, np.ndarray]
    h: Union[float, np.ndarray]
    G: Union[float, np.ndarray]
    g_plus: Union[float, np.ndarray]
    g_minus: Union[float, np.ndarray]
    g_up_plus: Union[float, np.ndarray]
    g_up_minus: Union[float, np.ndarray]

    def mirrored(self) -> "Param":
        """The parameter set for -g."""
        return make_param(-self.g)

    def __post_init__(self):
        # a plain attribute: dataclasses.replace sets it anew, and unlike a
        # cached_property it leaves the instance __dict__ unfilled, which
        # keeps every attribute read of the Param fast (a filled one costs
        # about 35 ns more a read on CPython 3.11)
        G = self.G
        object.__setattr__(self, "G_max", abs(G) if isinstance(G, float)
                           else float(np.max(np.abs(G), initial=0.0)))


def make_param(g: Union[float, np.ndarray]) -> Param:
    """Build a Param from the characteristic parameter g in (-2, 2): a float,
    or an array of g for per-row parameters. Every entry must be finite with
    |g| < 2."""
    ga = np.array(g, dtype=float)
    if np.count_nonzero(~(np.abs(ga) < 2.0)):  # NaN fails the test too
        raise OutOfRange(f"characteristic parameter must satisfy |g| < 2, got {g}")
    # the product of the two factors: 1 - g^2/4 cancels as |g| -> 2
    h = np.sqrt((1.0 - 0.5 * ga) * (1.0 + 0.5 * ga))
    if ga.ndim == 0:
        ga, h = float(ga), float(h)
    return Param(
        g=ga,
        h=h,
        G=ga / h,
        g_plus=0.5 * ga + h,
        g_minus=0.5 * ga - h,
        g_up_plus=-0.5 * ga + h,
        g_up_minus=-0.5 * ga - h,
    )


def any_row(mask) -> bool:
    """Whether a row mask holds on some row. The mask of one vector at a
    float g is a bool, read as it is: np.count_nonzero would first make it
    an array."""
    return mask if isinstance(mask, bool) else bool(np.count_nonzero(mask))


# J = exp(G a / 2) at an angle a in [-pi/2, pi/2]: J^k and J^-k are normal
# doubles while |k G a / 2| <= 1022 ln 2. Only k |G| > (4/pi) 1022 ln 2 ~ 902,
# for J itself 2 - |g| < 5e-6, can leave that range. The tensors' bound of
# require_tensor_range can be reached only above half that.
_CONE_EXP_LIMIT = 1022 * math.log(2.0)
_CONE_G = _CONE_EXP_LIMIT / (0.25 * math.pi)
_TENSOR_CONE_G = 0.5 * _CONE_G


def _cone_limit(power: int) -> ConeLimit:
    return ConeLimit(f"cone limit: |g| is so near 2 that J = exp(G Phi / 2) to the "
                     f"power {power} leaves the double range")


def half_G_angle(p: Param, a, power: int = 1):
    """G a / 2, the exponent of J = exp(G a / 2) at an angle a (a float or
    an array of angles) in [-pi/2, pi/2]. Raises ConeLimit where J^power or
    J^-power would leave the normal doubles; while power |G| <= ~902 that
    takes one comparison."""
    x = 0.5 * p.G * a
    if power * p.G_max > _CONE_G and any_row(abs(power * x) > _CONE_EXP_LIMIT):
        raise _cone_limit(power)
    return x


def require_tensor_range(p: Param, f: "ScalarForms", power: int) -> None:
    """Raise ConeLimit where a tensor built on J^power (power <= 4) at the
    forms f would leave the normal doubles. Its rational factors in R carry
    up to G^2 per power of J (1/B <= 2 / ((1 - |g|/2) |R|^2) ~ G^2 / |R|^2,
    and curvature_S forms J^4 G^8), so the bound is on
    power (|G Phi / 2| + 2 ln |G|). While power |G| <= ~451 that takes one
    comparison: below it the bound cannot be reached."""
    if power * p.G_max > _TENSOR_CONE_G and any_row(
            power * (abs(0.5 * p.G * f.Phi) + 2.0 * math.log(p.G_max)) > _CONE_EXP_LIMIT):
        raise _cone_limit(power)


def require_off_axis(p: Param, f: "ScalarForms", what: str) -> None:
    """Raise AxisSingular when a row with g != 0 lies on the axis (q = 0)."""
    if any_row((f.q == 0.0) & (p.g != 0.0)):
        raise AxisSingular(f"{what} undefined on the axis (q = 0) for g != 0")


def g_zero_rows(p: Param, q):
    """The g = 0 shortcut of a tensor builder, row by row: (z, q). z is a
    bool when every row or none has g = 0 (a float g included), else the
    boolean mask of those rows. q is the spatial norm for the builder's 1/q
    terms: with a mask its axis rows, which have g = 0 once the axis check
    has passed, read 1 and stay finite until write_rows sets them."""
    z = p.g == 0.0
    if isinstance(z, bool):
        return z, q
    n = np.count_nonzero(z)
    if 0 < n < z.size:
        return z, np.where(q == 0.0, 1.0, q)
    return bool(n), q


def write_rows(z, R: np.ndarray, out: np.ndarray, value) -> None:
    """Write value on the rows of out where the g = 0 mask z of
    g_zero_rows holds; nothing when z is a bool."""
    if isinstance(z, np.ndarray):
        out[np.broadcast_to(z, R.shape[:-1])] = value


def fill_rows(R: np.ndarray, value: np.ndarray) -> np.ndarray:
    """value at every row of R: a new array of shape R.shape[:-1] + value.shape."""
    return np.broadcast_to(value, R.shape[:-1] + value.shape).copy()


def per_row(x, k: int = 1):
    """A per-row scalar with k trailing axes, so that it broadcasts over the
    components of each row of a stack; a float stays a float."""
    return x[(...,) + (None,) * k] if isinstance(x, np.ndarray) else x


def axial(R: np.ndarray) -> Union[float, np.ndarray]:
    """The axial component Z of a checked vector (a float) or of every row
    of a stack (an array of shape R.shape[:-1])."""
    return float(R[-1]) if R.ndim == 1 else R[..., -1]


# The one collinearity threshold of the pair code, on u / sqrt(a11 a22), the
# sine of the pair's angle. The residual of Space.gram carries a few eps |y|
# of rounding, so a pair at or below 1e-14 spans no plane at working precision.
COLLINEAR_TOL = 1e-14


class Gram(NamedTuple):
    """Pair geometry of nonzero x, y from Space.gram: the products a11, a22,
    a12, the residual perp = y - (a12/a11) x (formed from y - lam x, lam a
    signed power of two, near (anti)parallel pairs), the Gram root
    u = |x| |perp|, the angle atan2(u, a12) in [0, pi] and u / sqrt(a11 a22) <= COLLINEAR_TOL.
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

    @staticmethod
    def euclidean(dim: int) -> "Space":
        """The Euclidean space of dimension dim: one shared instance per
        int(dim). Sharing is safe, since its matrices are write-protected
        and its cached properties are deterministic."""
        return _euclidean(int(dim))

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
    def r_spatial_det(self) -> float:
        return float(np.linalg.det(self.r_spatial))

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
        if 16.0 * a12 * a12 < 15.0 * a11 * a22:
            perp = y - (a12 / a11) * x
        else:
            # within about 15 degrees of (anti)parallel y - (a12/a11) x
            # cancels. With lam the power of two nearest |y|/|x|, signed like
            # a12, y - lam x is exact for y near lam x, and s - (r x.s / a11) x
            # is the same residual without the cancellation
            lam = math.copysign(2.0 ** round(0.5 * math.log2(a22 / a11)), a12)
            s = y - lam * x
            perp = s - ((rx @ s) / a11) * x
        u = math.sqrt(a11 * max(perp @ r @ perp, 0.0))
        return Gram(x, y, perp, a11, a22, a12, u, math.atan2(u, a12),
                    u <= COLLINEAR_TOL * math.sqrt(a11 * a22))

    def spatial_norm(self, R: np.ndarray) -> Union[float, np.ndarray]:
        """q = sqrt(r_ab R^a R^b) of the spatial part, over the leading axes
        of R: a float for one vector, an array of shape R.shape[:-1] for a
        stack of them."""
        Rs = np.asarray(R, dtype=float)[..., :-1]
        # abs: rounding can leave the form of a near-null vector at -eps
        q = np.sqrt(abs(np.vecdot(Rs @ self.r_spatial, Rs)))
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


@lru_cache(maxsize=None)
def _euclidean(dim: int) -> Space:
    return Space(dim, np.eye(dim - 1))


def space_for(t: np.ndarray, space: Optional[Space]) -> Space:
    """space, or the Euclidean space of t's dimension when it is None."""
    return space if space is not None else Space.euclidean(len(np.asarray(t)))


def checked_pair(t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space]) -> Tuple[Space, Gram]:
    """space_for(t1, space) and the Space.gram data of t1, t2 after
    check_vector; Gram.x and Gram.y hold the checked arrays."""
    sp = space_for(t1, space)
    return sp, sp.gram(sp.check_vector(t1), sp.check_vector(t2))


class ScalarForms(NamedTuple):
    """Characteristic scalars of a vector, or of every row of a stack.

    q   spatial norm of R
    B   characteristic quadratic form Z^2 + g q Z + q^2 (always > 0)
    A   axial combination Z + g q / 2
    L   spatial combination q + g Z / 2
    Phi angular argument atan2(A, h q) in [-pi/2, pi/2]
    J   exponential factor exp(G Phi / 2)
    K   metric function value sqrt(B) J

    Each field is a float for one vector, shape (N,), and an array of
    shape R.shape[:-1] for a stack (..., N).
    """

    q: Union[float, np.ndarray]
    B: Union[float, np.ndarray]
    A: Union[float, np.ndarray]
    L: Union[float, np.ndarray]
    Phi: Union[float, np.ndarray]
    J: Union[float, np.ndarray]
    K: Union[float, np.ndarray]


def scalar_forms(p: Param, sp: Space, R: np.ndarray) -> ScalarForms:
    """All characteristic scalars of one nonzero vector (N,), or of every
    row of a stack (..., N). The whole stack is checked: a non-finite entry
    or a wrong last axis raises ValueError, a row at the origin
    DegenerateVector."""
    R = sp.check_vector(R)
    one = R.ndim == 1
    q = sp.spatial_norm(R)
    Z = axial(R)
    if any_row((q == 0.0) & (Z == 0.0)):
        raise DegenerateVector("scalar forms are undefined at the origin")
    g = p.g
    B = Z * Z + g * q * Z + q * q
    A = Z + 0.5 * g * q
    L = q + 0.5 * g * Z
    # branch-free: agrees with the +-pi/2 split, is continuous across Z = 0
    # at fixed q, and on the axis atan2(Z, +0) = +-pi/2
    Phi = np.arctan2(A, p.h * q)
    J = np.exp(half_G_angle(p, Phi))
    K = np.sqrt(B) * J
    if one:
        Phi, J, K = float(Phi), float(J), float(K)
    return ScalarForms(q, B, A, L, Phi, J, K)


def checked_forms(p: Param, sp: Space,
                  R: np.ndarray) -> Tuple[np.ndarray, ScalarForms]:
    """R as the float array that scalar_forms checks, and its scalar forms,
    for the functions of one vector: a stack raises ValueError."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 1:
        raise ValueError(f"expected one vector, got shape {R.shape}")
    return R, scalar_forms(p, sp, R)


def fmf(p: Param, sp: Space, R: np.ndarray) -> Union[float, np.ndarray]:
    """Finsleroid metric function K(g; R), the anisotropic norm of R:
    scalar_forms(p, sp, R).K, a float for one vector of shape (N,) and an
    array of shape R.shape[:-1] for a stack (..., N)."""
    return scalar_forms(p, sp, R).K

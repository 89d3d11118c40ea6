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
from functools import lru_cache
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
        """The parameter set for -g, built from these fields: g -> -g swaps
        the root pairs, so it equals make_param(-g) bit for bit and keeps a
        replaced h. Built on the first call and paired both ways:
        p.mirrored().mirrored() is p."""
        if self._mirror is None:
            m = Param(-self.g, self.h, -self.G, self.g_up_plus, self.g_up_minus,
                      self.g_plus, self.g_minus)
            object.__setattr__(m, "_mirror", self)
            object.__setattr__(self, "_mirror", m)
        return self._mirror

    def __post_init__(self):
        # plain attributes: dataclasses.replace sets them anew, and unlike a
        # cached_property they leave the instance __dict__ unfilled, which
        # keeps every attribute read of the Param fast (a filled one costs
        # about 35 ns more a read on CPython 3.11)
        object.__setattr__(self, "_mirror", None)
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
    d2 = (a22 x - a12 y) / u: (x.d1) = (d2.y) = 0, (d1.y) = (x.d2) = u.

    For one pair the scalar fields are Python floats and collinear a bool;
    for stacked pairs they are arrays over the rows, and x, y, perp, d1 and
    d2 have the pairs' shape (..., N)."""

    x: np.ndarray
    y: np.ndarray
    perp: np.ndarray
    a11: Union[float, np.ndarray]
    a22: Union[float, np.ndarray]
    a12: Union[float, np.ndarray]
    u: Union[float, np.ndarray]
    angle: Union[float, np.ndarray]
    collinear: Union[bool, np.ndarray]

    @property
    def d1(self) -> np.ndarray:
        return per_row(self.a11 / self.u) * self.perp

    @property
    def d2(self) -> np.ndarray:
        return per_row(self.u / self.a11) * self.x - per_row(self.a12 / self.u) * self.perp


class Space:
    """Dimension N plus the spatial metric matrix r_ab ((N-1) x (N-1)).

    The full background tensor r_pq extends r_ab by a unit axial slot
    (r_NN = 1, r_Na = 0). The matrix must be symmetric positive definite.
    Its inverse, determinant and frames are set here once, as plain
    write-protected attributes: unlike a cached_property they leave the
    instance __dict__ unfilled, which keeps every attribute read fast.
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
        inv = np.linalg.inv(r_spatial)
        self._fill(r_spatial, 0.5 * (inv + inv.T))

    def _fill(self, r_spatial: np.ndarray, inv: np.ndarray) -> None:
        """Set the matrices from the checked spatial metric and its inverse."""
        dim = len(r_spatial) + 1
        r_full, r_full_inv = np.zeros((dim, dim)), np.zeros((dim, dim))
        r_full[:-1, :-1], r_full_inv[:-1, :-1] = r_spatial, inv
        r_full[-1, -1] = r_full_inv[-1, -1] = 1.0
        chol = np.linalg.cholesky(r_full)
        self.dim = dim
        self.r_spatial = r_spatial
        self.r_spatial_inv = inv
        self.r_spatial_det = float(np.linalg.det(r_spatial))
        self.r_full = r_full
        self.r_full_inv = r_full_inv
        # Cholesky-derived orthonormal frame, frame[P, q] with
        # sum_P frame[P, p] frame[P, q] = r_pq, and its dual frame with
        # sum_P inv[P, p] inv[P, q] = r^pq
        self.base_frame = chol.T
        self.base_frame_inv = np.linalg.inv(chol)
        for a in (r_spatial, inv, r_full, r_full_inv, self.base_frame, self.base_frame_inv):
            a.setflags(write=False)
        self._dual: Optional[Space] = None

    @staticmethod
    def euclidean(dim: int) -> "Space":
        """The Euclidean space of dimension dim: one shared instance per
        int(dim). Sharing is safe, since its matrices are write-protected
        and its dual is deterministic."""
        return _euclidean(int(dim))

    def dual(self) -> "Space":
        """Space whose spatial metric is the inverse matrix (covector side),
        with this space's metric as its inverse, exactly. Built on the first
        call and paired both ways: sp.dual().dual() is sp."""
        if self._dual is None:
            d = Space.__new__(Space)
            d._fill(self.r_spatial_inv, self.r_spatial)
            d._dual, self._dual = self, d
        return self._dual

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Full background product r_pq x^p y^q."""
        return float(x[:-1] @ self.r_spatial @ y[:-1] + x[-1] * y[-1])

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.dot(x, x), 0.0))

    def gram(self, x: np.ndarray, y: np.ndarray) -> Gram:
        """The pair kernel: every angle and Gram root of two vectors in the
        package comes from here. Takes one pair, shape (N,), or pairs
        stacked along leading axes, (..., N), each row on its own: the
        residual branch and COLLINEAR_TOL apply row by row. Raises
        DegenerateVector when a row of x or y is zero."""
        x, y, r = np.asarray(x, dtype=float), np.asarray(y, dtype=float), self.r_full
        rx = np.matvec(r, x)
        a11, a12, a22 = np.vecdot(rx, x), np.vecdot(rx, y), np.vecdot(np.matvec(r, y), y)
        if a12.ndim:
            m = np
        else:  # one pair: Python floats, and math for its scalar steps
            m, a11, a12, a22 = math, float(a11), float(a12), float(a22)
        if any_row((a11 == 0.0) | (a22 == 0.0)):
            raise DegenerateVector("pair geometry needs two nonzero vectors")
        s, c = y, a12 / a11
        near = 16.0 * a12 * a12 >= 15.0 * a11 * a22
        if any_row(near):
            # within about 15 degrees of (anti)parallel y - (a12/a11) x
            # cancels. With lam the power of two nearest |y|/|x|, signed like
            # a12, y - lam x is exact for y near lam x, and s - (r x.s / a11) x
            # is the same residual without the cancellation. lam is 0 on the
            # other rows, where s = y and r x.s = a12 bit for bit. log2 of
            # a22 / a11 is taken as a difference, since the quotient of far
            # apart |y| and |x| can overflow or reach 0; on the other rows
            # it is read as 0, so that no power of two there overflows
            e = m.log2(a22) - m.log2(a11)
            e = e if m is math else np.where(near, e, 0.0)
            lam = near * m.copysign(2.0 ** m.floor(0.5 * e + 0.5), a12)
            s = y - per_row(lam) * x
            c = np.vecdot(rx, s) / a11
        perp = s - per_row(c) * x
        # |perp|^2 as a sum of squares in the orthonormal frame: never below 0
        w = np.matvec(self.base_frame, perp)
        u = m.sqrt(a11 * np.vecdot(w, w))
        return Gram(x, y, perp, a11, a22, a12, u, m.atan2(u, a12),
                    u <= COLLINEAR_TOL * m.sqrt(a11 * a22))

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
    """space, or the Euclidean space of the last axis of t (one vector or
    a stack) when it is None."""
    return space if space is not None else Space.euclidean(np.shape(t)[-1])


def checked_pair(t1: np.ndarray, t2: np.ndarray,
                 space: Optional[Space]) -> Tuple[Space, Gram]:
    """space_for(t1, space) and the Space.gram data of t1, t2 after
    check_vector, for the functions of one pair: stacked pairs raise
    ValueError. Gram.x and Gram.y hold the checked arrays."""
    sp = space_for(t1, space)
    t1, t2 = sp.check_vector(t1), sp.check_vector(t2)
    if t1.ndim != 1 or t2.ndim != 1:
        raise ValueError(f"expected one pair of vectors, got shapes {t1.shape} and {t2.shape}")
    return sp, sp.gram(t1, t2)


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

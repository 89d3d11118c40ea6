"""Exception hierarchy for the finsleroid package.

Every failure mode that corresponds to a geometric degeneracy gets its own
class so callers can distinguish "bad input" from "the formula genuinely
does not extend here".
"""


class FinsleroidError(Exception):
    """Base class for all finsleroid errors."""


class OutOfRange(FinsleroidError):
    """Characteristic parameter outside the open interval (-2, 2)."""


class ConeLimit(FinsleroidError):
    """|g| so near 2 that J = exp(G Phi / 2) or 1/J is not a normal double:
    the unit body has become a cone at working precision."""


class DegenerateVector(FinsleroidError):
    """Zero vector where a direction is required."""


class AxisSingular(FinsleroidError):
    """Evaluation on the symmetry axis (q = 0) where a 1/q term appears."""


class VertexSingular(FinsleroidError):
    """Profile slope undefined: Z + g*q = 0 (vertical tangent)."""


class BadDirection(FinsleroidError):
    """Spatial direction vector is not unit length for the spatial metric."""


class BadFrame(FinsleroidError):
    """Supplied frame is not orthonormal for the background metric."""


class ChartOutOfRange(FinsleroidError):
    """Chart point lies outside the coordinate patch."""


class AntipodalSingular(FinsleroidError):
    """Two-point geodesic data at or beyond the angular range where the
    closed-form connection degenerates."""


class NotUnitSpeed(FinsleroidError):
    """Initial velocity does not have unit length in the ambient metric."""


class CollinearVectors(FinsleroidError):
    """Linearly dependent vectors where an independent pair is required."""


class NegativeRadicand(FinsleroidError):
    """Frame radicand negative: configuration outside the validity region."""


class SingularXi(FinsleroidError):
    """Covector-pair inversion coefficient vanishes (collinear covectors)."""


class DegenerateW(FinsleroidError):
    """Two-vector Gram root vanishes (collinear arguments)."""

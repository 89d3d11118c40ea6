"""Exception hierarchy for the finsleroid package.

Every failure mode that corresponds to a geometric degeneracy gets its own
class so callers can distinguish "bad input" from "the formula genuinely
does not extend here".

A refusal of one vector, or of vectors stacked along leading axes, comes
from core.refuse and names what it refused. rows holds the flat C-order
indices, over the leading axes of the refusal's row mask, of the rows that
meet it: () for one vector. measure holds the site's own quantity on those
rows, one entry per row (one entry for one vector), in the order of rows:
the value that crossed its threshold, such as the swept angle of
AntipodalSingular, the speed of NotUnitSpeed or the radicand of
NegativeRadicand, and the refused vectors themselves at the origin. A
caller can drop those rows and run the rest again. The message stays
short at any stack size: it names neither. The checks of one input that
has no rows (a spatial direction, a base frame, a chart point) raise with
rows () and no measure.
"""


class FinsleroidError(Exception):
    """Base class for all finsleroid errors: the message, the rows of the
    refusal and its measure (None where it has none)."""

    def __init__(self, message="", rows=(), measure=None):
        super().__init__(message)
        self.rows = rows
        self.measure = measure


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

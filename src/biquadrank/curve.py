"""The curve family y^2 = x^3 + b*x over Q and its chord-tangent group law.

Points carry exact Fraction coordinates.  The family is closed under the
standard 2-isogeny (b -> -4b), has j-invariant 1728, and its rational torsion
is one of Z/2, Z/2 x Z/2, Z/4 depending only on b.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction

from .arith import factor, is_fourth_power, is_square


class OffCurve(ValueError):
    """A point handed to the group law does not satisfy the curve equation."""


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + b*x with integer b != 0.

    The facts its heights need are cached properties, made on first read and
    outside the fields, __eq__, __hash__ and repr: the primes of 2b and, per
    precision, the memos of heights and pairings that heights.Heights fills.
    """

    b: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("b = 0 is singular")

    @functools.cached_property
    def bad_primes(self) -> tuple[int, ...]:
        """The primes dividing 2b; an EffortExceeded from factoring caches nothing."""
        return factor(2 * abs(self.b)).distinct_primes()

    @functools.cached_property
    def height_memos(self) -> dict:
        """precision -> (height by point, pairing by pair of points)."""
        return {}

    @property
    def n(self) -> int:
        """The twist parameter when the curve is written y^2 = x^3 - n*x."""
        return -self.b

    def __repr__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"Curve(y^2 = x^3 {sign} {abs(self.b)}*x)"


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x is None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("a point has both coordinates or neither")

    @staticmethod
    def affine(x, y) -> "Point":
        return Point(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(O)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


def curve_from_n(n: int) -> Curve:
    """The curve y^2 = x^3 - n*x."""
    return Curve(b=-n)


def dual_curve(E: Curve) -> Curve:
    """The 2-isogenous curve y^2 = x^3 - 4b*x.

    Applying it twice scales b by 16, i.e. returns a quartic twist of E by 2.
    """
    return Curve(b=-4 * E.b)


def is_on_curve(E: Curve, P: Point) -> bool:
    """y^2 = x^3 + b x, cross-multiplied for x = u/d and y = v/e into
    v^2 d^3 = e^2 u (u^2 + b d^2), so no Fraction is built."""
    if P.is_infinity:
        return True
    u, d = P.x.numerator, P.x.denominator
    v, e = P.y.numerator, P.y.denominator
    return v * v * d**3 == e * e * u * (u * u + E.b * d * d)


def _require_on_curve(E: Curve, P: Point):
    if not is_on_curve(E, P):
        raise OffCurve(f"{P} is not on {E}")


def negate(P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, -P.y)


def _add_unchecked(E: Curve, P: Point, Q: Point) -> Point:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent; y != 0 here since y == 0 would hit the branch above
        lam = (3 * P.x * P.x + E.b) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return Point(x3, y3)


def add(E: Curve, P: Point, Q: Point) -> Point:
    """Chord-tangent sum; validates both inputs."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add_unchecked(E, P, Q)


def scalar_mul(E: Curve, k: int, P: Point) -> Point:
    """k*P by double-and-add; k may be negative or zero."""
    _require_on_curve(E, P)
    if k < 0:
        k, P = -k, negate(P)
    acc = INFINITY
    step = P
    while k:
        if k & 1:
            acc = _add_unchecked(E, acc, step)
        step = _add_unchecked(E, step, step)
        k >>= 1
    return acc


def pair_points(p: int, q: int) -> tuple[Point, Point]:
    """(-p^2, p*q^2) and (-q^2, q*p^2), both on y^2 = x^3 - (p^4+q^4)*x.

    The identity (-p^2)^3 - n*(-p^2) = (p*q^2)^2 for n = p^4 + q^4 makes the
    first a point; the second swaps the roles of p and q.
    """
    return (
        Point.affine(-(p * p), p * q * q),
        Point.affine(-(q * q), q * p * p),
    )


def constructed_points(quad) -> list[Point]:
    """The four ready-made points on y^2 = x^3 - n*x for a double
    representation; pair_points' identity puts them on the curve."""
    return [*pair_points(quad.p, quad.q), *pair_points(quad.r, quad.s)]


class TorsionShape(enum.Enum):
    Z2 = "Z/2Z"
    Z2xZ2 = "Z/2Z x Z/2Z"
    Z4 = "Z/4Z"

    def __str__(self):
        return self.value


def torsion_shape(D: int) -> TorsionShape:
    """Rational torsion of y^2 = x^3 + D*x for any D != 0.

    D and D*k^4 give isomorphic curves, so no factoring is needed: Z/4
    exactly when D/4 is a fourth power; Z/2 x Z/2 when -D is a perfect
    square (full 2-torsion is rational); Z/2 otherwise.
    """
    if D == 0:
        raise ValueError("D must be nonzero")
    if D % 4 == 0 and is_fourth_power(D // 4):
        return TorsionShape.Z4
    if is_square(-D):
        return TorsionShape.Z2xZ2
    return TorsionShape.Z2

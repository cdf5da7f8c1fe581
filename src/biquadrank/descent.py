"""Square-class bookkeeping for the two 2-isogeny descent maps on
y^2 = x^3 - n x.

For E: y^2 = x^3 + bx with 2-isogenous dual y^2 = x^3 - 4bx, the maps
phi(P) = x(P) mod squares (with the usual conventions at O and (0,0)) land
in Q*/Q*^2, and |phi(G)| * |psi(G-dual)| = 2^{r+2} where r is the rank.
Exhibiting explicit elements of either image therefore gives an
unconditional rank lower bound.

Every class recorded here carries a witness that re-verifies by exact
integer arithmetic: the point at infinity (class 1), the coefficient class
of (0,0), an affine point's x-coordinate, a solution (M, e, N) of a
homogeneous space N^2 = b1 M^4 + b2 e^4 with b1 b2 = b, or a product of two
previously witnessed classes.  No torseur solving is attempted: only
witnesses that exist in closed form for n = p^4 + q^4 are used.

Square classes are canonicalized to signed squarefree integers once, at
construction; closure and verification afterwards never factor anything
(two integers share a class iff their product is a positive perfect
square, and squarefree reps multiply via gcd cancellation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .arith import DEFAULT_EFFORT, FactorEffort, Factorization, factor, is_square, squarefree_part
from .biquadrate import BiquadQuadruple, QuarticFactors, fourth_power_witness, quartic_factors
from .curve import Curve


class WitnessInvalid(RuntimeError):
    """A stored witness failed exact re-verification."""


def square_class(m: int, effort: FactorEffort = DEFAULT_EFFORT) -> int:
    """Canonical representative: the signed squarefree part."""
    if m == 0:
        raise ValueError("0 has no square class")
    s, _ = squarefree_part(m, effort)
    return s


def class_mul(c1: int, c2: int) -> int:
    """Product of two squarefree representatives, again squarefree."""
    g = math.gcd(abs(c1), abs(c2))
    return (c1 // g) * (c2 // g)


def same_class(m1: int, m2: int) -> bool:
    return m1 * m2 > 0 and is_square(m1 * m2)


@dataclass(frozen=True)
class Witness:
    """Exactly checkable evidence that a square class lies in an image.

    data layout by kind:
      identity     ()
      coefficient  ()                      class of the curve coefficient b
      point        (xn, xd, yn, yd)        affine point, class of x
      torsor       (b1, b2, M, e, N)       N^2 = b1 M^4 + b2 e^4, b1 b2 = b
      product      (c1, c2)                classes already in the image
    """

    kind: str
    square_class: int
    data: tuple[int, ...] = ()

    def verify(self, curve_b: int, classes: frozenset[int]) -> None:
        c = self.square_class
        if self.kind == "identity":
            ok = c == 1
        elif self.kind == "coefficient":
            ok = same_class(curve_b, c)
        elif self.kind == "point":
            xn, xd, yn, yd = self.data
            x = Fraction(xn, xd)
            y = Fraction(yn, yd)
            ok = x != 0 and y * y == x**3 + curve_b * x and same_class(xn * xd, c)
        elif self.kind == "torsor":
            b1, b2, m, e, nn = self.data
            ok = (
                b1 * b2 == curve_b
                and m != 0
                and e != 0
                and nn * nn == b1 * m**4 + b2 * e**4
                and same_class(b1, c)
            )
        elif self.kind == "product":
            c1, c2 = self.data
            ok = c1 in classes and c2 in classes and same_class(c1 * c2, c)
        else:
            ok = False
        if not ok:
            raise WitnessInvalid(f"{self.kind} witness for class {c} fails")


@dataclass(frozen=True)
class DescentImage:
    """A verified subgroup of Q*/Q*^2 inside one descent image."""

    side: str
    curve_b: int
    classes: frozenset[int]
    witnesses: Mapping[int, Witness] = field(compare=False)

    def __post_init__(self):
        if self.side not in ("phi", "psi"):
            raise ValueError("side must be phi or psi")
        m = len(self.classes)
        if m == 0 or m & (m - 1):
            raise ValueError(f"image size {m} is not a power of 2")
        if 1 not in self.classes:
            raise ValueError("image must contain the trivial class")
        for c1 in self.classes:
            for c2 in self.classes:
                if class_mul(c1, c2) not in self.classes:
                    raise ValueError("classes not closed under multiplication")
        if set(self.witnesses) != set(self.classes):
            raise ValueError("every class needs a witness")
        self.reverify()

    def reverify(self) -> None:
        """Re-check every witness; raises WitnessInvalid on any failure."""
        for w in self.witnesses.values():
            w.verify(self.curve_b, self.classes)

    @property
    def order(self) -> int:
        return len(self.classes)


def _close(side: str, curve_b: int, gens: list[tuple[int, Witness]]) -> DescentImage:
    table: dict[int, Witness] = {1: Witness("identity", 1)}
    for c, w in gens:
        table.setdefault(c, w)
    grew = True
    while grew:
        grew = False
        reps = list(table)
        for c1 in reps:
            for c2 in reps:
                c = class_mul(c1, c2)
                if c not in table:
                    table[c] = Witness("product", c, (c1, c2))
                    grew = True
    return DescentImage(side, curve_b, frozenset(table), MappingProxyType(table))


def phi_image(
    E: Curve,
    quad: BiquadQuadruple,
    factors: QuarticFactors | None = None,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> DescentImage:
    """Verified subgroup of phi(E(Q)) for E: y^2 = x^3 - n x, n = p^4 + q^4.

    Always contains 1, -n (from (0,0)), -1 (solution (M,e,N) = (p,1,q^2) of
    N^2 = -M^4 + n e^4) and n (solution (1,p,q^2) of N^2 = n M^4 - e^4).
    When the quadruple carries generating parameters, the quartic factor
    class B*D joins via the fourth-power identity BD - b^4 AC = N^2, and
    closure brings the full eight-element subgroup.
    """
    n = quad.n
    if E.n != n:
        raise ValueError("curve does not match the quadruple")
    p, q = quad.p, quad.q
    gens: list[tuple[int, Witness]] = []

    c_n = square_class(n, effort)
    gens.append((-c_n, Witness("coefficient", -c_n)))
    gens.append((-1, Witness("torsor", -1, (-1, n, p, 1, q * q))))
    gens.append((c_n, Witness("torsor", c_n, (n, -1, 1, p, q * q))))

    params = quad.euler_params
    if factors is None and params is not None:
        factors = quartic_factors(*params)
    if factors is not None:
        if params is None:
            raise ValueError("quartic factor witnesses need generating parameters")
        a, b = params
        if factors.n_raw != n * quad.reduction**4:
            raise ValueError("quartic factors do not match the quadruple")
        _, nwit = fourth_power_witness(a, b)
        c_bd = square_class(factors.B * factors.D, effort)
        g = quad.reduction
        if g == 1:
            w = Witness("torsor", c_bd, (factors.b1, factors.b2, 1, b, nwit))
        else:
            # scale the raw-model point (BD/b^2, BD*N/b^3) down to E
            x = Fraction(factors.B * factors.D, b * b * g * g)
            y = Fraction(factors.B * factors.D * nwit, b**3 * g**3)
            w = Witness(
                "point",
                c_bd,
                (x.numerator, x.denominator, y.numerator, y.denominator),
            )
        gens.append((c_bd, w))

    return _close("phi", E.b, gens)


def psi_image(
    E_dual: Curve,
    quad: BiquadQuadruple,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> DescentImage:
    """Verified subgroup of psi on the dual curve y^2 = x^3 + 4 n x.

    Contains 1, the class of 4n ~ n (from (0,0)) and 2, witnessed by the
    identity 2(p+q)^4 + 2(p^4+q^4) = (2(p^2+pq+q^2))^2; closure adds 2n.
    """
    n = quad.n
    if E_dual.b != 4 * n:
        raise ValueError("expected the dual curve with coefficient 4n")
    p, q = abs(quad.p), abs(quad.q)
    gens: list[tuple[int, Witness]] = []

    c_n = square_class(n, effort)
    gens.append((c_n, Witness("coefficient", c_n)))
    m = p + q
    nn = 2 * (p * p + p * q + q * q)
    gens.append((2, Witness("torsor", 2, (2, 2 * n, m, 1, nn))))

    return _close("psi", E_dual.b, gens)


def rank_lower_bound(phi: DescentImage, psi: DescentImage) -> int:
    """From |phi| * |psi| = 2^{r+2}: the verified subgroups give a bound."""
    m1, m2 = phi.order, psi.order
    for m in (m1, m2):
        if m & (m - 1):
            raise ValueError(f"image size {m} is not a power of 2")
    return (m1.bit_length() - 1) + (m2.bit_length() - 1) - 2


def yoshida_upper_bound(
    n: int,
    f: Factorization | None = None,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> int:
    """Upper bound 2 * #{primes dividing 2n} - 1, proven for y^2 = x^3 + D x
    (Silverman, The Arithmetic of Elliptic Curves, Prop. X.6.2; D = -n).

    Certificates keep its historical field name `heuristic_upper`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if f is None:
        f = factor(2 * n, effort)
    if f.value != 2 * n:
        raise ValueError("factorization is not of 2n")
    if not f.certified:
        raise ValueError("factorization must be certified complete")
    return 2 * len(f.distinct_primes()) - 1

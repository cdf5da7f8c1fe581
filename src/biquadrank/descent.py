"""Square-class bookkeeping for the two 2-isogeny descent maps on
y^2 = x^3 - n x.

For E: y^2 = x^3 + bx with 2-isogenous dual y^2 = x^3 - 4bx, the maps
phi(P) = x(P) mod squares (with the usual conventions at O and (0,0)) land
in Q*/Q*^2, and |phi(G)| * |psi(G-dual)| = 2^{r+2} where r is the rank.
Exhibiting explicit elements of either image therefore gives an
unconditional rank lower bound.

Every generator recorded here carries a witness that re-verifies by
exact integer arithmetic: the coefficient class of (0,0), an affine
point's x-coordinate, or a solution (M, e, N) of a homogeneous space
N^2 = b1 M^4 + b2 e^4 with b1 b2 = b.  No torseur solving is attempted:
only witnesses that exist in closed form for n = p^4 + q^4 are used.

Square classes are canonicalized to signed squarefree integers once, at
construction, from the primes of the one certified factorization of 2n.
The classes read there, of n and of the quartic factor B*D (which
divides the raw n*g^4, g the reduction), have all their primes of odd
exponent among them, so reading a class is division by known primes plus
a perfect-square check on the cofactor; a class with a prime outside them
raises ValueError instead of coming out wrong.  Only when that
factorization is not given do the images factor, by factor_2n (through
the quartic factors A*B*C*D), and yoshida_upper_bound, by factor(2n).

An image is the F2 span of its generators (Silverman, AEC X.4; Cremona,
Algorithms for Modular Elliptic Curves 3.6).  A class is a bitmask over
(-1, p_1, ..., p_k), the p_i the primes of 2n, so the product of two
classes is the XOR of their vectors, and the order of the image is
2^rank for the F2 rank of the generator vectors.  Verification never
factors: two integers share a class iff their product is a positive
perfect square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, factor, is_square
from .biquadrate import BiquadQuadruple, factor_2n, fourth_power_witness, quartic_factors
from .curve import Curve


class WitnessInvalid(RuntimeError):
    """A stored witness failed exact re-verification."""


def square_class(m: int, primes: tuple[int, ...]) -> int:
    """Canonical representative, the signed squarefree part, read from
    primes that include every prime of odd exponent in m.

    Raises ValueError when the cofactor left after dividing out the primes
    is not a perfect square, i.e. m has a prime of odd exponent outside them.
    """
    if m == 0:
        raise ValueError("0 has no square class")
    c, rest = (-1 if m < 0 else 1), abs(m)
    for p in primes:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2:
            c *= p
    if not is_square(rest):
        raise ValueError(f"{m} has a prime of odd exponent outside {primes}")
    return c


def _primes_of_2n(n: int, f: Factorization | None) -> tuple[int, ...]:
    """The primes of 2n from its certified factorization f (factored when None)."""
    if f is None:
        f = factor(2 * n)
    if f.value != 2 * n:
        raise ValueError("factorization is not of 2n")
    if not f.certified:
        raise ValueError("factorization must be certified complete")
    return f.distinct_primes()


def _same_class(m1: int, m2: int) -> bool:
    return m1 * m2 > 0 and is_square(m1 * m2)


def _vector(c: int, primes: tuple[int, ...]) -> int:
    """The squarefree class c as an F2 vector: bit 0 for the sign, bit
    i + 1 for primes[i].  Raises ValueError when c is not a product of
    distinct listed primes (up to sign)."""
    v, rest = int(c < 0), abs(c)
    for i, p in enumerate(primes):
        if rest % p == 0:
            rest //= p
            v |= 2 << i
    if rest != 1:
        raise ValueError(f"{c} is not a squarefree class over {primes}")
    return v


@dataclass(frozen=True)
class Witness:
    """Exactly checkable evidence that a square class lies in an image.

    data layout by kind:
      coefficient  ()                      class of the curve coefficient b
      point        (xn, xd, yn, yd)        affine point, class of x
      torsor       (b1, b2, M, e, N)       N^2 = b1 M^4 + b2 e^4, b1 b2 = b
    """

    kind: str
    square_class: int
    data: tuple[int, ...] = ()

    def verify(self, curve_b: int) -> None:
        c = self.square_class
        if self.kind == "coefficient":
            ok = _same_class(curve_b, c)
        elif self.kind == "point":
            xn, xd, yn, yd = self.data
            x = Fraction(xn, xd)
            y = Fraction(yn, yd)
            ok = x != 0 and y * y == x**3 + curve_b * x and _same_class(xn * xd, c)
        elif self.kind == "torsor":
            b1, b2, m, e, nn = self.data
            ok = (
                b1 * b2 == curve_b
                and m != 0
                and e != 0
                and nn * nn == b1 * m**4 + b2 * e**4
                and _same_class(b1, c)
            )
        else:
            ok = False
        if not ok:
            raise WitnessInvalid(f"{self.kind} witness for class {c} fails")


@dataclass(frozen=True)
class DescentImage:
    """The subgroup of Q*/Q*^2 spanned by witnessed generators inside one
    descent image, read as F2 vectors over (-1, primes).  The rank counts
    that subgroup only when primes are distinct primes; certificate.reverify
    checks them against the factorization of 2n."""

    side: str
    curve_b: int
    primes: tuple[int, ...]
    generators: tuple[Witness, ...]

    def __post_init__(self):
        if self.side not in ("phi", "psi"):
            raise ValueError("side must be phi or psi")
        self.reverify()

    def reverify(self) -> None:
        """Re-check every witness; raises WitnessInvalid on any failure, and
        ValueError for a class with a prime outside primes."""
        for w in self.generators:
            w.verify(self.curve_b)
            _vector(w.square_class, self.primes)

    @property
    def rank(self) -> int:
        """F2 rank of the generator vectors, by XOR elimination."""
        basis: list[int] = []
        for w in self.generators:
            v = _vector(w.square_class, self.primes)
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        return len(basis)

    @property
    def order(self) -> int:
        return 1 << self.rank


def phi_image(E: Curve, quad: BiquadQuadruple, f: Factorization | None = None) -> DescentImage:
    """Verified subgroup of phi(E(Q)) for E: y^2 = x^3 - n x, n = p^4 + q^4.

    Always contains 1, -n (from (0,0)), -1 (solution (M,e,N) = (p,1,q^2) of
    N^2 = -M^4 + n e^4) and n (solution (1,p,q^2) of N^2 = n M^4 - e^4).
    When the quadruple carries generating parameters, the quartic factor
    class B*D joins via the fourth-power identity BD - b^4 AC = N^2, and
    the span has order eight.  Every class is read from the primes of the
    certified factorization f of 2n (when None, factor_2n(quad) computes it).
    """
    n = quad.n
    if E.n != n:
        raise ValueError("curve does not match the quadruple")
    primes = _primes_of_2n(n, f or factor_2n(quad))
    p, q = quad.p, quad.q
    c_n = square_class(n, primes)
    gens = [
        Witness("coefficient", -c_n),
        Witness("torsor", -1, (-1, n, p, 1, q * q)),
        Witness("torsor", c_n, (n, -1, 1, p, q * q)),
    ]

    if quad.euler_params is not None:
        a, b = quad.euler_params
        factors = quartic_factors(a, b)
        _, nwit = fourth_power_witness(a, b)
        c_bd = square_class(factors.B * factors.D, primes)
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
        gens.append(w)

    return DescentImage("phi", E.b, primes, tuple(gens))


def psi_image(E_dual: Curve, quad: BiquadQuadruple, f: Factorization | None = None) -> DescentImage:
    """Verified subgroup of psi on the dual curve y^2 = x^3 + 4 n x.

    Contains 1, the class of 4n ~ n (from (0,0)) and 2, witnessed by the
    identity 2(p+q)^4 + 2(p^4+q^4) = (2(p^2+pq+q^2))^2; they span 2n too.
    The class of n is read from the primes of the factorization f of 2n
    (when None, factor_2n(quad) computes it).
    """
    n = quad.n
    if E_dual.b != 4 * n:
        raise ValueError("expected the dual curve with coefficient 4n")
    p, q = abs(quad.p), abs(quad.q)
    primes = _primes_of_2n(n, f or factor_2n(quad))
    c_n = square_class(n, primes)
    gens = (
        Witness("coefficient", c_n),
        Witness("torsor", 2, (2, 2 * n, p + q, 1, 2 * (p * p + p * q + q * q))),
    )
    return DescentImage("psi", E_dual.b, primes, gens)


def rank_lower_bound(phi: DescentImage, psi: DescentImage) -> int:
    """From |phi| * |psi| = 2^{r+2}: the verified subgroups give a bound."""
    return phi.rank + psi.rank - 2


def yoshida_upper_bound(n: int, f: Factorization | None = None) -> int:
    """Upper bound 2 * #{primes dividing 2n} - 1, proven for y^2 = x^3 + D x
    (Silverman, The Arithmetic of Elliptic Curves, Prop. X.6.2; D = -n).

    Certificates keep its historical field name `heuristic_upper`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return 2 * len(_primes_of_2n(n, f)) - 1

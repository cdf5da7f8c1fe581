"""Square-class bookkeeping for the two 2-isogeny descent maps on
y^2 = x^3 - n x.

For E: y^2 = x^3 + bx with 2-isogenous dual y^2 = x^3 - 4bx, the maps
phi(P) = x(P) mod squares (with the usual conventions at O and (0,0)) land
in Q*/Q*^2, and |phi(G)| * |psi(G-dual)| = 2^{r+2} where r is the rank.
Exhibiting explicit elements of either image therefore gives an
unconditional rank lower bound.

Every generator is a rational point on its curve y^2 = x^3 + b x, and its
class is that of x, with (0, 0) read as b (Silverman, AEC X.4.9).  A
solution (M, e, N) of a homogeneous space N^2 = b1 M^4 + b2 e^4 with
b1 b2 = b is the point (b1 M^2/e^2, b1 M N/e^3) in the class of b1, so
one on-curve check by exact integer arithmetic verifies any of them.  No
homogeneous space is searched: for n = p^4 + q^4 the points are in closed
form,

  phi   (0, 0), -P1 = (-p^2, -p q^2), P1 + (0, 0) = (n/p^2, n q^2/p^3),
        and for the family (BD/(bg)^2, BD N/(bg)^3), N^2 = BD - b^4 AC
        (N = a^2 |witness_root_polynomial|) and g the reduction;
  psi   (0, 0) and (2(p+q)^2, 4(p+q)(p^2+pq+q^2)) on y^2 = x^3 + 4n x,
        from 2(p+q)^4 + 2n = (2(p^2+pq+q^2))^2.

Square classes are canonicalized to signed squarefree integers from the
primes of the one complete factorization of 2n.  Every class read here
has all its primes of odd exponent among them, so reading a class is
division by known primes plus a perfect-square check on the cofactor; a
class with a prime outside them raises ValueError instead of coming out
wrong.  Only when that factorization is not given do the images factor,
by factor_2n (through the quartic factors A*B*C*D), and
yoshida_upper_bound, by factor(2n).

An image is the F2 span of its generators (Silverman, AEC X.4; Cremona,
Algorithms for Modular Elliptic Curves 3.6).  A class is a bitmask over
(-1, p_1, ..., p_k), the p_i the primes of 2n, so the product of two
classes is the XOR of their vectors, and the order of the image is
2^rank for the F2 rank of the generator vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import Factorization, factor, is_square, valuation
from .biquadrate import BiquadQuadruple, factor_2n, witness_root_polynomial
from .curve import Curve, OffCurve, Point, is_on_curve


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
        e = valuation(rest, p)
        rest //= p**e
        if e % 2:
            c *= p
    if not is_square(rest):
        raise ValueError(f"{m} has a prime of odd exponent outside {primes}")
    return c


def _primes_of_2n(n: int, f: Factorization | None) -> tuple[int, ...]:
    """The primes of 2n from its factorization f (factored when None)."""
    if f is None:
        f = factor(2 * n)
    if f.value != 2 * n:
        raise ValueError("factorization is not of 2n")
    return f.distinct_primes()


def _vector(c: int, primes: tuple[int, ...]) -> int:
    """The squarefree class c, a product of distinct listed primes up to
    sign, as an F2 vector: bit 0 for the sign, bit i + 1 for primes[i]."""
    v, rest = int(c < 0), abs(c)
    for i, p in enumerate(primes):
        if rest % p == 0:
            rest //= p
            v |= 2 << i
    return v


@dataclass(frozen=True)
class DescentImage:
    """The subgroup of Q*/Q*^2 spanned by the classes of rational points on
    y^2 = x^3 + curve_b x inside one descent image, read as F2 vectors over
    (-1, primes).  The rank counts that subgroup only when primes are
    distinct primes; certificate.reverify checks that they are the primes
    of 2n."""

    side: str
    curve_b: int
    primes: tuple[int, ...]
    generators: tuple[Point, ...]

    def __post_init__(self):
        if self.side not in ("phi", "psi"):
            raise ValueError("side must be phi or psi")
        self.reverify()

    def reverify(self) -> None:
        """Check that every generator is an affine point on the curve and
        that its class lies over primes; raises ValueError (OffCurve for a
        point) on any failure."""
        E = Curve(self.curve_b)
        for P in self.generators:
            if P.is_infinity or not is_on_curve(E, P):
                raise OffCurve(f"generator {P} is not an affine point on {E}")
        self.classes  # reading them raises ValueError for a class off primes

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """Each generator's class: that of x, with (0, 0) read as curve_b."""
        return tuple(square_class(P.x.numerator * P.x.denominator or self.curve_b, self.primes)
                     for P in self.generators)

    @cached_property
    def rank(self) -> int:
        """F2 rank of the generator classes, by XOR elimination."""
        basis: list[int] = []
        for c in self.classes:
            v = _vector(c, self.primes)
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

    Always contains 1, -n (from (0,0)), -1 (from -P1 = (-p^2, -p q^2)) and
    n (from P1 + (0, 0) = (n/p^2, n q^2/p^3)).  When the quadruple carries
    generating parameters, the quartic factor class B*D joins through the
    point (BD/(bg)^2, BD N/(bg)^3), N from the fourth-power identity
    BD - b^4 AC = N^2 and g the reduction, and the span has order eight.
    Every class is read from the primes of the factorization f of 2n (when
    None, factor_2n(quad) computes it).
    """
    n = quad.n
    if E.n != n:
        raise ValueError("curve does not match the quadruple")
    primes = _primes_of_2n(n, f or factor_2n(quad))
    p, q = abs(quad.p), abs(quad.q)
    gens = [
        Point.affine(0, 0),
        Point.affine(-p * p, -p * q * q),
        Point.affine(Fraction(n, p * p), Fraction(n * q * q, p**3)),
    ]
    if quad.euler_params is not None:
        a, b = quad.euler_params
        bd = quad.quartic.b1
        nwit = a * a * abs(witness_root_polynomial(a, b))  # checked on the curve below
        bg = b * quad.reduction
        gens.append(Point.affine(Fraction(bd, bg * bg), Fraction(bd * nwit, bg**3)))
    return DescentImage("phi", E.b, primes, tuple(gens))


def psi_image(E_dual: Curve, quad: BiquadQuadruple, f: Factorization | None = None) -> DescentImage:
    """Verified subgroup of psi on the dual curve y^2 = x^3 + 4 n x.

    Contains 1, the class of 4n ~ n (from (0,0)) and 2, from the point
    (2(p+q)^2, 4(p+q)(p^2+pq+q^2)) that the identity
    2(p+q)^4 + 2(p^4+q^4) = (2(p^2+pq+q^2))^2 puts on the curve; they span
    2n too.  The class of n is read from the primes of the factorization f
    of 2n (when None, factor_2n(quad) computes it).
    """
    n = quad.n
    if E_dual.b != 4 * n:
        raise ValueError("expected the dual curve with coefficient 4n")
    p, q = abs(quad.p), abs(quad.q)
    primes = _primes_of_2n(n, f or factor_2n(quad))
    s = p + q
    gens = (Point.affine(0, 0), Point.affine(2 * s * s, 4 * s * (p * p + p * q + q * q)))
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

"""Root numbers for y^2 = x^3 - n x via the closed-form criterion
omega = sgn(-n) * epsilon(n) * prod_{p^2 || n0} (-1/p), n not divisible by 4,
and the conditional parity adjustment of rank lower bounds.

No L-functions here: epsilon(n) is a table on n mod 16 and the product runs
over the primes whose square exactly divides n0, the fourth-power-free part
of n = n0 k^4 (E_n is isomorphic to E_n0, and n = n0 mod 16 as k is odd).
Every f here is the factorization of 2n, as in descent, so one
factorization serves both.
For n with a representation n = p^4 + q^4, gcd(p, q) = 1, every odd prime
divisor of n is 1 mod 8, so the product is +1 without factoring anything;
root_number records which justification was used so certificates can be
audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import Factorization, factor, jacobi
from .biquadrate import BiquadQuadruple, PropertyViolation

_EPS_MINUS = frozenset({1, 3, 11, 13})
_EPS_PLUS = frozenset({2, 5, 6, 7, 9, 10, 14, 15})


class OutOfDomain(ValueError):
    """n is outside the twist-normalized domain (positive, not 0 mod 4)."""


@dataclass(frozen=True)
class RootNumber:
    """Sign of the functional equation, assembled from its three factors.

    Only the evidence is stored: square_part_product and residue = n mod
    16; epsilon (the table on the residue) and omega = -epsilon *
    square_part_product are derived.  Parity conclusions drawn from omega
    assume the parity conjecture.  justification records how the square
    part's contribution was established: "squarefree" (n0 has no square
    part), "factored" (explicit residue symbols), or "coprime-representation"
    (all odd prime divisors are 1 mod 8, so every symbol is +1).
    """

    square_part_product: int
    residue: int
    justification: str

    def __post_init__(self):
        if self.square_part_product not in (-1, 1):
            raise ValueError(f"square part product {self.square_part_product} is not +1 or -1")
        if self.residue not in _EPS_MINUS | _EPS_PLUS:
            raise OutOfDomain(f"residue {self.residue} is not n mod 16 for any n with 4 not dividing n")

    @property
    def epsilon(self) -> int:
        return epsilon(self.residue)

    @property
    def omega(self) -> int:
        return -self.epsilon * self.square_part_product


def epsilon(n: int) -> int:
    """The mod-16 factor of the root number for positive n, 4 not | n."""
    if n <= 0:
        raise OutOfDomain("n must be positive")
    res = n % 16
    if res in _EPS_MINUS:
        return -1
    if res in _EPS_PLUS:
        return 1
    raise OutOfDomain(f"n = {res} (mod 16) requires 4 | n; twist-normalize first")


def _has_coprime_pair(quad: BiquadQuadruple) -> bool:
    return gcd(quad.p, quad.q) == 1 or gcd(quad.r, quad.s) == 1


def _of_2n(n: int, f: Factorization | None) -> Factorization:
    """f, checked to be the factorization of 2n, or factor(2n) when f is None."""
    if f is None:
        return factor(2 * n)
    if f.value != 2 * n:
        raise ValueError("factorization is not of 2n")
    return f


def root_number(
    n: int,
    f: Factorization | None = None,
    quad: BiquadQuadruple | None = None,
) -> RootNumber:
    """omega(E_n) from the closed form, for positive n not divisible by 4.

    f is the factorization of 2n, factored when None and needed.  A
    coprime representation n = p^4 + q^4 in quad takes precedence: it
    forces every symbol to +1, and f, if given, is only checked.
    Otherwise the square part of n0 is read from the primes of exponent
    2 mod 4 in f, other than 2 (4 does not divide n, so 2's exponent in n
    is at most 1).
    """
    epsilon(n)  # OutOfDomain unless n > 0 and 4 does not divide n

    if quad is not None and quad.n != n:
        raise ValueError("quadruple does not match n")
    coprime = quad is not None and _has_coprime_pair(quad)
    if f is not None or not coprime:
        f = _of_2n(n, f)
    if coprime:
        return RootNumber(1, n % 16, "coprime-representation")

    square_primes = [p for p, e in f.primes if e % 4 == 2 and p != 2]
    spp = 1
    for p in square_primes:
        spp *= jacobi(-1, p)
    return RootNumber(spp, n % 16, "factored" if square_primes else "squarefree")


def prime_divisor_law(
    n: int,
    f: Factorization | None = None,
    quad: BiquadQuadruple | None = None,
) -> bool:
    """Check that every odd prime divisor of n = p^4 + q^4 is 1 (mod 8),
    reading the primes from f, the factorization of 2n (factored when None).

    This is a theorem for n with a primitive representation, so a violation
    is not a "false": it means the factorization or the quadruple is wrong,
    and raises PropertyViolation.
    """
    if quad is not None:
        if quad.n != n:
            raise ValueError("quadruple does not match n")
        if not quad.primitive:
            raise ValueError("law applies to primitive quadruples")
    for p in _of_2n(n, f).distinct_primes():
        if p != 2 and p % 8 != 1:
            raise PropertyViolation(
                f"odd prime {p} | {n} with {p} = {p % 8} (mod 8); "
                "factorization or quadruple is defective"
            )
    return True


def parity_adjusted_bound(lower: int, omega: RootNumber | int) -> int:
    """Raise the bound by one when its parity disagrees with omega.

    Conditional on the parity conjecture; callers must present the result
    as conditional.
    """
    if lower < 0:
        raise ValueError("lower bound must be nonnegative")
    w = omega.omega if isinstance(omega, RootNumber) else omega
    if w not in (-1, 1):
        raise ValueError("omega must be +1 or -1")
    expected = 1 if lower % 2 == 0 else -1
    return lower + 1 if expected != w else lower

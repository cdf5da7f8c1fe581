"""Exact integer arithmetic: gcds, Jacobi symbols, factoring, power-free parts.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic for a fixed seed.  Factoring is trial division up to a bound,
then gcd splits against any known parts of the number (for a family
quadruple, the quartic factors A, B, C, D of its raw n), then Brent's variant
of Pollard rho with a seeded RNG on the composite pieces left; primality is
Miller-Rabin, deterministic below the published 3.3e24 threshold and with
enough random rounds above it that the error probability is below 2**-128.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Deterministic default seed for the rho stage.
DEFAULT_SEED = 0x5EED

# Strong-pseudoprime bases proving primality for all n < 3317044064679887385961981.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 64

_SIEVE_BOUND = 1_000_000
_sieve_primes: np.ndarray | None = None


class EffortExceeded(RuntimeError):
    """Factoring ran out of budget.

    Carries the partially factored prime part and the unfactored composite
    residual so callers can decide whether the partial answer suffices.
    """

    def __init__(self, value: int, partial: tuple[tuple[int, int], ...], residual: int):
        super().__init__(
            f"factoring budget exhausted for {value}: residual composite {residual}"
        )
        self.value = value
        self.partial = partial
        self.residual = residual


@dataclass(frozen=True)
class FactorEffort:
    """Budget knobs for factor().  rho_iterations counts squarings mod n."""

    trial_bound: int = _SIEVE_BOUND
    rho_iterations: int = 8_000_000
    seed: int = DEFAULT_SEED


DEFAULT_EFFORT = FactorEffort()


@dataclass(frozen=True)
class Factorization:
    """Complete factorization value = sign * prod(p**e), primes ascending."""

    value: int
    primes: tuple[tuple[int, int], ...]
    certified: bool

    def __post_init__(self):
        prod = 1
        for p, e in self.primes:
            prod *= p**e
        if prod != abs(self.value):
            raise ValueError("factorization does not multiply back to |value|")
        if list(self.primes) != sorted(self.primes):
            raise ValueError("prime factors must be sorted")

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.primes)

    def exponent_of(self, p: int) -> int:
        for q, e in self.primes:
            if q == p:
                return e
        return 0


def _primes_below_bound() -> np.ndarray:
    global _sieve_primes
    if _sieve_primes is None:
        flags = np.ones(_SIEVE_BOUND, dtype=bool)
        flags[:2] = False
        for i in range(2, math.isqrt(_SIEVE_BOUND) + 1):
            if flags[i]:
                flags[i * i :: i] = False
        _sieve_primes = np.flatnonzero(flags).astype(np.uint64)
    return _sieve_primes


def _residues(m: int, primes: np.ndarray) -> np.ndarray:
    """m mod each prime, by Horner over the 32-bit limbs of m: with every
    prime below 2^20 each partial value stays below 2^52, so uint64 is exact."""
    r = np.zeros(len(primes), dtype=np.uint64)
    for shift in range(32 * ((m.bit_length() - 1) // 32), -1, -32):
        r = ((r << np.uint64(32)) | np.uint64((m >> shift) & 0xFFFFFFFF)) % primes
    return r


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0; equals the Legendre symbol for prime m."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("modulus must be a positive odd integer")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    if k == 4:
        return math.isqrt(math.isqrt(n))
    # Newton iteration from a bit-length guess; floats would overflow for big n
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_fourth_power(n: int) -> bool:
    return n >= 0 and iroot(n, 4) ** 4 == n


def is_probable_prime(n: int, seed: int = DEFAULT_SEED) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, error < 2**-128 above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        rng = random.Random(seed ^ (n & 0xFFFFFFFF))
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return not any(witness(a) for a in bases)


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One nontrivial factor of composite n, or None if budget ran out.

    Returns (factor_or_None, iterations_used).
    """
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack: the batch skipped past the factor
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                used += 1
        if 1 < g < n:
            return g, used
        # g == 1 means budget ran out mid-cycle; g == n means bad luck, retry
    return None, used


def _split(c: int, part: int) -> list[int]:
    """c as a product of proper gcds with part, divided out until the rest is
    coprime to part or divides it."""
    pieces = []
    g = math.gcd(c, part)
    while 1 < g < c:
        pieces.append(g)
        c //= g
        g = math.gcd(c, part)
    return pieces + [c]


def factor(n: int, effort: FactorEffort = DEFAULT_EFFORT, parts: tuple[int, ...] = ()) -> Factorization:
    """Complete factorization of n != 0.

    `parts` are integers that may share factors with n, such as known
    factors of a multiple of n: after trial division each piece of n is
    split by its gcds with each part before rho runs.  A gcd can only split,
    so parts change the work and never the result; a part that is 0,
    negative, a multiple of n or coprime to it splits nothing.

    Raises EffortExceeded (with the partial factorization and composite
    residual attached) when the rho budget runs out.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    m = abs(n)
    found: dict[int, int] = {}
    # trial division tests every prime up to bound, and no larger one
    bound = max(0, min(effort.trial_bound, _SIEVE_BOUND))
    primes = _primes_below_bound()
    primes = primes[: np.searchsorted(primes, np.uint64(min(bound, math.isqrt(m))), side="right")]
    for p in primes[_residues(m, primes) == 0].tolist():
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if m > 1 and (m < bound * bound or is_probable_prime(m, effort.seed)):
        # below bound**2 any survivor of trial division is prime
        found[m] = found.get(m, 0) + 1
        m = 1

    budget = effort.rho_iterations
    rng = random.Random(effort.seed ^ (abs(n) & 0xFFFFFFFFFFFF))
    stack = [m] if m > 1 else []
    for part in parts:
        stack = [piece for c in stack for piece in _split(c, part)]
    while stack:
        c = stack.pop()
        if is_probable_prime(c, effort.seed):
            found[c] = found.get(c, 0) + 1
            continue
        # perfect powers make rho degenerate; peel them first
        peeled = False
        for k in (2, 3, 5, 7):
            r = iroot(c, k)
            if r**k == c:
                stack.extend([r] * k)
                peeled = True
                break
        if peeled:
            continue
        g, used = _brent_rho(c, rng, budget)
        budget -= used
        if g is None:
            residual = c
            for other in stack:
                if is_probable_prime(other, effort.seed):
                    found[other] = found.get(other, 0) + 1
                else:
                    residual *= other
            raise EffortExceeded(n, tuple(sorted(found.items())), residual)
        stack.extend([g, c // g])

    primes = tuple(sorted(found.items()))
    return Factorization(value=n, primes=primes, certified=True)


def fourth_power_free_part(n: int, effort: FactorEffort = DEFAULT_EFFORT) -> tuple[int, int]:
    """(m, k) with n = m * k**4, m fourth-power-free, sign(m) = sign(n)."""
    if n == 0:
        raise ValueError("0 has no fourth-power-free part")
    f = factor(n, effort)
    m, k = f.sign, 1
    for p, e in f.primes:
        m *= p ** (e % 4)
        k *= p ** (e // 4)
    return m, k

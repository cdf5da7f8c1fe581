"""Exact integer arithmetic: gcds, Jacobi symbols, factoring, power-free parts.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic: every random choice is seeded from DEFAULT_SEED and the
number at hand, so the one setting is factor's budget, a plain int of
squarings (DEFAULT_EFFORT unless given).  Factoring is trial division by
the primes below 10^6, then gcd splits against any known parts of the
number (for a family quadruple, the quartic factors A, B, C, D of its raw
n), then one stage of Pollard's p - 1 method on the first composite piece
large enough to be worth it, then Brent's variant of Pollard rho on the
composite pieces left (a prime, once found, takes its whole power out of
the other pieces); primality is Miller-Rabin, deterministic below the
published 3.3e24 threshold and with enough random rounds above it that the
error probability is below 2**-128.

Trial division runs on what is left of m in blocks of 2048, 4096, 8192, then
16384 sieve primes, and stops when the next block starts past the primes up to
min(10^6, isqrt(m)): m < p^2 then has no factor below p, that block's first
prime, so m is 1 or a prime.  A block reads m mod p as the sum of
l_i * (2^(40 i) mod p) over the 40-bit limbs l_i of m, one modulo per 15 limbs
(the chunk above carries in times 2^600 mod p; with p < 2^20 a sum stays below
15 * 2^60 + 2^40 < 2^64), from a uint32 table built row by row on first need.
The last sum needs no modulo: a multiplication by 1/p mod 2^64 tells whether p
divides it.

The p - 1 stage (Pollard, Proc. Cambridge Philos. Soc. 76 (1974), stage 1
only) raises x = 2 mod c to E, the product of the largest power of each
prime up to B1 = 10^4 within B1 (14,447 bits), in 20 batches of 64 prime
powers with a checkpoint gcd(x - 1, c) after each (Montgomery, Math. Comp.
48 (1987)); a hit replays its batch one prime power at a time.  So it splits
off every prime p of c whose order of 2 divides E (p - 1 a product of prime
powers up to B1), and parts two such primes unless their orders complete at
the same prime power.  The stage costs about 14,447 squarings mod c and rho
about sqrt(p) <= c^(1/4) steps for the least prime p of c, so it runs at
most once per factor call, and only on a piece c with c^(1/4) above that
cost.  A gcd only splits, so the stage changes the work and never the result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Seed of the rho walks and of the Miller-Rabin bases above 3.3e24.
DEFAULT_SEED = 0x5EED

# Strong-pseudoprime bases proving primality for all n < 3317044064679887385961981.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 64

_SIEVE_BOUND = 1_000_000
_LIMB_BITS = 40
_CHUNK = 15  # limbs per modulo
_FIRST_BLOCK = 1 << 11  # primes in the first block of trial division
_BLOCK = 1 << 14  # the most primes in one block; each block doubles up to it
_sieve_primes: np.ndarray | None = None
_weights: list[np.ndarray] = []
_inverses = (np.empty((2, 0), np.uint64), 0)  # rows 1/p mod 2^64 and (2^64 - 1) // p, and how many p are done
_PM1_BOUND = 10_000  # B1 of the p - 1 stage
_PM1_SQUARINGS = 14_447  # bit length of its exponent: the stage's cost and gate
_PM1_BATCH = 64  # prime powers between two gcd checkpoints: 20 batches up to B1
_pm1_batches: list[tuple[int, list[int]]] | None = None  # (product, prime powers) per batch


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


DEFAULT_EFFORT = 8_000_000  # squarings per factor call: see factor


@dataclass(frozen=True)
class Factorization:
    """Complete factorization value = sign * prod(p**e), primes ascending."""

    value: int
    primes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if math.prod(p**e for p, e in self.primes) != abs(self.value):
            raise ValueError("factorization does not multiply back to |value|")
        if list(self.primes) != sorted(self.primes):
            raise ValueError("prime factors must be sorted")

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.primes)


def _primes_below_bound() -> np.ndarray:
    global _sieve_primes
    if _sieve_primes is None:
        odd = np.ones(_SIEVE_BOUND // 2, dtype=bool)  # odd[i] flags 2i + 1
        for i in range(3, math.isqrt(_SIEVE_BOUND) + 1, 2):
            if odd[i // 2]:
                odd[i * i // 2 :: i] = False
        primes = np.flatnonzero(odd).view(np.uint64)  # in place from here on
        primes <<= np.uint64(1)
        primes |= np.uint64(1)
        primes[0] = 2  # in the slot of 1
        _sieve_primes = primes
    return _sieve_primes


def _trial_divisors(m: int, lo: int, hi: int) -> list[int]:
    """The sieve primes primes[lo:hi] that divide m > 0."""
    global _weights
    limbs = [np.uint64(m >> s & (1 << _LIMB_BITS) - 1) for s in range(0, m.bit_length(), _LIMB_BITS)]
    chunks = [limbs[i : i + _CHUNK] for i in range(0, len(limbs), _CHUNK)][::-1]
    primes, rows = _primes_below_bound(), _weights
    while len(rows) < (_CHUNK if len(chunks) > 1 else len(limbs) - 1):  # row 0 is all ones
        row = np.left_shift(rows[-1] if rows else np.ones(len(primes), np.uint32), _LIMB_BITS, dtype=np.uint64)
        rows = _weights = rows + [np.remainder(row, primes, out=row).astype(np.uint32)]
    block = primes[lo:hi]
    r, t = np.empty(len(block), np.uint64), np.empty(len(block), np.uint64)
    for k, chunk in enumerate(chunks):
        r *= rows[_CHUNK - 1][lo:hi] if k else 0  # clear, or carry in the chunk above
        r += chunk[0]
        for limb, row in zip(chunk[1:], rows):
            r += np.multiply(row[lo:hi], limb, out=t, dtype=np.uint64)  # numpy 1 would pick uint32
        if k < len(chunks) - 1:
            np.remainder(r, block, out=r)
    inverses, bounds = _divisibility(lo, hi)
    return block[np.multiply(r, inverses, out=r) <= bounds].tolist()


def _divisibility(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """1/p mod 2^64 and (2^64 - 1) // p for the sieve primes p in primes[lo:hi], made on first
    need: r < 2^64 is a multiple of p exactly when r/p mod 2^64 is at most (2^64 - 1) // p
    (Granlund and Montgomery, PLDI 1994).  For p = 2 they are 2^63 and 0: 2^63 r = 0 mod 2^64.
    The table for every sieve prime is allocated once and filled from the first prime up; the
    table and the count filled are published together, after the fill, so every caller reads
    final values even while another thread extends the fill."""
    global _inverses
    tables, done = _inverses
    if done < hi:
        primes = _primes_below_bound()
        if done == 0:
            tables = np.empty((2, len(primes)), np.uint64)
        p = primes[done:hi]
        x, bound = p.copy(), np.floor_divide(np.uint64(2**64 - 1), p)
        for _ in range(5):  # p * p = 1 mod 8; each Newton step x (2 - p x) doubles the bits of 1/p
            x *= np.uint64(2) - p * x
        if done == 0:
            x[0], bound[0] = 1 << 63, 0
        tables[:, done:hi] = x, bound
        _inverses = (tables, hi)
    return tables[0, lo:hi], tables[1, lo:hi]


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


def valuation(m: int, p: int) -> int:
    """The exponent of the prime p in m != 0.

    Raises ValueError for p < 2 or m = 0, where the division loop would
    never end.
    """
    if p < 2 or m == 0:
        raise ValueError(f"valuation at {p} of {m} needs p >= 2 and m != 0")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_fourth_power(n: int) -> bool:
    return n >= 0 and iroot(n, 4) ** 4 == n


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, error < 2**-128 above."""
    if n < 2:
        return False
    for p in _MR_BASES:
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
        rng = random.Random(DEFAULT_SEED ^ (n & 0xFFFFFFFF))
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


def _pm1(c: int) -> list[int]:
    """c in pieces > 1 by the p - 1 stage, each prime of c in one piece (one
    piece when nothing splits): a checkpoint gcd(x - 1, c) after each batch,
    and on a hit an uncharged replay of that batch prime power by prime power
    that divides each nontrivial gcd out of c.  The first call builds the
    batches from the sieve."""
    global _pm1_batches
    if _pm1_batches is None:
        small = _primes_below_bound()
        powers = [p ** int(math.log(_PM1_BOUND, p)) for p in small[small <= _PM1_BOUND].tolist()]
        batches = [powers[i : i + _PM1_BATCH] for i in range(0, len(powers), _PM1_BATCH)]
        _pm1_batches = [(math.prod(batch), batch) for batch in batches]
    pieces, x = [], 2
    for product, batch in _pm1_batches:
        y = pow(x, product, c)
        if math.gcd(y - 1, c) > 1:  # replay the batch one prime power at a time
            for q in batch:
                x = pow(x, q, c)
                if (g := math.gcd(x - 1, c)) > 1:
                    while (h := math.gcd(g, c // g)) > 1:  # the whole power of each prime
                        g *= h
                    pieces.append(g)
                    c //= g
        x = y % c  # 2^(E so far) mod what is left of c
    return pieces + [c] if c > 1 else pieces


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


def factor(n: int, effort: int = DEFAULT_EFFORT, parts: tuple[int, ...] = ()) -> Factorization:
    """Complete factorization of n != 0.

    `effort` is the budget of squarings mod a piece of n that the p - 1
    stage and rho spend (the replay of a batch whose checkpoint splits is
    free); trial division and the gcd splits spend none, so a budget of 0
    still factors every n whose pieces they settle.  The default,
    DEFAULT_EFFORT = 8,000,000, lets rho (about sqrt(p) squarings for the
    least prime p of a piece) split off primes up to about 10^13.

    `parts` are integers that may share factors with n, such as known
    factors of a multiple of n: after trial division each piece of n is
    split by its gcds with each part.  A gcd can only split, so parts change
    the work and never the result; a part that is 0, negative, a multiple of
    n or coprime to it splits nothing.  Then the first composite piece c with
    c^(1/4) above 14,447 gets one p - 1 stage (see the module docstring),
    when the budget left covers its 14,447 squarings: its gcd checkpoints
    along the exponent part c into pieces, which go back on the stack, and
    rho factors the composite pieces left.

    Raises EffortExceeded (with the partial factorization and composite
    residual attached) when the budget of p - 1 and rho squarings runs out.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    m = abs(n)
    found: dict[int, int] = {}
    # growing blocks of sieve primes, each on what is left of m, up to min(10^6, isqrt(m))
    primes, lo, size = _primes_below_bound(), 0, _FIRST_BLOCK
    while lo < (count := int(np.searchsorted(primes, np.uint64(min(_SIEVE_BOUND, math.isqrt(m))), side="right"))):
        hi = min(lo + size, count)
        for p in _trial_divisors(m, lo, hi):
            found[p] = valuation(m, p)
            m //= p ** found[p]
        lo, size = hi, min(2 * size, _BLOCK)
    if m > 1 and (m < _SIEVE_BOUND**2 or is_probable_prime(m)):
        # below 10^12 any survivor of trial division is prime
        found[m] = found.get(m, 0) + 1
        m = 1

    rng = random.Random(DEFAULT_SEED ^ (abs(n) & 0xFFFFFFFFFFFF))
    stack = [m] if m > 1 else []
    pm1_left = True
    for part in parts:
        stack = [piece for c in stack for piece in _split(c, part)]
    while stack:
        c = stack.pop()
        if is_probable_prime(c):  # with its whole power in the pieces left, so no rho meets it again
            powers = [valuation(other, c) for other in stack]
            found[c] = found.get(c, 0) + 1 + sum(powers)
            stack = [other // c**e for other, e in zip(stack, powers) if other != c**e]
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
        if pm1_left and effort >= _PM1_SQUARINGS and iroot(c, 4) > _PM1_SQUARINGS:
            pm1_left, effort = False, effort - _PM1_SQUARINGS
            pieces = _pm1(c)
            if len(pieces) > 1:
                stack.extend(pieces)
                continue
        g, used = _brent_rho(c, rng, effort)
        effort -= used
        if g is None:
            residual = c
            for other in stack:
                if is_probable_prime(other):
                    found[other] = found.get(other, 0) + 1
                else:
                    residual *= other
            raise EffortExceeded(n, tuple(sorted(found.items())), residual)
        stack.extend([c // g, g])  # g, more often a prime, is popped first

    primes = tuple(sorted(found.items()))
    return Factorization(value=n, primes=primes)


def fourth_power_free_part(n: int) -> tuple[int, int]:
    """(m, k) with n = m * k**4, m fourth-power-free, sign(m) = sign(n)."""
    if n == 0:
        raise ValueError("0 has no fourth-power-free part")
    f = factor(n)
    m, k = f.sign, 1
    for p, e in f.primes:
        m *= p ** (e % 4)
        k *= p ** (e // 4)
    return m, k

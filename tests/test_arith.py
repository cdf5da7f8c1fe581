"""Number-theory kernel tests.

Oracles are deliberately naive reimplementations: quadratic-residue scans
for the Jacobi symbol, trial division for factoring and primality.  The
fast code must agree with them everywhere they can reach.
"""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from biquadrank import arith
from biquadrank.arith import (
    EffortExceeded,
    Factorization,
    _primes_below_bound,
    _trial_divisors,
    factor,
    fourth_power_free_part,
    iroot,
    is_fourth_power,
    is_probable_prime,
    is_square,
    jacobi,
    valuation,
)
from biquadrank.biquadrate import euler_quadruple, factor_2n, quartic_factors


def trial_factor(n: int) -> list[tuple[int, int]]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def legendre_by_scan(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    residues = {(x * x) % p for x in range(1, p)}
    return 1 if a in residues else -1


class TestJacobi:
    def test_matches_legendre_scan_for_odd_primes(self):
        primes = [p for p in range(3, 200, 2) if all(p % d for d in range(2, p))]
        for p in primes:
            for a in range(-6, 12):
                assert jacobi(a, p) == legendre_by_scan(a, p), (a, p)

    def test_multiplicative_in_modulus(self):
        # jacobi(a, m1*m2) == jacobi(a, m1) * jacobi(a, m2)
        for m1 in (3, 5, 9, 15, 21):
            for m2 in (3, 7, 11, 25):
                for a in range(1, 30):
                    assert jacobi(a, m1 * m2) == jacobi(a, m1) * jacobi(a, m2)

    def test_rejects_even_or_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, -7)

    def test_minus_one_criterion(self):
        # (-1/p) = +1 iff p = 1 mod 4
        for p in (5, 13, 17, 29, 37, 41):
            assert jacobi(-1, p) == 1
        for p in (3, 7, 11, 19, 23):
            assert jacobi(-1, p) == -1


class TestIntegerRoots:
    @given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=2, max_value=7))
    def test_iroot_brackets(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_iroot_huge(self):
        n = (10**120 + 7) ** 3
        assert iroot(n, 3) == 10**120 + 7

    @given(st.integers(min_value=0, max_value=10**18))
    def test_square_detection(self, m):
        assert is_square(m * m)
        if m > 1:
            assert not is_square(m * m + 1)

    def test_fourth_power_detection(self):
        assert is_fourth_power(0) and is_fourth_power(1) and is_fourth_power(16)
        assert not is_fourth_power(8)
        assert not is_fourth_power(-16)
        big = 12345678901234567**4
        assert is_fourth_power(big)
        assert not is_fourth_power(big + 1)


    def test_valuation(self):
        assert [valuation(m, 3) for m in (1, 3, 18, -81, 3**40 * 7)] == [0, 1, 2, 4, 40]
        assert valuation(2 * 635318657, 41) == 1

    @pytest.mark.parametrize("m, p", [(12, 1), (12, -1), (12, 0), (12, -3), (0, 2), (0, 1)])
    def test_valuation_without_an_end_rejected(self, m, p):
        # each of these would divide forever, or by zero
        with pytest.raises(ValueError, match=f"valuation at {p} of {m} needs p >= 2 and m != 0"):
            valuation(m, p)


class TestPrimality:
    def test_agrees_with_trial_division_below_10000(self):
        for n in range(2, 10000):
            naive = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_probable_prime(n) == naive, n

    def test_known_large_primes(self):
        assert is_probable_prime(2**61 - 1)  # Mersenne
        assert is_probable_prime(2**89 - 1)
        assert is_probable_prime(10**18 + 9)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041, 825265, 321197185):
            assert not is_probable_prime(n)

    def test_large_composites_rejected(self):
        p = 2**61 - 1
        assert not is_probable_prime(p * p)
        assert not is_probable_prime((10**18 + 9) * (10**18 + 31))


PRIME_POOL = [
    2, 3, 5, 7, 11, 13, 10007, 65537, 999983,
    1000003, 2**31 - 1, 10**9 + 7, 2**61 - 1,
]


# the primes within 100 of 10^6, on both sides of the sieve bound
NEAR_MILLION = [p for p in range(999_900, 1_000_100) if trial_factor(p) == [(p, 1)]]


class TestFactor:
    def test_matches_trial_division(self):
        for n in list(range(2, 2000)) + [2**20, 3**12, 510510, 720720]:
            f = factor(n)
            assert f.primes == tuple(trial_factor(n)), n

    def test_sign_and_unit_handling(self):
        f = factor(-12)
        assert f.value == -12
        assert f.primes == ((2, 2), (3, 1))
        assert f.sign == -1
        with pytest.raises(ValueError):
            factor(0)
        assert factor(1).primes == ()
        assert factor(-1).sign == -1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(PRIME_POOL), min_size=1, max_size=5))
    def test_roundtrip_product_of_known_primes(self, picks):
        n = math.prod(picks)
        f = factor(n)
        assert math.prod(p**e for p, e in f.primes) == n
        expected = sorted(set(picks))
        assert list(f.distinct_primes()) == expected

    def test_semiprime_near_word_size(self):
        p, q = 2**31 - 1, 2305843009213693951  # both prime
        f = factor(p * q)
        assert f.primes == ((p, 1), (q, 1))

    def test_budget_exhaustion_raises_with_partial(self):
        # product of two ~2^110 primes is far beyond a tiny rho budget
        p = 2**107 - 1
        q = 2**127 - 1
        with pytest.raises(EffortExceeded) as exc:
            factor(4 * p * q, 500)
        assert exc.value.residual > 1
        assert exc.value.value == 4 * p * q

    def test_budget_exhaustion_moves_waiting_primes_into_partial(self):
        # the parts split off the two primes before rho runs out on p * q
        p, q, r, s = 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1
        with pytest.raises(EffortExceeded) as exc:
            factor(p * q * r * s, 0, parts=(p, q))
        assert exc.value.partial == ((p, 1), (q, 1))
        assert exc.value.residual == r * s

    def test_sieve_holds_every_prime_below_its_bound(self):
        primes = _primes_below_bound().tolist()
        assert len(primes) == 78498  # pi(10^6)
        assert primes[:1229] == [p for p in range(2, 10**4) if trial_factor(p) == [(p, 1)]]
        assert primes[-1] == 999983 and all(trial_factor(p) == [(p, 1)] for p in primes[-50:])

    def test_composite_above_the_sieve_is_not_certified_prime(self):
        # trial division stops at the sieve (primes below 10^6), so only a
        # survivor below 10^12 is taken as prime without a test
        n = 1000003 * 1000033
        f = factor(n)
        assert f.primes == ((1000003, 1), (1000033, 1))

    # the parameter is a rho budget: trial division by the sieve alone
    # settles every value below 10^12, so no budget, not even 0, changes it
    @pytest.mark.parametrize("bound", [0, 1, 2, 3, 10, 100, 10**6, 10**7])
    def test_small_values_match_trial_division_at_any_bound(self, bound):
        for n in [*range(-300, 0), *range(1, 300), 2**20, -(3**12), 7**9, 999983**2]:
            f = factor(n, bound)
            assert f.value == n
            assert list(f.primes) == trial_factor(n), (n, bound)

    # the parameter is a rho budget: a product of two primes above the sieve
    # is left to rho, and every budget here suffices for it
    @pytest.mark.parametrize("bound", [999_983, 10**6, 10**6 + 1, 10**7])
    def test_products_of_two_primes_near_the_sieve_bound(self, bound):
        for p, q in combinations_with_replacement(NEAR_MILLION, 2):
            expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
            assert factor(p * q, bound).primes == expected, (p, q, bound)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(NEAR_MILLION + PRIME_POOL[:6]), min_size=0, max_size=4),
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=4),
        st.sampled_from([-1, 1]),
    )
    def test_prime_powers_near_the_sieve_bound(self, picks, exps, sign):
        # the oracle is the construction: n = sign * prod(p^e) over primes
        # that trial division certifies below
        expected = {}
        for p, e in zip(picks, exps):
            expected[p] = expected.get(p, 0) + e
        n = sign * math.prod(p**e for p, e in expected.items())
        f = factor(n)
        assert f.primes == tuple(sorted(expected.items()))
        assert f.sign == sign

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(NEAR_MILLION[:4] + PRIME_POOL), min_size=1, max_size=6),
        st.data(),
    )
    def test_parts_never_change_the_result(self, picks, data):
        m = math.prod(picks)
        divisor = st.lists(st.sampled_from(picks), max_size=4).map(math.prod)
        part = st.one_of(
            st.just(0),
            st.integers(min_value=-(10**40), max_value=10**40),
            divisor,
            divisor.map(lambda d: -d),
            divisor.map(lambda d: d * 1000033),  # times a prime outside the pool
            st.integers(min_value=-5, max_value=5).map(lambda k: k * m),
        )
        parts = tuple(data.draw(st.lists(part, max_size=5)))
        assert factor(m, parts=parts) == factor(m)
        assert factor(-m, parts=parts) == factor(-m)

    def test_parts_split_repeated_primes_without_rho(self, monkeypatch):
        # each piece is divided by a part until they are coprime, so a square
        # of a prime never stays glued to another part's prime
        p, q = 10**9 + 7, 10**9 + 9
        expected = factor(p * p * q * q)
        calls = []
        real_rho = arith._brent_rho
        monkeypatch.setattr(arith, "_brent_rho", lambda *a: calls.append(a) or real_rho(*a))
        assert factor(p * p * q * q, parts=(p, q)) == expected
        assert expected.primes == ((p, 2), (q, 2))
        assert calls == []

    def test_a_repeated_prime_reaches_rho_once(self, monkeypatch):
        # the order of 2 mod each of these primes has a prime factor above
        # 10^4, so the p - 1 stage parts none of them and rho must; a prime
        # it finds leaves the pieces still on the stack with its whole power
        p, q, r = 1000003, 1000039, 2000029
        calls = []
        real_rho = arith._brent_rho
        monkeypatch.setattr(arith, "_brent_rho", lambda *a: calls.append(a) or real_rho(*a))
        assert factor(p * p * r).primes == ((p, 2), (r, 1))
        assert len(calls) == 1
        calls.clear()
        assert factor(q * q * p * r).primes == ((p, 1), (q, 2), (r, 1))
        assert len(calls) == 2


# primes p whose p - 1 is a product of prime powers up to 10^4, so that the
# order of 2 mod p divides the p - 1 stage's exponent and the stage finds p,
# and safe primes q = 2r + 1 with r a prime above 10^4, so that the order of
# 2 mod q is r or 2r and the stage never finds q
SMOOTH = [97417967, 178998707, 194758007, 268789667, 337214183, 456195827, 513105059, 745413143]
ROUGH = [102795479, 106763387, 120047399, 128666639, 160568363, 192037619, 192507527, 192893423]
SMOOTH_13, ROUGH_13 = 875287580243, (1124451382667, 1403313988079)


def next_prime(m: int) -> int:
    while not is_probable_prime(m):
        m += 1
    return m


@pytest.fixture
def pm1_calls(monkeypatch) -> list[int]:
    """The piece of every p - 1 stage from now on."""
    calls, real = [], arith._pm1
    monkeypatch.setattr(arith, "_pm1", lambda c: calls.append(c) or real(c))
    return calls


class TestPm1Stage:
    def test_the_pools_are_what_they_claim(self):
        for p in SMOOTH + [SMOOTH_13]:
            assert is_probable_prime(p) and all(l**e <= 10**4 for l, e in factor(p - 1).primes), p
        for q in ROUGH + list(ROUGH_13):
            r = (q - 1) // 2
            assert is_probable_prime(q) and is_probable_prime(r) and r > 10**4, q

    def test_the_exponent_is_the_lcm_up_to_the_bound(self):
        assert sorted(arith._pm1(SMOOTH_13 * ROUGH_13[0])) == [SMOOTH_13, ROUGH_13[0]]
        powers = [q for product, batch in arith._pm1_batches for q in batch]
        assert [math.prod(batch) for _, batch in arith._pm1_batches] == [product for product, _ in arith._pm1_batches]
        assert math.prod(powers) == math.lcm(*range(1, arith._PM1_BOUND + 1))
        assert math.prod(powers).bit_length() == arith._PM1_SQUARINGS
        assert {len(batch) for _, batch in arith._pm1_batches[:-1]} == {arith._PM1_BATCH}

    def test_a_smooth_prime_splits_off_without_rho(self, monkeypatch):
        monkeypatch.setattr(arith, "_brent_rho", lambda *a: pytest.fail("rho ran"))
        p, q = SMOOTH_13, ROUGH_13[0]
        assert factor(p * q).primes == ((p, 1), (q, 1))
        assert factor(-12 * p * q).primes == ((2, 2), (3, 1), (p, 1), (q, 1))

    def test_a_budget_just_above_the_cost_keeps_the_split(self):
        # the stage splits p off and is charged its squarings, so rho gets
        # one squaring for s * t, whose split takes it 1,022
        p, s, t = SMOOTH_13, 1000003, 1000039
        with pytest.raises(EffortExceeded) as exc:
            factor(12 * p * s * t, arith._PM1_SQUARINGS + 1)
        assert exc.value.partial == ((2, 2), (3, 1), (p, 1))
        assert exc.value.residual == s * t

    @pytest.mark.parametrize("budget", [0, 5000, arith._PM1_SQUARINGS - 1])
    def test_a_budget_below_the_cost_skips_the_stage(self, budget, pm1_calls):
        p, (q, r) = SMOOTH_13, ROUGH_13
        with pytest.raises(EffortExceeded) as exc:
            factor(12 * p * q * r, budget)
        assert (exc.value.partial, exc.value.residual) == (((2, 2), (3, 1)), p * q * r)
        assert pm1_calls == []

    def test_at_most_one_stage_per_call(self, pm1_calls):
        # the part leaves two pieces above the gate; only the first popped gets the stage
        big, small = SMOOTH_13 * ROUGH_13[0], SMOOTH[-1] * ROUGH[-1]
        f = factor(big * small, parts=(small,))
        assert f.primes == tuple(sorted(((SMOOTH_13, 1), (ROUGH_13[0], 1), (SMOOTH[-1], 1), (ROUGH[-1], 1))))
        assert pm1_calls == [big]

    def test_pieces_at_or_below_the_gate_never_run_the_stage(self, pm1_calls):
        for p, q in combinations_with_replacement(NEAR_MILLION, 2):
            factor(p * q)
        # a 15-digit composite that rho splits in the family census a != b <= 40
        assert factor(100772119855681).primes == ((2525177, 1), (39906953, 1))
        assert pm1_calls == []
        # iroot(c, 4) at the stage's cost, then one above it
        for k in (arith._PM1_SQUARINGS, arith._PM1_SQUARINGS + 1):
            p = next_prime(k * k)
            q = next_prime(p + 1)
            assert iroot(p * q, 4) == k
            assert factor(p * q).primes == ((p, 1), (q, 1))
        assert pm1_calls == [p * q]

    def test_mersenne_primes_split_inside_the_stage(self, monkeypatch):
        # base 2 has order k mod 2^k - 1, so one gcd at the end of the exponent
        # found both Mersenne primes at once; the orders 31 and 61 complete at
        # different prime powers, so the checkpoints part them
        monkeypatch.setattr(arith, "_brent_rho", lambda *a: pytest.fail("rho ran"))
        p, q = 2**31 - 1, 2**61 - 1
        assert factor(p * q).primes == ((p, 1), (q, 1))

    @pytest.mark.parametrize("p, q", list(combinations(SMOOTH, 2)))
    def test_glued_smooth_primes_come_apart(self, p, q, monkeypatch):
        # both orders of 2 divide the exponent; the replay of a batch parts them
        monkeypatch.setattr(arith, "_brent_rho", lambda *a: pytest.fail("rho ran"))
        r = ROUGH_13[0]
        assert factor(p * q * r).primes == tuple(sorted(((p, 1), (q, 1), (r, 1))))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(SMOOTH + ROUGH + [SMOOTH_13, *ROUGH_13]), min_size=2, max_size=5))
    def test_the_pieces_multiply_back_and_part_the_primes(self, picks):
        c = math.prod(picks)
        assume(iroot(c, 4) > arith._PM1_SQUARINGS)
        pieces = arith._pm1(c)
        assert all(piece > 1 for piece in pieces) and math.prod(pieces) == c
        for p in set(picks):
            assert sum(piece % p == 0 for piece in pieces) == 1, p

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(SMOOTH + ROUGH), min_size=1, max_size=3), st.sampled_from([1, -1, 30, -49]))
    def test_the_stage_never_changes_a_factorization(self, picks, cofactor):
        # the oracle is the construction: the primes drawn and those of the cofactor
        f = factor(cofactor * math.prod(picks))
        expected = [p for p, e in trial_factor(cofactor) for _ in range(e)] + picks
        assert [p for p, e in f.primes for _ in range(e)] == sorted(expected)
        assert f.value == cofactor * math.prod(picks)


def horner_residues(m: int, primes: np.ndarray) -> np.ndarray:
    """Oracle: m mod each prime by Horner over the 32-bit limbs of m, the
    kernel trial division ran before the table of 2^(40 i) mod p."""
    r = np.zeros(len(primes), dtype=np.uint64)
    for shift in range(32 * ((m.bit_length() - 1) // 32), -1, -32):
        r = ((r << np.uint64(32)) | np.uint64((m >> shift) & 0xFFFFFFFF)) % primes
    return r


def factor_by_horner(n: int, parts: tuple[int, ...] = ()) -> Factorization:
    """factor(n) with its sieve primes found by horner_residues; the cofactor
    left, which no sieve prime up to isqrt(|n|) divides, goes to factor."""
    m, found = abs(n), {}
    primes = _primes_below_bound()
    primes = primes[: np.searchsorted(primes, np.uint64(min(10**6, math.isqrt(m))), side="right")]
    for p in primes[horner_residues(m, primes) == 0].tolist():
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    rest = dict(factor(m, parts=parts).primes)
    assert not rest.keys() & found.keys()
    return Factorization(value=n, primes=tuple(sorted({**found, **rest}.items())))


SIEVE = _primes_below_bound().tolist()
BLOCK = arith._BLOCK
FIRST = arith._FIRST_BLOCK
# where factor's blocks start: 2048, 4096, 8192 and then 16384 primes long
EDGES = [0, FIRST, 3 * FIRST, 7 * FIRST, *range(15 * FIRST, len(SIEVE), BLOCK)]
# prime slices from the start: empty, one prime, a partial block, one block, a
# block and one prime, and the whole sieve; then slices starting past 0: the
# blocks of 2048, 4096 and 8192 primes, slices across a 16384 edge, the last
# prime and an empty slice at the end
SLICES = [(0, c) for c in [0, 1, BLOCK // 2 + 7, BLOCK, BLOCK + 1, len(SIEVE)]] + [
    (FIRST, 3 * FIRST), (3 * FIRST, 7 * FIRST), (1, FIRST + 1), (BLOCK - 3, BLOCK + 3),
    (15 * FIRST - 1, len(SIEVE)), (len(SIEVE) - 1, len(SIEVE)), (len(SIEVE), len(SIEVE)),
]
CHUNK_BITS = arith._CHUNK * arith._LIMB_BITS  # 600: one modulo reads this many bits
# sieve primes at the start, on both sides of the first 16384 edge, and at the end
EDGE_PRIMES = math.prod(SIEVE[:3] + SIEVE[BLOCK - 1 : BLOCK + 1] + SIEVE[-1:])


def with_bits(bits: int, divisor: int) -> int:
    """The least multiple of divisor with the given bit length (divisor < 2^(bits - 1))."""
    return (2 ** (bits - 1) // divisor + 1) * divisor


class TestTrialDivision:
    def test_a_chunk_sum_fits_uint64(self):
        # every sieve prime, so every residue, is below 2^20; the carry, a
        # residue times 2^600 mod p, is below 2^40
        residue = 2 ** (arith._SIEVE_BOUND - 1).bit_length() - 1
        assert residue == 2**20 - 1
        worst = arith._CHUNK * (2**arith._LIMB_BITS - 1) * residue + (residue + 1) ** 2
        assert worst < 2**64

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2000).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)),
        st.lists(st.sampled_from(SIEVE[:100] + SIEVE[BLOCK - 3 : BLOCK + 3] + SIEVE[-3:]), max_size=6),
        st.sampled_from(SLICES),
    )
    @example(1, [], (0, len(SIEVE)))
    @example(1, [], (0, 0))
    @example(2**40, [], (0, 1))
    # bit lengths on both sides of the 15-limb chunk edge, and one limb past it
    @example(2 ** (CHUNK_BITS - 1) - 1, [], (0, BLOCK))
    @example(with_bits(CHUNK_BITS - 1, EDGE_PRIMES), [], (0, len(SIEVE)))
    @example(2**CHUNK_BITS - 1, [], (0, len(SIEVE)))
    @example(with_bits(CHUNK_BITS, EDGE_PRIMES), [], (0, BLOCK + 1))
    @example(with_bits(CHUNK_BITS, 999983), [], (0, len(SIEVE)))
    @example(with_bits(CHUNK_BITS + 1, EDGE_PRIMES), [], (0, len(SIEVE)))
    @example(with_bits(CHUNK_BITS + 1, 999983), [], (0, BLOCK // 2 + 7))
    @example(2 ** (CHUNK_BITS + 40) - 1, [], (0, len(SIEVE)))
    @example(with_bits(CHUNK_BITS + 40, EDGE_PRIMES), [], (0, len(SIEVE)))
    @example(with_bits(2 * CHUNK_BITS + 1, EDGE_PRIMES), [], (0, len(SIEVE)))
    # slices that start past 0, so the table is read from row offset lo
    @example(with_bits(CHUNK_BITS + 1, EDGE_PRIMES), [], (BLOCK - 1, BLOCK + 1))
    @example(with_bits(2 * CHUNK_BITS + 1, EDGE_PRIMES), [], (len(SIEVE) - 1, len(SIEVE)))
    @example(with_bits(CHUNK_BITS, SIEVE[FIRST] * SIEVE[3 * FIRST - 1]), [], (FIRST, 3 * FIRST))
    @example(with_bits(CHUNK_BITS - 1, SIEVE[FIRST - 1] * SIEVE[3 * FIRST]), [], (FIRST, 3 * FIRST))
    def test_divisors_match_division_by_each_prime(self, m, picks, bounds):
        m *= math.prod(picks)
        lo, hi = bounds
        assert _trial_divisors(m, lo, hi) == [p for p in SIEVE[lo:hi] if m % p == 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=len(SIEVE) - 1)),
        st.booleans(),
    )
    @example(0, 0, False)
    @example(2**64 - 1, 0, False)
    @example(2**64 - 2, 0, False)
    @example(arith._CHUNK * 2**60 + 2**40, len(SIEVE) - 1, True)  # the largest sum the last chunk leaves
    def test_a_product_with_the_inverse_tests_divisibility(self, r, i, multiple):
        # the last chunk's sum r < 2^64 is a multiple of p exactly when
        # r / p mod 2^64 is at most (2^64 - 1) // p; for p = 2 the inverse
        # and the bound are 2^63 and 0
        p = int(SIEVE[i])
        r -= r % p if multiple else 0
        inverses, bounds = arith._divisibility(i, i + 1)
        assert (int(inverses[0]) * p) % 2**64 == (0 if p == 2 else 1)
        quotient = np.multiply(np.array([r], np.uint64), inverses)
        assert bool(quotient[0] <= bounds[0]) == (r % p == 0)

    def test_divisibility_tables_are_filled_on_first_need(self, monkeypatch):
        monkeypatch.setattr(arith, "_inverses", (np.empty((2, 0), np.uint64), 0))
        _trial_divisors(2**100 + 1, 0, 10)
        tables, done = arith._inverses
        assert tables.shape == (2, len(SIEVE)) and done == 10
        _trial_divisors(2**100 + 1, 5, 10)  # already done: nothing is filled
        assert arith._inverses[0] is tables and arith._inverses[1] == 10
        _trial_divisors(2**100 + 1, BLOCK, BLOCK + 5)  # filled from the first prime up
        assert arith._inverses[0] is tables and arith._inverses[1] == BLOCK + 5
        assert [int(x) for x in tables[0, :2]] == [2**63, pow(3, -1, 2**64)]
        assert [int(x) for x in tables[1, :2]] == [0, (2**64 - 1) // 3]

    def test_threads_filling_the_tables_at_once_agree(self, monkeypatch):
        # eight threads, switching every 10 microseconds, fill the tables from
        # empty over overlapping slices while they divide: a thread that used
        # an entry before its fill ended would miss or invent a divisor
        ms = [math.prod(SIEVE[k :: 4999]) * (2**61 - 1) for k in range(8)]
        slices = [(0, len(SIEVE) >> k) for k in range(8)] + [(len(SIEVE) >> k, len(SIEVE)) for k in range(8)]
        expected = [[p for p in SIEVE[lo:hi] if m % p == 0] for m in ms for lo, hi in slices]
        monkeypatch.setattr(arith, "_inverses", (np.empty((2, 0), np.uint64), 0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda job: _trial_divisors(job[0], *job[1]), product(ms, slices)))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_table_rows_are_built_on_first_need(self, monkeypatch):
        monkeypatch.setattr(arith, "_weights", [])
        _trial_divisors(2**100 + 1, 0, 1)  # three 40-bit limbs: rows 1 and 2
        assert len(arith._weights) == 2
        _trial_divisors(2**600 + 1, 0, 1)  # two chunks: the within-chunk rows and 2^600
        rows = arith._weights
        assert len(rows) == arith._CHUNK
        for i, row in enumerate(rows, start=1):
            assert row.dtype == np.uint32
            assert [int(w) for w in row[[0, 1, BLOCK, -1]]] == [
                pow(2, 40 * i, p) for p in (SIEVE[0], SIEVE[1], SIEVE[BLOCK], SIEVE[-1])
            ]

    @pytest.mark.parametrize("ab", [(a, b) for a in range(1, 13) for b in range(1, 13) if a != b])
    def test_family_factorizations_match_the_horner_kernel(self, ab):
        quad = euler_quadruple(*ab)
        q = quartic_factors(*ab)
        assert factor_2n(quad) == factor_by_horner(2 * quad.n, (q.A, q.B, q.C, q.D))

    # the cofactors left by trial division are 1 or prime: 2^521 - 1 and
    # 2^607 - 1 are Mersenne primes, the second one past a 15-limb chunk
    @pytest.mark.parametrize("n", [
        2**40 * 3**20 * 999983**2 * 17,
        math.prod(SIEVE[:120]) * 999983**3,
        3**400 * 999979,
        (2**521 - 1) * 7**30 * 999983,
        (2**607 - 1) * 17 * 999983**2,
    ], ids=["powers", "120-primes", "3^400", "M521", "M607"])
    def test_many_sieve_primes_and_high_powers_match_the_horner_kernel(self, n):
        assert factor(n) == factor_by_horner(n)
        assert factor(-n) == factor_by_horner(-n)


def prime_near(n: int, step: int) -> int:
    """The first prime at n, n + step, n + 2 step, ... by the trial_factor oracle."""
    while trial_factor(n) != [(n, 1)]:
        n += step
    return n


def record_blocks(monkeypatch) -> list[tuple[int, int]]:
    """The (lo, hi) slices the trial-division kernel is asked for from here on."""
    blocks, kernel = [], arith._trial_divisors
    monkeypatch.setattr(arith, "_trial_divisors", lambda m, lo, hi: blocks.append((lo, hi)) or kernel(m, lo, hi))
    return blocks


# sieve primes at the start, on both sides of each block edge and at the end
NEAR_EDGES = SIEVE[:10] + [p for lo in EDGES[1:] for p in SIEVE[lo - 2 : lo + 2]] + SIEVE[-2:]
# primes in (10^6, 10^12), with the two next to the square of each prime a
# block of 2048, 4096 or 8192 primes starts at
LARGE_PRIMES = [1000003, 10**9 + 7, 2**31 - 1, 999999999989] + [
    prime_near(SIEVE[lo] ** 2 + step, step) for lo in EDGES[1:4] for step in (-1, 1)
]


class TestTrialDivisionStops:
    """factor divides by blocks of 2048, 4096, 8192 and then 16384 sieve
    primes, each on the current cofactor m, and stops before the block at lo
    once primes[lo] > isqrt(m)."""

    @pytest.mark.parametrize("i", [i for lo, hi in zip(EDGES, EDGES[1:4]) for i in (lo, hi - 1)])
    def test_squares_cubes_and_neighbours_at_block_edges(self, i):
        # i indexes the first or the last prime of the blocks of 2048, 4096 and 8192 primes
        q = SIEVE[i]
        for picks in [[q, q], [q, q, q], [q, SIEVE[i + 1]]] + ([[SIEVE[i - 1], q]] if i else []):
            expected = tuple(sorted(Counter(picks).items()))
            for sign in (1, -1):
                f = factor(sign * math.prod(picks))
                assert (f.primes, f.sign) == (expected, sign), picks

    @pytest.mark.parametrize("lo", EDGES[1:4])
    def test_the_next_block_runs_iff_its_first_prime_squared_fits_the_cofactor(self, lo, monkeypatch):
        # the blocks before lo divide out primes[lo - 1] and leave m
        p, k = SIEVE[lo], EDGES.index(lo)
        earlier = list(zip(EDGES[:k], EDGES[1 : k + 1]))
        blocks = record_blocks(monkeypatch)
        for m, runs in [
            (p * p, True),
            (prime_near(p * p - 1, -1), False),  # the prime just below p^2 needs no block at lo
            (prime_near(p * p + 1, 1), True),
            (p * SIEVE[lo + 1], True),
        ]:
            blocks.clear()
            n = SIEVE[lo - 1] * m
            assert list(factor(n).primes) == trial_factor(n), m
            assert blocks == earlier + ([(lo, lo + 1)] if runs else []), m

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(NEAR_EDGES), st.sampled_from(SIEVE)), max_size=5),
        st.sampled_from([1] + LARGE_PRIMES),
        st.sampled_from([-1, 1]),
    )
    def test_products_of_sieve_primes_and_at_most_one_large_prime(self, picks, large, sign):
        n = sign * math.prod(picks) * large
        f = factor(n)
        assert (list(f.primes), f.sign) == (trial_factor(n), sign)

    def test_small_primes_stop_within_two_blocks(self, monkeypatch):
        # 2n for n = 635318657 and for the 28-digit ladder n of (a, b) = (1, 11)
        blocks = record_blocks(monkeypatch)
        for n in (2 * 635318657, 2 * euler_quadruple(1, 11).n):
            blocks.clear()
            factor(n)
            assert blocks[0] == (0, FIRST) and len(blocks) <= 2 and blocks[-1][1] <= EDGES[2], n

    def test_a_large_composite_cofactor_runs_the_whole_sieve(self, monkeypatch):
        # 2n for the 34-digit n of (a, b) = (1, 16) keeps a composite of 26
        # digits, so every block runs, at sizes 2048, 4096, 8192, then 16384
        blocks = record_blocks(monkeypatch)
        factor(2 * euler_quadruple(1, 16).n)
        assert blocks == list(zip(EDGES, EDGES[1:] + [len(SIEVE)]))


class TestSquarefreeParts:
    def test_fourth_power_free(self):
        m, k = fourth_power_free_part(16 * 17)
        assert (m, k) == (17, 2)
        m, k = fourth_power_free_part(-(3**5))
        assert (m, k) == (-3, 3)
        m, k = fourth_power_free_part(7)
        assert (m, k) == (7, 1)
        m, k = fourth_power_free_part(2**8)
        assert (m, k) == (1, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10**8), st.integers(min_value=1, max_value=40))
    def test_fourth_power_free_roundtrip(self, m0, k0):
        n = m0 * k0**4
        m, k = fourth_power_free_part(n)
        assert m * k**4 == n
        # minimality: m admits no fourth-power divisor > 1
        for p, e in factor(m).primes:
            assert e < 4


class TestFactorization:
    def test_product_check_enforced(self):
        with pytest.raises(ValueError):
            Factorization(value=10, primes=((2, 1), (3, 1)))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Factorization(value=6, primes=((3, 1), (2, 1)))

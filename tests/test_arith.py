"""Number-theory kernel tests.

Oracles are deliberately naive reimplementations: quadratic-residue scans
for the Jacobi symbol, trial division for factoring and primality.  The
fast code must agree with them everywhere they can reach.
"""

import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from biquadrank import arith
from biquadrank.arith import (
    EffortExceeded,
    FactorEffort,
    Factorization,
    _primes_below_bound,
    factor,
    fourth_power_free_part,
    iroot,
    is_fourth_power,
    is_probable_prime,
    is_square,
    jacobi,
)


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
            assert f.certified

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
        tiny = FactorEffort(trial_bound=1000, rho_iterations=500, seed=7)
        with pytest.raises(EffortExceeded) as exc:
            factor(4 * p * q, tiny)
        assert exc.value.residual > 1
        assert exc.value.value == 4 * p * q

    def test_budget_exhaustion_moves_waiting_primes_into_partial(self):
        # the parts split off the two primes before rho runs out on p * q
        p, q, r, s = 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1
        tiny = FactorEffort(trial_bound=1000, rho_iterations=0, seed=7)
        with pytest.raises(EffortExceeded) as exc:
            factor(p * q * r * s, tiny, parts=(p, q))
        assert exc.value.partial == ((p, 1), (q, 1))
        assert exc.value.residual == r * s

    def test_sieve_holds_every_prime_below_its_bound(self):
        primes = _primes_below_bound().tolist()
        assert len(primes) == 78498  # pi(10^6)
        assert primes[:1229] == [p for p in range(2, 10**4) if trial_factor(p) == [(p, 1)]]
        assert primes[-1] == 999983 and all(trial_factor(p) == [(p, 1)] for p in primes[-50:])

    def test_composite_above_the_sieve_is_not_certified_prime(self):
        # trial division stops at the sieve (primes below 10^6) whatever the
        # bound asks for, so only squares of the sieve bound are safe
        n = 1000003 * 1000033
        f = factor(n, FactorEffort(trial_bound=10**7))
        assert f.primes == ((1000003, 1), (1000033, 1))

    @pytest.mark.parametrize("bound", [0, 1, 2, 3, 10, 100, 10**6, 10**7])
    def test_small_values_match_trial_division_at_any_bound(self, bound):
        effort = FactorEffort(trial_bound=bound)
        for n in [*range(-300, 0), *range(1, 300), 2**20, -(3**12), 7**9, 999983**2]:
            f = factor(n, effort)
            assert f.value == n
            assert list(f.primes) == trial_factor(n), (n, bound)

    @pytest.mark.parametrize("bound", [999_983, 10**6, 10**6 + 1, 10**7])
    def test_products_of_two_primes_near_the_sieve_bound(self, bound):
        effort = FactorEffort(trial_bound=bound)
        for p, q in combinations_with_replacement(NEAR_MILLION, 2):
            expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
            assert factor(p * q, effort).primes == expected, (p, q, bound)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(NEAR_MILLION + PRIME_POOL[:6]), min_size=0, max_size=4),
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=4),
        st.sampled_from([-1, 1]),
        st.sampled_from([0, 2, 50, 999_983, 999_999, 10**6, 10**6 + 1, 10**7]),
    )
    def test_prime_powers_near_the_sieve_bound(self, picks, exps, sign, bound):
        # the oracle is the construction: n = sign * prod(p^e) over primes
        # that trial division certifies below
        expected = {}
        for p, e in zip(picks, exps):
            expected[p] = expected.get(p, 0) + e
        n = sign * math.prod(p**e for p, e in expected.items())
        f = factor(n, FactorEffort(trial_bound=bound))
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

    def test_exponent_of(self):
        f = factor(720)
        assert f.exponent_of(2) == 4
        assert f.exponent_of(3) == 2
        assert f.exponent_of(7) == 0


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
            Factorization(value=10, primes=((2, 1), (3, 1)), certified=True)

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Factorization(value=6, primes=((3, 1), (2, 1)), certified=True)

"""Parametrized double representations, quartic factors, and the search.

The search oracle is a pure-Python brute force kept independent of the
vectorized implementation on purpose.  The search's CPU count is set by
monkeypatching `os.sched_getaffinity` and `os.cpu_count`, and its window
cap by monkeypatching `WINDOW_SUMS`.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, starmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biquadrank import biquadrate
from biquadrank.arith import EffortExceeded, factor, is_probable_prime, is_square
from biquadrank.biquadrate import (
    MAX_SEARCH_BASE,
    SIEVE_PRIMES,
    BiquadQuadruple,
    NotEqual,
    euler_quadruple,
    euler_raw_quadruple,
    factor_2n,
    fourth_power_witness,
    quartic_factors,
    recover_euler_params,
    representations,
    search_double_representations,
    validate_double_representation,
    witness_root_polynomial,
)

nonzero_param = st.integers(min_value=-50, max_value=50).filter(lambda v: v != 0)


class TestParametrization:
    def test_smallest_member(self):
        quad = euler_quadruple(1, 1)
        assert quad.components() == (2, -1, -1, 2)
        assert quad.n == 17
        assert quad.reduction == 2
        assert quad.primitive
        assert quad.degenerate

    def test_first_nondegenerate_member(self):
        quad = euler_quadruple(2, 1)
        assert quad.components() == (158, -59, 134, 133)
        assert quad.n == 635318657
        assert quad.reduction == 1
        assert not quad.degenerate
        assert quad.pairs() == ((59, 158), (133, 134))

    def test_reduced_member(self):
        quad = euler_quadruple(3, 1)
        assert quad.components() == (1203, -76, 1176, 653)
        assert quad.n == 2094447251857
        assert quad.reduction == 2

    @settings(max_examples=150, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_identity_everywhere(self, a, b):
        p, q, r, s = euler_raw_quadruple(a, b)
        assert p**4 + q**4 == r**4 + s**4

    @settings(max_examples=80, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_reduced_quadruple_is_primitive(self, a, b):
        quad = euler_quadruple(a, b)
        assert math.gcd(*quad.components()) == 1
        assert quad.primitive
        assert quad.n == quad.p**4 + quad.q**4

    @settings(max_examples=60, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_sign_flips_preserve_n(self, a, b):
        n = euler_quadruple(a, b).n
        assert euler_quadruple(a, -b).n == n
        assert euler_quadruple(-a, b).n == n
        assert euler_quadruple(-a, -b).n == n

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            euler_raw_quadruple(0, 1)
        with pytest.raises(ValueError):
            euler_quadruple(3, 0)


class TestValidation:
    def test_accepts_true_equality(self):
        quad = validate_double_representation(59, 158, 133, 134)
        assert quad.n == 635318657
        assert quad.primitive and not quad.degenerate

    def test_rejects_false_equality(self):
        with pytest.raises(NotEqual):
            validate_double_representation(1, 2, 3, 4)

    @pytest.mark.parametrize("pqrs", [(0, 1, 1, 0), (3, 0, 0, 3), (1, 0, 0, 1), (0, 0, 0, 0)])
    def test_rejects_a_zero_base(self, pqrs):
        # p^4 + 0^4 = 0^4 + p^4 is no sum of two biquadrates
        with pytest.raises(biquadrate.ZeroBase, match="is zero"):
            validate_double_representation(*pqrs)

    def test_flags_common_factor(self):
        quad = validate_double_representation(118, 316, 266, 268)
        assert quad.n == 16 * 635318657
        assert not quad.primitive

    def test_degenerate_multiset(self):
        quad = validate_double_representation(2, -1, -1, 2)
        assert quad.degenerate

    def test_only_evidence_is_stored(self):
        quad = euler_quadruple(2, 1)
        stored = [f.name for f in dataclasses.fields(quad)]
        assert stored == ["p", "q", "r", "s", "reduction", "euler_params"]
        assert (quad.n, quad.primitive, quad.degenerate) == (635318657, True, False)

    def test_broken_identity_rejected_by_the_constructor(self):
        with pytest.raises(NotEqual):
            BiquadQuadruple(158, -59, 134, 132)

    def test_parameters_must_regenerate_the_pairs(self):
        # (3, 1) has reduction 2, as recorded, but gives another quadruple
        with pytest.raises(ValueError, match="do not regenerate"):
            BiquadQuadruple(158, -59, 134, 133, euler_params=(3, 1))
        with pytest.raises(ValueError, match="do not regenerate"):
            BiquadQuadruple(158, -59, 134, 133, reduction=2, euler_params=(3, 1))

    def test_reduction_must_be_the_parametrized_gcd(self):
        with pytest.raises(ValueError, match="not the parametrized gcd 1"):
            BiquadQuadruple(158, -59, 134, 133, reduction=7, euler_params=(2, 1))
        with pytest.raises(ValueError, match="without euler parameters"):
            BiquadQuadruple(158, -59, 134, 133, reduction=2)


class TestQuarticFactors:
    def test_values_at_2_1(self):
        f = quartic_factors(2, 1)
        assert (f.A, f.B, f.C, f.D) == (41, 569, 113, 241)
        assert (f.b1, f.b2) == (137129, -4633)
        assert f.n_raw == 635318657
        assert f.A * f.B * f.C * f.D == f.n_raw

    def test_values_at_1_1(self):
        f = quartic_factors(1, 1)
        assert (f.A, f.B, f.C, f.D) == (8, 17, 2, 1)
        assert f.n_raw == 272  # 16 * 17: the reduction fourth power shows up here

    def test_values_at_3_1(self):
        f = quartic_factors(3, 1)
        assert (f.A, f.B, f.C, f.D) == (136, 8929, 4258, 6481)
        assert f.b1 == 57868849
        quad = euler_quadruple(3, 1)
        assert f.n_raw == quad.n * quad.reduction**4

    @settings(max_examples=120, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_product_identity_everywhere(self, a, b):
        f = quartic_factors(a, b)
        p, q, _, _ = euler_raw_quadruple(a, b)
        assert f.A * f.B * f.C * f.D == p**4 + q**4
        assert f.b1 * f.b2 == -f.n_raw

    @settings(max_examples=80, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_nonsquare_side_conditions(self, a, b):
        f = quartic_factors(a, b)
        if abs(a) != abs(b):
            assert not is_square(f.A)
            assert not is_square(f.D)


class TestFactor2n:
    def test_quartic_parts_leave_the_factorization_unchanged(self):
        for a in range(1, 13):
            for b in range(1, 13):
                quad = euler_quadruple(a, b)
                f = quartic_factors(a, b)
                plain = factor(2 * quad.n)
                assert factor(2 * quad.n, parts=(f.A, f.B, f.C, f.D)) == plain, (a, b)
                assert factor_2n(quad) == plain, (a, b)

    def test_without_params_factors_2n(self):
        quad = validate_double_representation(7, 239, 157, 227)
        assert factor_2n(quad) == factor(2 * quad.n)

    def test_exhaustion_with_parts_keeps_the_partial_contract(self):
        # one piece of 2n at (43, 50) stays composite after the gcd splits
        quad = euler_quadruple(43, 50)
        with pytest.raises(EffortExceeded) as exc:
            factor_2n(quad, 0)
        assert exc.value.value == 2 * quad.n
        assert exc.value.residual > 1
        assert math.prod(p**e for p, e in exc.value.partial) * exc.value.residual == 2 * quad.n


class TestFourthPowerWitness:
    def test_witness_values(self):
        assert fourth_power_witness(1, 1) == (1, 1)
        assert fourth_power_witness(2, 1) == (132496, 364)
        assert fourth_power_witness(3, 1) == (57289761, 7569)

    @settings(max_examples=120, deadline=None)
    @given(nonzero_param, nonzero_param)
    def test_witness_is_square_everywhere(self, a, b):
        K, N = fourth_power_witness(a, b)
        assert N * N == K
        f = quartic_factors(a, b)
        assert K == f.b1 + f.b2 * b**4

    def test_root_polynomial_exponent(self):
        # the quadratic (not cubic) exponent on the middle term is what makes
        # N^2 == K; the cubic variant misses already at (2, 1)
        assert witness_root_polynomial(2, 1) == 91
        wrong = 2**6 + 2**4 + 4 * 2**3 - 5
        assert (2**2 * wrong) ** 2 == 183184
        assert fourth_power_witness(2, 1)[0] == 132496
        assert 183184 != 132496


@functools.cache
def brute_force_search(max_base: int) -> list[tuple[int, int, int, int, int]]:
    """Two pure-Python passes, no numpy: first the sums seen once and the
    sums seen twice, then the pairs of each sum seen twice."""
    once: set[int] = set()
    twice: set[int] = set()
    for q in range(1, max_base + 1):
        for p in range(1, q + 1):
            n = p**4 + q**4
            if n in once:
                twice.add(n)
            else:
                once.add(n)
    by_sum: dict[int, list[tuple[int, int]]] = {n: [] for n in twice}
    for q in range(1, max_base + 1):
        for p in range(1, q + 1):
            n = p**4 + q**4
            if n in by_sum:
                by_sum[n].append((p, q))
    out = []
    for n in sorted(by_sum):
        reps = sorted(by_sum[n])
        for (p, q), (r, s) in combinations(reps, 2):
            if math.gcd(math.gcd(p, q), math.gcd(r, s)) == 1:
                out.append((p, q, r, s, n))
    return out


def use_cpus(monkeypatch, cpus: int, window_sums: int = 1 << 15) -> None:
    """Make the search see `cpus` CPUs and cut windows of at most about
    `window_sums` sums, so that small bases use every thread too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(biquadrate, "WINDOW_SUMS", window_sums)


# Sums built up to base 2000: 0.63 of the 2,001,000, two windows at the real
# cap.  Counted in test_sums_built_to_2000.
SUMS_TO_2000 = 1_254_532


class TestSearch:
    def test_matches_brute_force_to_300(self):
        got = [
            (t.p, t.q, t.r, t.s, t.n) for t in search_double_representations(300)
        ]
        assert got == sorted(brute_force_search(300), key=lambda t: (t[4], t[:4]))

    def test_smallest_hit_is_unique_below_200(self):
        found = search_double_representations(200)
        assert len(found) == 1
        assert found[0].n == 635318657
        assert found[0].pairs() == ((59, 158), (133, 134))

    def test_no_hits_below_100(self):
        assert search_double_representations(100) == []

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_sharding_is_transparent(self, shards):
        got = [
            (t.p, t.q, t.r, t.s, t.n)
            for t in search_double_representations(2000, shards=shards)
        ]
        assert got == sorted(brute_force_search(2000), key=lambda t: (t[4], t[:4]))

    def test_more_shards_than_sums(self):
        # base 10 has 55 sums, so shards is clamped to 55: one sum per window
        assert search_double_representations(10, shards=1000) == search_double_representations(10)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("shards, limit_mb", [(1, 14), (4, 4)])
    def test_peak_memory_follows_the_window(self, monkeypatch, shards, limit_mb, cpus):
        # at the real cap the 1,015,779 sums up to base 1800 (8 MB as int64)
        # fit one window, so `shards` windows in the caller cut memory; with
        # windows of at most 2^18 sums the search makes one 2 MB buffer a
        # thread, so the peak follows neither the base (5 million sums at
        # 4000) nor `shards`
        def peak(base: int) -> int:
            tracemalloc.start()
            try:
                search_double_representations(base, shards=shards)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        use_cpus(monkeypatch, cpus, biquadrate.WINDOW_SUMS)
        assert peak(1800) < limit_mb * 2**20
        use_cpus(monkeypatch, cpus, 1 << 18)
        for base in (2000, 4000):
            assert peak(base) < cpus * (1 << 18) * 8 + 5 * 2**19

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_cpu_count_is_transparent(self, monkeypatch, shards, cpus):
        # caps of 1 and 7 sums cut a window at nearly every sum, and cost up
        # to about 0.2 ms a window; below the window count `shards`
        # changes nothing, so they run once per CPU count, at a small base
        caps = [(1 << 10, 1000), (biquadrate.WINDOW_SUMS, 2000)]
        for window_sums, base in [(1, 160), (7, 160)] * (shards == 1) + caps:
            use_cpus(monkeypatch, cpus, window_sums)
            got = [
                (t.p, t.q, t.r, t.s, t.n)
                for t in search_double_representations(base, shards=shards)
            ]
            assert got == sorted(brute_force_search(base), key=lambda t: (t[4], t[:4]))

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_more_shards_than_sums_on_several_cpus(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        assert search_double_representations(10, shards=1000) == search_double_representations(10)

    def test_sums_built_to_2000(self):
        x = np.arange(1, 2001)
        shared = functools.reduce(np.logical_or, [np.outer(x % ell == 0, x % ell == 0) for ell in SIEVE_PRIMES])
        assert np.triu(~shared).sum() == SUMS_TO_2000  # pairs p <= q sharing none

    @pytest.mark.parametrize("shards, cpus, window_sums, threads, windows", [
        (1, 3, 1 << 15, 3, 39), (1, 5, 1 << 15, 5, 40), (1, 2, 500_000, 2, 4),
        (1000, 3, 1 << 15, 0, 1000), (1, 3, None, 0, 1), (4, 3, None, 0, 4),
    ])
    def test_one_pool_thread_per_cpu(self, monkeypatch, shards, cpus, window_sums, threads, windows):
        # base 2000 builds SUMS_TO_2000 sums: one thread per window_sums of
        # them, up to one per CPU, and a multiple of the thread count of
        # windows, or `shards` if more; windows of under window_sums / 16
        # sums on average run in the caller.  So do the windows of base 1800
        # (1,015,779 sums) under the real cap.  The executor may reuse an
        # idle thread, so fewer threads may run windows; the caller allocates
        # one buffer a thread before any window runs
        base = 2000 if window_sums else 1800
        use_cpus(monkeypatch, cpus, window_sums or biquadrate.WINDOW_SUMS)
        ran, allocated = [], []  # the thread that ran each window, or allocated a buffer

        def recording(fn):
            def run(*args):
                ran.append(threading.current_thread())
                return fn(*args)

            return run

        class Recording:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                allocated.append(threading.current_thread())
                return np.empty(*args, **kwargs)

        submit = ThreadPoolExecutor.submit
        monkeypatch.setattr(ThreadPoolExecutor, "submit", lambda pool, fn, *a: submit(pool, recording(fn), *a))
        monkeypatch.setattr(biquadrate, "starmap", lambda fn, its: starmap(recording(fn), its))
        monkeypatch.setattr(biquadrate, "np", Recording())
        got = search_double_representations(base, shards=shards)
        assert len(got) == len(brute_force_search(base))
        assert len(ran) == windows and (shards > 1 or windows % max(threads, 1) == 0)
        pool_threads = {thread for thread in ran if thread is not threading.main_thread()}
        assert 1 <= len(pool_threads) <= threads if threads else not pool_threads
        assert not any(thread.is_alive() for thread in pool_threads)
        assert allocated == [threading.main_thread()] * max(threads, 1)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_repeats_across_chunk_edges(self, monkeypatch, chunk):
        # with chunks this small, equal sums meet at a chunk edge, and short
        # slices are gathered in groups of one or two q
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(biquadrate, "CHUNK", chunk)
        got = [(t.p, t.q, t.r, t.s, t.n) for t in search_double_representations(300, shards=2)]
        assert got == sorted(brute_force_search(300), key=lambda t: (t[4], t[:4]))

    def test_segments_under_frequent_thread_switches(self, monkeypatch):
        # eight window threads, switching every 10 microseconds: a window
        # built into another thread's buffer, or a lost or reordered result,
        # would change the output
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = search_double_representations(2000, shards=2)
        finally:
            sys.setswitchinterval(interval)
        assert [(t.p, t.q, t.r, t.s, t.n) for t in got] == sorted(
            brute_force_search(2000), key=lambda t: (t[4], t[:4])
        )

    def test_two_searches_at_once_keep_their_own_buffers(self, monkeypatch):
        # each search makes its own buffers, so two searches running at once
        # from two threads, each on a pool of three, never share one
        use_cpus(monkeypatch, 3)
        expected = sorted(brute_force_search(2000), key=lambda t: (t[4], t[:4]))
        with ThreadPoolExecutor(2) as callers:
            got = list(callers.map(lambda _: search_double_representations(2000), range(2)))
        assert [[(t.p, t.q, t.r, t.s, t.n) for t in quads] for quads in got] == [expected, expected]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
    def test_resident_memory_stays_flat_over_repeated_searches(self):
        # five passes of bases 1000 to 8000 in one process: the caller makes
        # every buffer, so each search reuses the memory of the one before;
        # buffers made and freed on pool threads stayed in their threads'
        # malloc arenas, and the peak grew from pass to pass
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        probe = (
            "import resource\n"
            "from biquadrank.biquadrate import search_double_representations as search\n"
            "peaks = []\n"
            "for _ in range(5):\n"
            "    for base, shards in [(1000, 1), (2000, 1), (4000, 1), (8000, 1), (8000, 4)]:\n"
            "        search(base, shards=shards)\n"
            "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "print(peaks[0], peaks[-1])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        first, last = map(int, proc.stdout.split())
        assert last - first <= 2 * 1024, (first, last)

    def test_cpu_count_without_affinity(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        three = search_double_representations(2000, shards=2)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        assert search_double_representations(2000, shards=2) == three
        assert [t.n for t in three] == [t[4] for t in brute_force_search(2000)]

    def test_real_segment_size_splits_a_large_window(self, monkeypatch):
        # base 3500 builds about 3.8 million sums: four windows of the real
        # cap, run in the caller at one CPU and on four threads at five
        use_cpus(monkeypatch, 1, biquadrate.WINDOW_SUMS)
        one = search_double_representations(3500)
        use_cpus(monkeypatch, 5, biquadrate.WINDOW_SUMS)
        assert search_double_representations(3500) == one
        assert 155974778565937 in {t.n for t in one}

    def test_a_failing_window_thread_raises_in_the_caller(self, monkeypatch):
        use_cpus(monkeypatch, 3)

        class FailsOffTheMainThread:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def flatnonzero(a):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("window lost")
                return np.flatnonzero(a)

        monkeypatch.setattr(biquadrate, "np", FailsOffTheMainThread())
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="window lost"):
            search_double_representations(2000)
        assert threading.active_count() == before

    def test_results_are_primitive_distinct_pairs(self):
        for quad in search_double_representations(700, shards=2):
            assert math.gcd(*quad.components()) == 1
            a, b = quad.pairs()
            assert a != b
            assert quad.p**4 + quad.q**4 == quad.r**4 + quad.s**4 == quad.n

    def test_large_scan_reaches_known_value(self):
        hits = {t.n for t in search_double_representations(3500, shards=4)}
        assert 155974778565937 in hits

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            search_double_representations(1)
        with pytest.raises(ValueError):
            search_double_representations(MAX_SEARCH_BASE + 1)
        with pytest.raises(ValueError):
            search_double_representations(100, shards=0)

    def test_cap_is_the_last_int64_safe_base(self):
        # every sum p^4 + q^4 is at most 2 * base^4; the next base wraps int64
        assert 2 * MAX_SEARCH_BASE**4 < 2**63 <= 2 * (MAX_SEARCH_BASE + 1) ** 4
        with pytest.raises(ValueError, match="int64"):
            search_double_representations(MAX_SEARCH_BASE + 1)


class TestSievePrimes:
    """The lemma behind the pairs the search skips: a prime l != 1 (mod 8)
    that divides p and q divides r and s whenever p^4 + q^4 = r^4 + s^4."""

    def test_primes_are_not_1_mod_8(self):
        # adding 17 fails here: 2^4 = -1 (mod 17)
        assert all(is_probable_prime(ell) and ell % 8 != 1 for ell in SIEVE_PRIMES)

    def test_minus_one_is_no_fourth_power_mod_the_odd_primes(self):
        for ell in SIEVE_PRIMES:
            if ell > 2:
                assert all(pow(x, 4, ell) != ell - 1 for x in range(ell)), ell

    def test_sums_divisible_by_16_have_even_bases(self):
        assert 2 in SIEVE_PRIMES
        for x in range(16):
            for y in range(16):
                if (x**4 + y**4) % 16 == 0:
                    assert x % 2 == 0 and y % 2 == 0, (x, y)


def scan_representations(n: int, sieve: int = 1) -> list[tuple[int, int]]:
    """Oracle: every p <= (n/2)^(1/4), ascending, with q = isqrt(isqrt(n - p^4))
    checked exactly.  With a sieve modulus M only the p with n - p^4 a
    fourth power mod M are tried; no pair is lost, since n - p^4 = q^4."""
    top = math.isqrt(math.isqrt(n // 2))
    fourth = (np.arange(sieve) ** 2 % sieve) ** 2 % sieve
    residues = np.flatnonzero(np.isin((n % sieve - fourth) % sieve, fourth)).tolist()
    out = []
    for base in range(0, top + 1, sieve):
        for p in residues:
            p += base
            if p > top:
                break
            q = math.isqrt(math.isqrt(n - p**4))
            if p > 0 and p**4 + q**4 == n:
                out.append((p, q))
    return out


# fourth powers are 5, 11 and 19 of the residues mod 17, 41 and 73
FAMILY_SIEVE = 17 * 41 * 73


class TestRepresentations:
    def test_known_values(self):
        for n, pairs in [(17, [(1, 2)]), (635318657, [(59, 158), (133, 134)]), (2, [(1, 1)]),
                         (1, []), (3, [])]:
            assert representations(n, factor(2 * n)) == pairs
        with pytest.raises(ValueError):
            representations(17, factor(17))

    def test_matches_the_scan_to_20000(self):
        for n in range(1, 20_001):  # multiples of 4 and of 16 included
            assert representations(n, factor(2 * n)) == scan_representations(n), n

    def test_matches_the_scan_on_search_hits(self):
        hits = {quad.n for quad in search_double_representations(2000)}
        assert len(hits) == 8
        for n in hits:
            expected = scan_representations(n)
            assert scan_representations(n, FAMILY_SIEVE) == expected
            assert representations(n, factor(2 * n)) == expected

    def test_matches_the_scan_on_the_family(self):
        scan = functools.cache(lambda n: scan_representations(n, FAMILY_SIEVE))  # (b, a) gives n again
        for a in range(1, 9):
            for b in range(1, 9):
                if a != b and math.gcd(a, b) == 1:
                    quad = euler_quadruple(a, b)
                    pairs = representations(quad.n, factor_2n(quad))
                    assert pairs == scan(quad.n), (a, b)
                    assert set(quad.pairs()) <= set(pairs)

    def test_42_digit_family_n_is_fast(self):
        # the scan would try about 3 * 10^10 values of p here
        quad = euler_quadruple(31, 17)
        start = time.perf_counter()
        pairs = representations(quad.n, factor(2 * quad.n))
        assert time.perf_counter() - start < 1
        assert len(str(quad.n)) == 42
        assert pairs == sorted(quad.pairs())


class TestRecoverEulerParams:
    def test_recovers_reference_quadruple(self):
        quad = validate_double_representation(158, -59, 134, 133)
        params = recover_euler_params(quad)
        assert params is not None
        assert euler_quadruple(*params).pairs() in (
            quad.pairs(),
            tuple(reversed(quad.pairs())),
        )

    def test_recovers_reduced_quadruple(self):
        quad = validate_double_representation(1203, -76, 1176, 653)
        params = recover_euler_params(quad)
        assert params is not None
        assert {abs(params[0]), abs(params[1])} == {3, 1}

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_roundtrip_on_family(self, a, b):
        source = euler_quadruple(a, b)
        quad = validate_double_representation(*source.components())
        params = recover_euler_params(quad)
        assert params is not None
        assert euler_quadruple(*params).pairs() in (
            quad.pairs(),
            tuple(reversed(quad.pairs())),
        )

    def test_large_negated_quadruple_is_fast(self):
        # |p - r| near 2^80: exact cube roots must not step down one at a time
        p, q, r, s = euler_quadruple(3000, 7).components()
        quad = validate_double_representation(-p, -q, r, s)
        start = time.perf_counter()
        assert recover_euler_params(quad) == (3000, 7)
        assert time.perf_counter() - start < 1.0

    def test_unrelated_quadruple_returns_none(self):
        # degenerate but not of parametrized shape
        quad = validate_double_representation(5, 7, 7, 5)
        assert recover_euler_params(quad) is None

"""Double representations n = p**4 + q**4 = r**4 + s**4.

The classical two-parameter family

    p = a^7 + a^5 b^2 - 2 a^3 b^4 + 3 a^2 b^5 + a b^6
    q = a^6 b - 3 a^5 b^2 - 2 a^4 b^3 + a^2 b^5 + b^7
    r = a^7 + a^5 b^2 - 2 a^3 b^4 - 3 a^2 b^5 + a b^6
    s = a^6 b + 3 a^5 b^2 - 2 a^4 b^3 + a^2 b^5 + b^7

satisfies p^4 + q^4 = r^4 + s^4 identically, and the common value factors as
A*B*C*D for the quartic forms below.  Both facts are load-bearing: the search
uses the identity as a cross-check, the descent step uses the factors, and
factor_2n splits 2n through them before Pollard rho.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import DEFAULT_EFFORT, FactorEffort, Factorization, factor, iroot, is_square

# Largest base whose sums p^4 + q^4 <= 2 * base^4 stay below 2^63: from
# 46341 on they wrap to negative int64 values and hits are lost.
MAX_SEARCH_BASE = 46_340

# Primes l != 1 (mod 8): a pair (p, q) that shares one is in no primitive
# quadruple (see search_double_representations), so the search skips it.
SIEVE_PRIMES = (2, 3, 5, 7)

# Search settings; none of them changes the output.  Slices of fewer than
# SHORT_SLICE sums are built in groups, and sorted sums are compared with
# their successors, about CHUNK at a time, so no temporary grows with the
# window.  A search uses one thread per SEGMENT_MIN sums of a window, up to
# one per CPU: in smaller windows the threads' handoffs of the interpreter
# lock (about 2 ms a window) cost more than sharing the sort saves.
CHUNK = 1 << 13
SHORT_SLICE = 256
SEGMENT_MIN = 1 << 20


class NotEqual(ValueError):
    """The two alleged representations sum to different values."""


class ZeroBase(ValueError):
    """A base of the alleged double representation is zero."""


class NotASquare(ArithmeticError):
    """A quantity that must be a perfect square is not."""


class PropertyViolation(RuntimeError):
    """An identity that holds for every valid input failed; indicates a bug."""


@dataclass(frozen=True)
class BiquadQuadruple:
    """A double representation n = p^4 + q^4 = r^4 + s^4.

    Only the evidence is stored, and the constructor checks it: the bases
    (ZeroBase if one is zero, NotEqual unless the sums agree) and, for a
    parametrized quadruple, euler_params = (a, b) with the gcd `reduction`
    divided out of the raw quadruple (ValueError unless the reduced
    parameters give these pairs and reduction is that gcd; reduction is 1
    without parameters).
    Derived: n = p^4 + q^4; primitive <=> gcd(p, q, r, s) == 1;
    degenerate <=> {|p|, |q|} == {|r|, |s|} as multisets.
    """

    p: int
    q: int
    r: int
    s: int
    reduction: int = 1
    euler_params: tuple[int, int] | None = None

    def __post_init__(self):
        if 0 in self.components():
            raise ZeroBase(f"a base of {self.components()} is zero")
        left, right = self.p**4 + self.q**4, self.r**4 + self.s**4
        if left != right:
            raise NotEqual(f"{left} != {right}")
        if self.euler_params is None:
            if self.reduction != 1:
                raise ValueError(f"reduction {self.reduction} recorded without euler parameters")
            return
        raw = euler_raw_quadruple(*self.euler_params)
        g = math.gcd(*raw)
        refit = BiquadQuadruple(*(x // g for x in raw)).pairs()
        if self.pairs() not in (refit, refit[::-1]):
            raise ValueError(f"euler parameters {self.euler_params} do not regenerate the quadruple")
        if self.reduction != g:
            raise ValueError(f"reduction {self.reduction} is not the parametrized gcd {g}")

    @property
    def n(self) -> int:
        return self.p**4 + self.q**4

    @property
    def primitive(self) -> bool:
        return math.gcd(self.p, self.q, self.r, self.s) == 1

    @property
    def degenerate(self) -> bool:
        return len(set(self.pairs())) == 1

    def components(self) -> tuple[int, int, int, int]:
        return (self.p, self.q, self.r, self.s)

    def pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two representations, each normalized to 0 <= p <= q."""
        a = tuple(sorted((abs(self.p), abs(self.q))))
        b = tuple(sorted((abs(self.r), abs(self.s))))
        return (a, b)  # type: ignore[return-value]


def euler_raw_quadruple(a: int, b: int) -> tuple[int, int, int, int]:
    """The unreduced parametrized quadruple; requires a*b != 0."""
    if a == 0 or b == 0:
        raise ValueError("parameters must be nonzero")
    p = a**7 + a**5 * b**2 - 2 * a**3 * b**4 + 3 * a**2 * b**5 + a * b**6
    q = a**6 * b - 3 * a**5 * b**2 - 2 * a**4 * b**3 + a**2 * b**5 + b**7
    r = a**7 + a**5 * b**2 - 2 * a**3 * b**4 - 3 * a**2 * b**5 + a * b**6
    s = a**6 * b + 3 * a**5 * b**2 - 2 * a**4 * b**3 + a**2 * b**5 + b**7
    return p, q, r, s


def euler_quadruple(a: int, b: int) -> BiquadQuadruple:
    """Parametrized double representation, reduced by the common gcd.

    The raw quadruple is divided by g = gcd(p, q, r, s) (which divides n by
    g^4), so the result is always primitive; `reduction` records g.
    """
    raw = euler_raw_quadruple(a, b)
    g = math.gcd(*raw)
    return BiquadQuadruple(*(x // g for x in raw), reduction=g, euler_params=(a, b))


def validate_double_representation(p: int, q: int, r: int, s: int) -> BiquadQuadruple:
    """The quadruple (p, q, r, s); raises NotEqual unless p^4+q^4 == r^4+s^4."""
    return BiquadQuadruple(p, q, r, s)


def representations(n: int, max_base: int | None = None) -> list[tuple[int, int]]:
    """All pairs 0 < p <= q with p^4 + q^4 == n, ascending in p.

    Exhaustive up to the natural bound n^(1/4); max_base caps the scan.
    """
    if n < 2:
        return []
    bound = math.isqrt(math.isqrt(n))
    top = math.isqrt(math.isqrt(n // 2))  # 2 p^4 <= n, so p <= q
    if max_base is not None:
        bound, top = min(bound, max_base), min(top, max_base)  # p <= q <= max_base
    out = []
    for p in range(1, top + 1):
        q = math.isqrt(math.isqrt(n - p**4))
        if p**4 + q**4 == n and q <= bound:
            out.append((p, q))
    return out


def search_double_representations(max_base: int, shards: int = 1) -> list[BiquadQuadruple]:
    """Every n = p^4+q^4 = r^4+s^4 with 0 < p <= q <= max_base, two distinct
    pairs, gcd(p,q,r,s) == 1.

    Returns one quadruple per unordered pair of representations, sorted by
    (n, pairs); deterministic.  Sums go into `shards` value windows [L, U) of
    about equal size (Bernstein, Math. Comp. 70 (2001)): each q's p form one
    slice, so each sum is built once.  Each window is split again into value
    segments, one per CPU the process may use but none under SEGMENT_MIN
    sums.  Equal sums share a segment, so each segment is built, sorted and
    scanned for repeats alone, in its part of the window's one buffer, on a
    thread pool made once per search (or in the caller if one suffices).
    Neither the windows nor the CPU count change the output.

    A window edge or segment cut is a value v whose count of built sums
    below it is within 1% of a window (or segment) of its target.  Below
    max_base^4 that count grows like sqrt(v), so a cut is found by false
    position in sqrt(v), with a bisection every third step: about two count
    evaluations per cut.

    Only sums a primitive quadruple can use are built.  Let l be a prime
    with l != 1 (mod 8) dividing p and q.  For odd l, -1 is not a fourth
    power mod l (a fourth root of -1 has order 8 in F_l^*), so l | r^4 + s^4
    forces l | r and l | s; for l = 2, n = 0 (mod 16) forces r and s even.
    Either way l | gcd(p, q, r, s), so pairs sharing a prime of SIEVE_PRIMES
    are skipped: that keeps about prod(1 - 1/l^2) = 0.63 of the sums, and
    peak memory is still about 0.63*8*max_base^2/(2*shards) bytes.
    """
    if max_base < 2:
        raise ValueError("max_base must be at least 2")
    if max_base > MAX_SEARCH_BASE:
        raise ValueError(
            f"max_base beyond {MAX_SEARCH_BASE}: 2 * max_base^4 overflows the int64 search"
        )
    if shards < 1:
        raise ValueError("shards must be positive")
    # imported here, not with the package: it loads logging too (about 12 ms)
    from concurrent.futures import ThreadPoolExecutor

    fourth = np.arange(max_base + 1, dtype=np.int64) ** 4
    q4, past = fourth[1:], np.arange(2, max_base + 2)  # for q = 1..max_base

    def first_p(v: int) -> np.ndarray:  # per q: least p >= 1 with p^4 + q^4 >= v, or q + 1
        # keys in ascending order (q descending) let each search start from the last
        p = np.searchsorted(fourth[1:], v - q4[::-1])[::-1] + 1
        return np.minimum(p, past, out=p)

    # The class of x has bit i set when SIEVE_PRIMES[i] divides x.  Row g of
    # `usable` marks the p in 1..max_base that share no such prime with class
    # g; `kept` holds their p^4, class after class, and rank at (g, p) is
    # where the usable p' >= p of class g start in it.
    x = np.arange(max_base + 2)
    cls = sum((x % ell == 0) << i for i, ell in enumerate(SIEVE_PRIMES))
    usable = (np.arange(1 << len(SIEVE_PRIMES))[:, None] & cls) == 0
    usable[:, 0] = usable[:, -1] = False
    kept = fourth[usable.nonzero()[1]]
    rank = np.cumsum(usable) - usable.ravel()  # flat: rank[g * (max_base + 2) + p]
    row = cls[1:-1] * (max_base + 2)  # per q: where the row of its class starts

    def mark(v: int) -> tuple[int, np.ndarray, int]:
        """v, the index into kept of each q's first sum >= v, and their total:
        the sums built below v differ from that total by a constant."""
        start = rank.take(row + first_p(v))
        return v, start, int(start.sum())

    def cut(target: int, tol: int, lo: tuple, hi: tuple) -> tuple:
        """A mark from lo to hi whose total is within tol of target."""
        for end in (lo, hi):
            if abs(end[2] - target) <= tol:
                return end
        step = 0
        while hi[0] - lo[0] > 1:  # lo[2] < target - tol and hi[2] > target + tol
            step += 1
            if step % 3:
                a, b = math.sqrt(lo[0]), math.sqrt(hi[0])
                s = a + (b - a) * (target - lo[2]) / (hi[2] - lo[2])
                v = min(max(int(s * s), lo[0] + 1), hi[0] - 1)
            else:
                v = (lo[0] + hi[0]) // 2
            mid = mark(v)
            if abs(mid[2] - target) <= tol:
                return mid
            lo, hi = (mid, hi) if mid[2] < target else (lo, mid)
        return hi

    def split(lower: tuple, upper: tuple, parts: int):
        """The marks after lower that cut [lower, upper) into `parts` pieces
        of about equal size, each within 1% of a piece; the last is upper."""
        base, size = lower[2], upper[2] - lower[2]
        for k in range(1, parts):
            lower = cut(base + k * size // parts, size // (100 * parts), lower, upper)
            yield lower
        yield upper

    def segment(out: np.ndarray, start: np.ndarray, stop: np.ndarray) -> list[int]:
        """Build into out the sums from the kept p^4 in [start, stop) of each
        q, sort them, and return those built twice or more, ascending."""
        size = stop - start
        long = np.flatnonzero(size >= SHORT_SLICE)
        pos = 0
        for i, lo, hi in zip(long.tolist(), start[long].tolist(), stop[long].tolist()):
            np.add(kept[lo:hi], q4[i], out=out[pos : pos + hi - lo])  # one add per long slice
            pos += hi - lo
        # Short slices go in groups of about CHUNK sums, one gather a group:
        # each sum's index into kept is its slice's start plus its place in it.
        short = np.flatnonzero((size > 0) & (size < SHORT_SLICE))
        ends = np.cumsum(size[short])
        groups = np.searchsorted(ends, np.arange(CHUNK, len(out) - pos, CHUNK)).tolist()
        for a, b in zip([0, *groups], [*groups, len(short)]):
            qs = short[a:b]
            n = size[qs]
            part = out[pos : pos + int(n.sum())]
            at = np.repeat(start[qs] - np.cumsum(n) + n, n)
            at += np.arange(len(part))
            np.take(kept, at, out=part)
            del at
            part += np.repeat(q4[qs], n)
            pos += len(part)
        out.sort()
        repeats = set()
        for i in range(0, len(out) - 1, CHUNK):
            left, right = out[i : i + CHUNK], out[i + 1 : i + CHUNK + 1]
            repeats.update(right[left[: len(right)] == right].tolist())
        return sorted(repeats)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    lower, last = mark(0), mark(2 * max_base**4 + 1)
    windows = min(shards, max_base * (max_base + 1) // 2)
    workers = min(cpus, max(1, (last[2] - lower[2]) // windows // SEGMENT_MIN))
    results: list[BiquadQuadruple] = []
    with ThreadPoolExecutor(workers) as pool:  # starts no thread until used
        run = pool.map if workers > 1 else map
        for upper in split(lower, last, windows):
            marks = [lower, *split(lower, upper, workers)]
            window = np.empty(upper[2] - lower[2], dtype=np.int64)

            # marks, not views, which a finished pool task would keep alive a while
            def part(a: tuple, b: tuple) -> list[int]:
                return segment(window[a[2] - lower[2] : b[2] - lower[2]], a[1], b[1])

            repeated = [n for repeats in run(part, marks, marks[1:]) for n in repeats]
            del window  # freed before the next window is allocated
            for n in repeated:
                # p <= q  <=>  2 p^4 <= n; then q^4 = n - p^4 is looked up exactly
                ps = np.arange(1, math.isqrt(math.isqrt(n // 2)) + 1)
                qs = np.minimum(np.searchsorted(fourth, n - fourth[ps]), max_base)
                found = fourth[ps] + fourth[qs] == n
                pairs = zip(ps[found].tolist(), qs[found].tolist())
                results.extend(
                    BiquadQuadruple(p, q, r, s)
                    for (p, q), (r, s) in combinations(pairs, 2)
                    if math.gcd(p, q, r, s) == 1
                )
            lower = upper
    return results


@dataclass(frozen=True)
class QuarticFactors:
    """The four quartic forms whose product is the raw parametrized n.

    b1 = B*D and b2 = -A*C multiply to -n and are the torsor coefficients
    used by the descent step.
    """

    A: int
    B: int
    C: int
    D: int
    b1: int
    b2: int
    n_raw: int


def quartic_factors(a: int, b: int) -> QuarticFactors:
    """A, B, C, D with A*B*C*D = p^4+q^4 for the raw quadruple at (a, b).

    Checks the nonsquareness/inequality side conditions (B != D, A != C,
    A and D nonsquare) and the product identity; any failure raises
    PropertyViolation since these hold for all valid parameters.
    """
    A = b**4 + 6 * b**2 * a**2 + a**4
    B = b**8 + 2 * b**6 * a**2 + 11 * b**4 * a**4 + 2 * b**2 * a**6 + a**8
    C = b**8 - 4 * b**6 * a**2 + 8 * b**4 * a**4 - 4 * b**2 * a**6 + a**8
    D = b**8 - b**4 * a**4 + a**8
    p, q, _, _ = euler_raw_quadruple(a, b)
    n_raw = p**4 + q**4
    if A * B * C * D != n_raw:
        raise PropertyViolation(f"product identity failed at ({a}, {b})")
    if B == D or A == C:
        raise PropertyViolation(f"factor coincidence at ({a}, {b})")
    if abs(a) != abs(b):
        # A = (a^2+b^2)^2 + (2ab)^2 is a sum of two squares > 0, never a
        # square itself for ab != 0; D likewise.  At |a| == |b| the reduced
        # quadruple is degenerate and D collapses to a fourth power.
        if is_square(A) or is_square(D):
            raise PropertyViolation(f"unexpected square factor at ({a}, {b})")
    return QuarticFactors(A=A, B=B, C=C, D=D, b1=B * D, b2=-A * C, n_raw=n_raw)


def factor_2n(quad: BiquadQuadruple, effort: FactorEffort = DEFAULT_EFFORT) -> Factorization:
    """The factorization of 2n, split through the quartic factors A, B, C, D
    of the raw n = n * reduction^4 when the quadruple has family parameters.

    The parameters only guide the work: the result is factor(2n) whatever
    they are.
    """
    if quad.euler_params is None:
        return factor(2 * quad.n, effort)
    f = quartic_factors(*quad.euler_params)
    return factor(2 * quad.n, effort, (f.A, f.B, f.C, f.D))


def witness_root_polynomial(a: int, b: int) -> int:
    """Inner polynomial of the K = N^2 identity: N = a^2 * |value|.

    Note the a^2 exponent on the third term; the widely printed form has a^3
    there and fails already at (a, b) = (2, 1).  See the erratum note in the
    README.
    """
    return a**6 + a**4 * b**2 + 4 * a**2 * b**4 - 5 * b**6


def fourth_power_witness(a: int, b: int) -> tuple[int, int]:
    """(K, N) with K = B*D - b^4*A*C = N^2.

    K is the value of the homogeneous space N^2 = b1*M^4 + b2*e^4 at
    (M, e) = (1, b); it being a perfect square is what puts b1 in the
    descent image.  Raises NotASquare if the square check fails and
    PropertyViolation if N does not match the closed form a^2 * |inner|.
    """
    f = quartic_factors(a, b)
    K = f.B * f.D - b**4 * f.A * f.C
    if K < 0:
        raise NotASquare(f"K({a}, {b}) = {K} is negative")
    N = math.isqrt(K)
    if N * N != K:
        raise NotASquare(f"K({a}, {b}) = {K} is not a perfect square")
    if N != a**2 * abs(witness_root_polynomial(a, b)):
        raise PropertyViolation(f"witness root mismatch at ({a}, {b})")
    return K, N


def recover_euler_params(quad: BiquadQuadruple) -> tuple[int, int] | None:
    """Try to express a double representation via the parametrization.

    In the family, (p - r) / (s - q) = (b/a)^3, so a candidate (a : b) can be
    read off from any sign/order arrangement of the quadruple and then
    verified exactly against the reduced parametrized quadruple.  Returns
    (a, b) or None if no arrangement works.
    """
    base = (quad.p, quad.q, quad.r, quad.s)
    arrangements = []
    for swap_pairs in (False, True):
        p, q, r, s = (base[2], base[3], base[0], base[1]) if swap_pairs else base
        for sp in (1, -1):
            for sq in (1, -1):
                for sr in (1, -1):
                    for ss in (1, -1):
                        arrangements.append((sp * p, sq * q, sr * r, ss * s))
                        arrangements.append((sp * q, sq * p, sr * s, ss * r))
    seen = set()
    for p, q, r, s in arrangements:
        if (p, q, r, s) in seen:
            continue
        seen.add((p, q, r, s))
        num, den = p - r, s - q
        if num == 0 or den == 0:
            continue
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        b_cand, a_cand = iroot(abs(num), 3), iroot(den, 3)
        if b_cand**3 != abs(num) or a_cand**3 != den:
            continue
        if num < 0:
            b_cand = -b_cand
        if euler_quadruple(a_cand, b_cand).pairs() in (quad.pairs(), quad.pairs()[::-1]):
            return a_cand, b_cand
    return None

"""Double representations n = p**4 + q**4 = r**4 + s**4.

The classical two-parameter family

    p = a^7 + a^5 b^2 - 2 a^3 b^4 + 3 a^2 b^5 + a b^6
    q = a^6 b - 3 a^5 b^2 - 2 a^4 b^3 + a^2 b^5 + b^7
    r = a^7 + a^5 b^2 - 2 a^3 b^4 - 3 a^2 b^5 + a b^6
    s = a^6 b + 3 a^5 b^2 - 2 a^4 b^3 + a^2 b^5 + b^7

satisfies p^4 + q^4 = r^4 + s^4 identically, and the common value factors as
A*B*C*D for the quartic forms below.  The acceptance tests prove both
identities; the descent step uses the factors, and factor_2n splits 2n
through them after trial division, before Pollard p - 1 and rho.  The
representations of one given n are read from the factorization of 2n, as
Gaussian integers of norm n, without a search.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, pairwise, product, starmap

import numpy as np

from .arith import DEFAULT_EFFORT, Factorization, factor, iroot, is_square

# Largest base whose sums p^4 + q^4 <= 2 * base^4 stay below 2^63: from
# 46341 on they wrap to negative int64 values and hits are lost.
MAX_SEARCH_BASE = 46_340

# Primes l != 1 (mod 8): a pair (p, q) that shares one is in no primitive
# quadruple (see search_double_representations), so the search skips it.
SIEVE_PRIMES = (2, 3, 5, 7)

# Search settings; none of them changes the output.  A search cuts its sums
# into value windows of at most about WINDOW_SUMS sums (8 MB as int64) and
# builds, sorts and scans each whole on one thread, up to one per CPU, in a
# buffer the search made for it.  Slices of fewer than SHORT_SLICE sums are
# built in groups, and sorted sums are compared with their successors, about
# CHUNK at a time, so no temporary grows with the window.
CHUNK = 1 << 13
SHORT_SLICE = 256
WINDOW_SUMS = 1 << 20


class NotEqual(ValueError):
    """The two alleged representations sum to different values."""


class ZeroBase(ValueError):
    """A base of the alleged double representation is zero."""


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
    degenerate <=> {|p|, |q|} == {|r|, |s|} as multisets; `quartic`, the
    quartic factors of the parameters, built once per quadruple.
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

    @cached_property
    def quartic(self) -> QuarticFactors | None:
        """quartic_factors(*euler_params), or None without parameters."""
        return None if self.euler_params is None else quartic_factors(*self.euler_params)

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


def representations(n: int, f: Factorization) -> list[tuple[int, int]]:
    """All pairs 0 < p <= q with p^4 + q^4 == n, ascending in p, read from f,
    the factorization of 2n (Cohen, A Course in Computational Algebraic
    Number Theory, 1.5).

    n = X^2 + Y^2 with X = p^2, Y = q^2 is the norm of X + iY.  Up to units,
    which swap X and Y or flip signs, the Gaussian integers of norm n are
    the products over the primes l^e of n of (1+i)^e for l = 2, l^(e/2) for
    l = 3 (mod 4) (none if e is odd), and pi^k conj(pi)^(e-k), 0 <= k <= e,
    for l = pi conj(pi) = 1 (mod 4).
    """
    if f.value != 2 * n:
        raise ValueError(f"factorization is not of 2n = {2 * n}")

    def mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
        return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]

    norm_n = [(1, 0)]
    for ell, e in f.primes:
        if ell == 2:  # (1+i)^2 = 2i, and 2n has one factor 2 more than n
            h, odd = divmod(e - 1, 2)
            choices = [(2**h, 2**h * odd)]
        elif ell % 4 == 3:
            if e % 2:
                return []
            choices = [(ell ** (e // 2), 0)]
        else:  # Hermite-Serret: Euclid on ell and a root of -1 mod ell stops at x < sqrt(ell)
            c = 2
            while pow(c, (ell - 1) // 2, ell) != ell - 1:  # c^((ell-1)/4) squares to -1
                c += 1
            a, x = ell, pow(c, (ell - 1) // 4, ell)
            while x * x > ell:
                a, x = x, a % x
            powers = [(1, 0)]
            for _ in range(e):
                powers.append(mul(powers[-1], (x, math.isqrt(ell - x * x))))
            choices = [mul(powers[k], (powers[e - k][0], -powers[e - k][1])) for k in range(e + 1)]
        norm_n = [mul(z, w) for z in norm_n for w in choices]
    pairs = {tuple(sorted((math.isqrt(abs(X)), math.isqrt(abs(Y))))) for X, Y in norm_n}
    return sorted((p, q) for p, q in pairs if p > 0 and p**4 + q**4 == n)


def search_double_representations(max_base: int, shards: int = 1) -> list[BiquadQuadruple]:
    """Every n = p^4+q^4 = r^4+s^4 with 0 < p <= q <= max_base, two distinct
    pairs, gcd(p,q,r,s) == 1.

    Returns one quadruple per unordered pair of representations, sorted by
    (n, pairs); deterministic.  Sums go into value windows [L, U) of about
    equal size (Bernstein, Math. Comp. 70 (2001)): each q's p form one slice,
    so each sum is built once, and a window reads only the q with q^4 + 1 < U
    and 2 q^4 >= L.  There are at least `shards` windows (only benchmarks and
    tests set it), and a multiple of the thread count large enough that no
    window holds much more than WINDOW_SUMS sums (8 MB): one thread per
    WINDOW_SUMS sums, up to one per CPU the process may use.  Equal sums
    share a window, so each is built, sorted and scanned for repeats whole,
    in one of the buffers, one a thread, that the search makes before any
    window runs.  Neither the windows nor the CPU count change the output;
    peak memory is about 8*WINDOW_SUMS bytes a thread plus arrays of about
    400*max_base bytes: at the cap, on 2 CPUs, about 68 MB resident and 5.5 s.

    A window edge is a value v whose count of built sums below it is within
    1% of a window of its target, found by false position in sqrt(v) (the
    count grows like sqrt(v) below max_base^4), bisecting every third step:
    about two counts an edge, each over the q with q^4 + 1 < v <= 2 q^4 only.

    Only sums a primitive quadruple can use are built.  Let l be a prime
    with l != 1 (mod 8) dividing p and q.  For odd l, -1 is not a fourth
    power mod l (a fourth root of -1 has order 8 in F_l^*), so l | r^4 + s^4
    forces l | r and l | s; for l = 2, n = 0 (mod 16) forces r and s even.
    Either way l | gcd(p, q, r, s), so pairs sharing a prime of SIEVE_PRIMES
    are skipped: that keeps about prod(1 - 1/l^2) = 0.63 of the sums.
    """
    if max_base < 2:
        raise ValueError("max_base must be at least 2")
    if max_base > MAX_SEARCH_BASE:
        raise ValueError(f"max_base beyond {MAX_SEARCH_BASE}: 2 * max_base^4 overflows the int64 search")
    if shards < 1:
        raise ValueError("shards must be positive")
    # imported here, not with the package: it loads logging too (about 12 ms)
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    fourth = np.arange(max_base + 1, dtype=np.int64) ** 4
    q4 = fourth[1:]  # for q = 1..max_base

    # The class of x has bit i set when SIEVE_PRIMES[i] divides x.  Row g of
    # `usable` marks the p in 1..max_base that share no such prime with class
    # g; `kept` holds their p^4, class after class, and rank at (g, p) is
    # where the usable p' >= p of class g start in it.  Each q's slice of kept,
    # its p <= q, runs from begin to end; `built` counts the sums of the q before.
    x = np.arange(max_base + 2)
    cls = sum((x % ell == 0) << i for i, ell in enumerate(SIEVE_PRIMES))
    usable = (np.arange(1 << len(SIEVE_PRIMES))[:, None] & cls) == 0
    usable[:, 0] = usable[:, -1] = False
    kept = fourth[usable.nonzero()[1]]
    rank = np.cumsum(usable) - usable.ravel()  # flat: rank[g * (max_base + 2) + p]
    row = cls[1:-1] * (max_base + 2)  # per q: where the row of its class starts
    begin, end = rank.take(row + 1), rank.take(row + x[2:])
    built = np.concatenate(([0], np.cumsum(end - begin)))

    def mark(v: int) -> tuple[int, int, int, int, np.ndarray]:
        """v, the count of sums built below v, the q index range [i, j) of q^4 + 1 < v <= 2 q^4 and
        each such q's index into kept of its first sum >= v: q before i have all sums below v, from j none."""
        i, j = np.searchsorted(q4, [-(-v // 2), v - 1]).tolist()
        part = rank.take(row[i:j] + np.searchsorted(q4, v - q4[i:j][::-1])[::-1] + 1)  # keys ascend: q descends
        return v, int(built[i] + (part - begin[i:j]).sum()), i, j, part

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    first, last = mark(0), mark(2 * max_base**4 + 1)
    total = last[1]
    threads = min(cpus, -(-total // WINDOW_SUMS))
    windows = min(max(shards, -(-total // (threads * WINDOW_SUMS)) * threads), max_base * (max_base + 1) // 2)
    tol = total // (100 * windows)
    width = total // windows + 1 + 2 * tol  # the longest window edges within tol make
    buffers = SimpleQueue()  # one buffer a thread, passed from window to window
    for _ in range(threads):
        buffers.put(np.empty(width, dtype=np.int64))

    def cut(lo: tuple, target: int, hi: tuple = last) -> tuple:
        """A mark from lo to hi whose count is within tol of target."""
        for edge in (lo, hi):
            if abs(edge[1] - target) <= tol:
                return edge
        step = 0
        while hi[0] - lo[0] > 1:  # lo[1] < target - tol and hi[1] > target + tol
            step += 1
            if step % 3:
                a, b = math.sqrt(lo[0]), math.sqrt(hi[0])
                s = a + (b - a) * (target - lo[1]) / (hi[1] - lo[1])
                v = min(max(int(s * s), lo[0] + 1), hi[0] - 1)
            else:
                v = (lo[0] + hi[0]) // 2
            mid = mark(v)
            if abs(mid[1] - target) <= tol:
                return mid
            lo, hi = (mid, hi) if mid[1] < target else (lo, mid)
        return hi

    # consecutive marks (a, b) that cut the built sums into `windows` windows, made lazily
    targets = (k * total // windows for k in range(1, windows))
    edges = pairwise(chain(accumulate(targets, cut, initial=first), [last]))

    def window(a: tuple, b: tuple) -> list[int]:
        """Build the sums from the kept p^4 between marks a and b of each q that
        reaches [a, b), sort them, and return those built twice or more, ascending."""
        buffer, count = buffers.get(), b[1] - a[1]
        try:  # per q from a[2] to b[3], its first sums >= a's v and b's v: from a mark, else a slice end
            start, stop = np.concatenate((a[4], begin[a[3] : b[3]])), np.concatenate((end[a[2] : b[2]], b[4]))
            out = buffer[:count] if len(buffer) >= count else np.empty(count, np.int64)  # an edge overshot width
            size, pos, qs4 = stop - start, 0, q4[a[2] : b[3]]
            long = np.flatnonzero(size >= SHORT_SLICE)
            for i, lo, hi in zip(long.tolist(), start[long].tolist(), stop[long].tolist()):
                np.add(kept[lo:hi], qs4[i], out=out[pos : pos + hi - lo])  # one add per long slice
                pos += hi - lo
            # Short slices go in groups of about CHUNK sums, one gather a group:
            # each sum's index into kept is its slice's start plus its place in it.
            short = np.flatnonzero((size > 0) & (size < SHORT_SLICE))
            ends = np.cumsum(size[short])
            groups = np.searchsorted(ends, np.arange(CHUNK, len(out) - pos, CHUNK)).tolist()
            for lo, hi in zip([0, *groups], [*groups, len(short)]):
                qs = short[lo:hi]
                n = size[qs]
                part = out[pos : pos + int(n.sum())]
                np.take(kept, np.repeat(start[qs] - np.cumsum(n) + n, n) + np.arange(len(part)), out=part)
                part += np.repeat(qs4[qs], n)
                pos += len(part)
            out.sort()
            repeats = set()
            for i in range(0, len(out) - 1, CHUNK):
                left, right = out[i : i + CHUNK], out[i + 1 : i + CHUNK + 1]
                repeats.update(right[left[: len(right)] == right].tolist())
            return sorted(repeats)
        finally:
            buffers.put(buffer)

    results: list[BiquadQuadruple] = []
    with ThreadPoolExecutor(threads) as pool:  # starts no thread until used

        def pooled():  # each window's repeats in order, at most threads + 1 windows in flight
            pending = []
            for a, b in edges:
                pending.append(pool.submit(window, a, b))
                if len(pending) > threads:
                    yield pending.pop(0).result()
            yield from (future.result() for future in pending)

        for repeated in pooled() if threads > 1 else starmap(window, edges):
            for n in repeated:
                # p <= q  <=>  2 p^4 <= n; then q^4 = n - p^4 is looked up exactly
                ps = np.arange(1, math.isqrt(math.isqrt(n // 2)) + 1)
                qs = np.minimum(np.searchsorted(fourth, n - fourth[ps]), max_base)
                found = fourth[ps] + fourth[qs] == n
                pairs = zip(ps[found].tolist(), qs[found].tolist())
                results.extend(BiquadQuadruple(p, q, r, s) for (p, q), (r, s) in combinations(pairs, 2)
                               if math.gcd(p, q, r, s) == 1)
    return results


@dataclass(frozen=True)
class QuarticFactors:
    """The four quartic forms whose product is the raw parametrized n.

    b1 = B*D and -A*C multiply to -n and are the torsor coefficients used
    by the descent step, which reads b1.
    """

    A: int
    B: int
    C: int
    D: int
    b1: int


def quartic_factors(a: int, b: int) -> QuarticFactors:
    """A, B, C, D with A*B*C*D = p^4+q^4 for the raw quadruple at (a, b);
    requires a*b != 0.

    The product is a polynomial identity, proved by the acceptance tests,
    so nothing checks it here.  Checks the side conditions A != C and A, D
    nonsquare; a failure raises PropertyViolation since these hold for all
    valid parameters.  B != D needs no check: B - D = 2a^2 b^2 A > 0.
    """
    if a == 0 or b == 0:
        raise ValueError("parameters must be nonzero")
    A = b**4 + 6 * b**2 * a**2 + a**4
    B = b**8 + 2 * b**6 * a**2 + 11 * b**4 * a**4 + 2 * b**2 * a**6 + a**8
    C = b**8 - 4 * b**6 * a**2 + 8 * b**4 * a**4 - 4 * b**2 * a**6 + a**8
    D = b**8 - b**4 * a**4 + a**8
    if A == C:
        raise PropertyViolation(f"factor coincidence at ({a}, {b})")
    if abs(a) != abs(b):
        # A = (a^2+b^2)^2 + (2ab)^2 is a sum of two squares > 0, never a
        # square itself for ab != 0; D likewise.  At |a| == |b| the reduced
        # quadruple is degenerate and D collapses to a fourth power.
        if is_square(A) or is_square(D):
            raise PropertyViolation(f"unexpected square factor at ({a}, {b})")
    return QuarticFactors(A=A, B=B, C=C, D=D, b1=B * D)


def factor_2n(quad: BiquadQuadruple, effort: int = DEFAULT_EFFORT) -> Factorization:
    """The factorization of 2n, split through the quartic factors A, B, C, D
    of the raw n = n * reduction^4 when the quadruple has family parameters.

    The parameters only guide the work: the result is factor(2n) whatever
    they are.
    """
    f = quad.quartic
    if f is None:
        return factor(2 * quad.n, effort)
    return factor(2 * quad.n, effort, (f.A, f.B, f.C, f.D))


def factorization_of_2n(n: int, f: Factorization | None, quad: BiquadQuadruple | None = None) -> Factorization:
    """f, checked to be the factorization of 2n; when None, factor_2n(quad), or factor(2n) without quad."""
    if f is not None and f.value != 2 * n:
        raise ValueError("factorization is not of 2n")
    return f or (factor(2 * n) if quad is None else factor_2n(quad))


def witness_root_polynomial(a: int, b: int) -> int:
    """Inner polynomial of the K = N^2 identity: N = a^2 * |value|.

    Note the a^2 exponent on the third term; the widely printed form has a^3
    there and fails already at (a, b) = (2, 1).  See the erratum note in the
    README.
    """
    return a**6 + a**4 * b**2 + 4 * a**2 * b**4 - 5 * b**6


def fourth_power_witness(a: int, b: int) -> tuple[int, int]:
    """(K, N) with K = B*D - b^4*A*C = N^2 and N = a^2 * |inner|.

    K is the value of the homogeneous space N^2 = b1*M^4 + b2*e^4 at
    (M, e) = (1, b); it being a perfect square is what puts b1 in the
    descent image.  K = N^2 is a polynomial identity, proved by the
    acceptance tests, so N is read off the closed form.
    """
    f = quartic_factors(a, b)
    return f.B * f.D - b**4 * f.A * f.C, a**2 * abs(witness_root_polynomial(a, b))


def recover_euler_quadruple(quad: BiquadQuadruple) -> BiquadQuadruple | None:
    """The reduced parametrized quadruple with the pairs of quad, or None.

    In the family, (p - r) / (s - q) = (b/a)^3, so a candidate (a : b) can be
    read off from any sign/order arrangement of the quadruple and then
    verified exactly against the reduced parametrized quadruple, which is
    returned for the first arrangement that works.
    """
    base = quad.components()
    arrangements = [
        arranged
        for p, q, r, s in (base, base[2:] + base[:2])
        for sp, sq, sr, ss in product((1, -1), repeat=4)
        for arranged in ((sp * p, sq * q, sr * r, ss * s), (sp * q, sq * p, sr * s, ss * r))
    ]
    for p, q, r, s in dict.fromkeys(arrangements):  # each once, in order
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
        found = euler_quadruple(a_cand, b_cand)
        if found.pairs() in (quad.pairs(), quad.pairs()[::-1]):
            return found
    return None


def recover_euler_params(quad: BiquadQuadruple) -> tuple[int, int] | None:
    """The family parameters (a, b) of quad, or None (see recover_euler_quadruple)."""
    found = recover_euler_quadruple(quad)
    return None if found is None else found.euler_params

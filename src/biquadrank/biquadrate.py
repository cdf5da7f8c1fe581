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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import DEFAULT_EFFORT, FactorEffort, Factorization, factor, iroot, is_square

# Largest base whose sums p^4 + q^4 <= 2 * base^4 stay below 2^63: from
# 46341 on they wrap to negative int64 values and hits are lost.
MAX_SEARCH_BASE = 46_340


class NotEqual(ValueError):
    """The two alleged representations sum to different values."""


class NotASquare(ArithmeticError):
    """A quantity that must be a perfect square is not."""


class PropertyViolation(RuntimeError):
    """An identity that holds for every valid input failed; indicates a bug."""


@dataclass(frozen=True)
class BiquadQuadruple:
    """A double representation n = p^4 + q^4 = r^4 + s^4.

    Only the evidence is stored, and the constructor checks it: the bases
    (NotEqual unless the sums agree) and, for a parametrized quadruple,
    euler_params = (a, b) with the gcd `reduction` divided out of the raw
    quadruple (ValueError unless the reduced parameters give these pairs
    and reduction is that gcd; reduction is 1 without parameters).
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
    slice, so each sum is built once; peak memory is 8*max_base^2/(2*shards) bytes.
    """
    if max_base < 2:
        raise ValueError("max_base must be at least 2")
    if max_base > MAX_SEARCH_BASE:
        raise ValueError(
            f"max_base beyond {MAX_SEARCH_BASE}: 2 * max_base^4 overflows the int64 search"
        )
    if shards < 1:
        raise ValueError("shards must be positive")

    fourth = np.arange(max_base + 1, dtype=np.int64) ** 4
    q4, past = fourth[1:], np.arange(2, max_base + 2)  # for q = 1..max_base

    def first_p(v: int) -> np.ndarray:  # per q: least p >= 1 with p^4 + q^4 >= v, or q + 1
        return np.clip(np.searchsorted(fourth, v - q4), 1, past)

    def below(v: int) -> int:  # how many sums are below v
        return int(first_p(v).sum()) - max_base

    total, top = max_base * (max_base + 1) // 2, 2 * max_base**4 + 1
    shards = min(shards, total)
    edges = [0]  # edge k is the least v with k/shards of the sums below it
    for k in range(1, shards):
        edges.append(bisect_left(range(top), k * total // shards, lo=edges[-1], key=below))
    edges.append(top)
    counts = np.diff([below(v) for v in edges])

    buf = np.empty(int(counts.max()), dtype=np.int64)
    results: list[BiquadQuadruple] = []
    start = first_p(0)
    for upper, m in zip(edges[1:], counts.tolist()):
        stop = first_p(upper)
        window, lo, hi, pos = buf[:m], start.tolist(), stop.tolist(), 0
        for i in np.flatnonzero(stop > start).tolist():
            np.add(fourth[lo[i] : hi[i]], q4[i], out=window[pos : pos + hi[i] - lo[i]])
            pos += hi[i] - lo[i]
        window.sort()
        start = stop
        for n in np.unique(window[1:][window[1:] == window[:-1]]).tolist():
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
    if a == 0 or b == 0:
        raise ValueError("parameters must be nonzero")
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

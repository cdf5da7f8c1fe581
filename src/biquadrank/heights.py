"""Canonical heights and Gram matrices on y^2 = x^3 + b*x.

The height used here is h^(P) = lim 4^{-k} h(x(2^k P)) with
h(a/b) = log max(|a|, |b|); it is the normalization for which the published
regulator-style determinants are stated, and it satisfies
h^(mP) = m^2 h^(P) and the parallelogram law.

Writing x(2^k P) = u_k / w_k in lowest terms and one duplication step as

    F(u, w) = (u^2 - b w^2)^2,   G(u, w) = 4 u w (u^2 + b w^2),

the exact recurrence  h_{k+1} = 4 h_k + D_k - gamma_k  holds with
D_k = log max(|F|, |G|) - 4 log max(|u_k|, |w_k|)  (a bounded, scale-free
quantity read off the real projective orbit) and gamma_k = log gcd(F, G).
Telescoping gives

    h^(P) = log max(|u_0|, |w_0|) + sum_k 4^{-(k+1)} (D_k - gamma_k).

The gcd divides Res(F, G) = 4096 b^6, so gamma_k is supported on the primes
dividing 2b and is recovered exactly from fixed-precision p-adic trackers;
no exact big-integer orbit is ever needed.  The tail after K terms is at
most C * 4^{-K} / 3 with the explicit constant below (cofactor identities
bound |D_k| on the unit box), so the series is truncated rigorously.

When factoring 2b exceeds the budget, a fallback computes the limit directly
on exact fractions with the same tail bound; it reaches only coarse
precision before the integers blow up, and raises PrecisionUnreachable
beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from mpmath import mp, mpf

from .arith import DEFAULT_EFFORT, EffortExceeded, FactorEffort, factor
from .curve import Curve, Point, _add_unchecked, _require_on_curve

_MAX_SERIES_TERMS = 60
_FALLBACK_MAX_BITS = 1 << 21


class PrecisionUnreachable(RuntimeError):
    """The convergence budget ran out before the requested precision."""

    def __init__(self, message: str, value: float | None = None, error_bound: float | None = None):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound


class Inconclusive(RuntimeError):
    """Every candidate determinant sits between 0 and the tolerance."""


@dataclass(frozen=True)
class HeightValue:
    value: float
    error_bound: float

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple[tuple[float, ...], ...]
    determinant: float

    def independence(self, tol: float = 1e-3) -> int:
        """Largest k such that some k-subset has Gram determinant > tol.

        Determinants in (0, tol] certify nothing; if no subset clears tol
        and at least one lands in that gray zone, Inconclusive is raised
        rather than returning a possibly wrong rank.
        """
        m = np.array(self.entries, dtype=np.float64)
        size = len(self.entries)
        ambiguous = False
        for k in range(size, 0, -1):
            for idx in combinations(range(size), k):
                det = float(np.linalg.det(m[np.ix_(idx, idx)]))
                if det > tol:
                    return k
                if 0 < det <= tol:
                    ambiguous = True
        if ambiguous:
            raise Inconclusive("all candidate determinants fall in (0, tol]")
        return 0


def _is_torsion(E: Curve, P: Point) -> bool:
    """Rational torsion here has order dividing 4, so check 4P == O."""
    Q = _add_unchecked(E, P, P)
    Q = _add_unchecked(E, Q, Q)
    return Q.is_infinity


def _log_big(m: int) -> float:
    """log of a positive integer without overflowing float."""
    if m.bit_length() <= 900:
        return math.log(m)
    e = m.bit_length() - 60
    return math.log(m >> e) + e * math.log(2)


def _tail_constant(A: int) -> float:
    # |D_k| <= 2 log(|A|+3) + 2 + log 4 and 0 <= gamma_k <= log(4096 |A|^6)
    return 8.0 * math.log(abs(A) + 3) + 12.0


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


class _PadicTracker:
    """Tracks (u_k, w_k) mod p^M just closely enough to read off the
    cancellation min(v_p(F), v_p(G)) at every step."""

    def __init__(self, p: int, A: int, u0: int, w0: int, steps: int):
        self.p = p
        r = (12 if p == 2 else 0) + 6 * _valuation(abs(A), p)
        self.cap = r
        self.M = (steps + 2) * r + 8
        self.mod = p**self.M
        self.u = u0 % self.mod
        self.w = w0 % self.mod
        self.A = A % self.mod

    def _vp(self, residue: int) -> int:
        if residue == 0:
            return self.M
        return _valuation(residue, self.p)

    def step(self) -> int:
        mod = self.mod
        t = (self.u * self.u - self.A * self.w * self.w) % mod
        fu = t * t % mod
        gw = 4 * self.u * self.w % mod * ((self.u * self.u + self.A * self.w * self.w) % mod) % mod
        c = min(self._vp(fu), self._vp(gw))
        if c > self.cap:
            raise AssertionError(f"cancellation {c} above resultant cap at p={self.p}")
        pc = self.p**c
        self.M -= c
        self.mod = mod // pc if c else mod
        self.u = (fu // pc) % self.mod
        self.w = (gw // pc) % self.mod
        self.A %= self.mod
        return c


def _series_height(E: Curve, P: Point, bad: tuple[int, ...], precision: float) -> HeightValue:
    A = E.b
    x = P.x
    u0, w0 = x.numerator, x.denominator
    c_tail = _tail_constant(A)
    K = max(8, math.ceil(math.log(2 * c_tail / (3 * precision), 4)) + 1)
    if K > _MAX_SERIES_TERMS:
        raise PrecisionUnreachable(f"precision {precision} needs {K} terms")
    trackers = [_PadicTracker(p, A, u0, w0, K) for p in bad]
    digits = 30 + K * (2 * len(str(abs(A))) + 4)
    with mp.workdps(max(50, digits)):
        scale = mpf(max(abs(u0), abs(w0)))
        U = mpf(u0) / scale
        W = mpf(w0) / scale
        Amp = mpf(A)
        logs = {p: mp.log(p) for p in bad}
        total = mp.log(scale)
        quarter = mpf(1) / 4
        weight = quarter
        for _ in range(K):
            t = U * U - Amp * W * W
            fu = t * t
            gw = 4 * U * W * (U * U + Amp * W * W)
            s = max(abs(fu), abs(gw))
            gamma = mpf(0)
            for tr in trackers:
                c = tr.step()
                if c:
                    gamma += c * logs[tr.p]
            total += weight * (mp.log(s) - gamma)
            weight *= quarter
            U, W = fu / s, gw / s
        return HeightValue(float(total), precision)


def _doubling_height(E: Curve, P: Point, precision: float) -> HeightValue:
    """Exact-fraction fallback: h_k / 4^k with tail bound C * 4^{-k} / 3."""
    A = E.b
    x = P.x
    u, w = x.numerator, x.denominator
    c_tail = _tail_constant(A)
    k = 0
    while True:
        err = c_tail / (3 * 4**k)
        if err <= precision:
            return HeightValue(_log_big(max(abs(u), abs(w))) / 4**k, err)
        if u.bit_length() + w.bit_length() > _FALLBACK_MAX_BITS:
            value = _log_big(max(abs(u), abs(w))) / 4**k
            raise PrecisionUnreachable(
                f"doubling fallback stalled at error {err:.3g} > {precision:.3g}",
                value=value,
                error_bound=err,
            )
        t = u * u - A * w * w
        fu = t * t
        gw = 4 * u * w * (u * u + A * w * w)
        g = math.gcd(fu, gw)
        u, w = fu // g, gw // g
        k += 1


class Heights:
    """Canonical heights on E at one precision, each distinct point computed once.

    bad_primes are the primes dividing 2b; None selects the doubling-limit
    fallback, which may raise PrecisionUnreachable.
    """

    def __init__(self, E: Curve, precision: float, bad_primes: tuple[int, ...] | None):
        if precision <= 0:
            raise ValueError("precision must be positive")
        self.E = E
        self.precision = precision
        self.bad_primes = bad_primes
        self._memo: dict[tuple, HeightValue] = {}

    def height(self, P: Point) -> HeightValue:
        """Torsion points (including O) get an exact 0."""
        _require_on_curve(self.E, P)
        key = (P.x, P.y)
        if key not in self._memo:
            if P.is_infinity or _is_torsion(self.E, P):
                h = HeightValue(0.0, 0.0)
            elif self.bad_primes is None:
                h = _doubling_height(self.E, P, self.precision)
            else:
                h = _series_height(self.E, P, self.bad_primes, self.precision)
            self._memo[key] = h
        return self._memo[key]

    def pairing(self, P: Point, Q: Point) -> float:
        """<P, Q> = (h^(P+Q) - h^(P) - h^(Q)) / 2, within 3 * precision / 2."""
        hP, hQ = self.height(P).value, self.height(Q).value
        return (self.height(_add_unchecked(self.E, P, Q)).value - hP - hQ) / 2

    def gram(self, points) -> GramMatrix:
        """Height pairing Gram matrix; diagonal entries are canonical heights."""
        k = len(points)
        entries = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                entries[i][j] = entries[j][i] = self.pairing(points[i], points[j])
        det = float(np.linalg.det(np.array(entries, dtype=np.float64))) if k else 1.0
        return GramMatrix(tuple(tuple(row) for row in entries), det)


def _heights(E: Curve, precision: float, effort: FactorEffort) -> Heights:
    try:
        bad = factor(2 * abs(E.b), effort).distinct_primes()
    except EffortExceeded:
        bad = None
    return Heights(E, precision, bad)


def canonical_height(
    E: Curve,
    P: Point,
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> HeightValue:
    """Canonical height of P on E, accurate to within `precision`.

    The fast path needs the primes dividing 2b; if factoring exceeds the
    budget the doubling-limit fallback is used.
    """
    return _heights(E, precision, effort).height(P)


def height_pairing(
    E: Curve,
    P: Point,
    Q: Point,
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> float:
    return _heights(E, precision, effort).pairing(P, Q)


def gram_matrix(
    E: Curve,
    points: list[Point],
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> GramMatrix:
    return _heights(E, precision, effort).gram(points)


def gram_determinant(
    E: Curve,
    points: list[Point],
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> float:
    return gram_matrix(E, points, precision, effort).determinant


def independence_rank(
    E: Curve,
    points: list[Point],
    tol: float = 1e-3,
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> int:
    return gram_matrix(E, points, precision, effort).independence(tol)

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

Each part runs at the precision it needs (C the tail constant, h_0 the
first term log max(|u_0|, |w_0|)):

* Logs and the sum: d digits, with K * (2C + h_0 + 1) * 10^(1-d) below
  precision * 10^-17.  A term rounds s_k / m_k^4 (moving its log by at
  most 10^(1-d)), the logs, gamma_k and the partial sum, all below
  2C + h_0 in size, each by a relative 10^(1-d); K terms add at most that.
* The orbit: integers (U, W) on one shared power-of-two scale, from the
  exact (u_0, w_0).  A step records s_k = max(|F|, |G|) and
  m_k = max(|U|, |W|) (F, G are homogeneous of degree 4, so D_k is
  log(s_k / m_k^4)), then shifts F and G right together to keep 10D/3 + 2
  bits of s_k, D = 30 + (K-k-1)*L with a loss budget of L = 2*digits(b) + 4
  digits per step: its one rounding moves U, W by under 10^-D max(|U|, |W|)
  and only has to survive the steps left.
* The trackers: a cancellation c_k <= r is read exactly while the modulus
  exceeds p^r, and each step loses c_k digits, so after a step the residues
  are kept mod p^min(M - c_k, (left+2)r + 8) with `left` steps to run: the
  lower bound that the starting p^((K+2)r + 8) guarantees.  If p does not
  divide u_k but divides b w_k, then F_k = u_k^4 mod p, so c_k = 0, and
  u_{k+1} ~ F_k, w_{k+1} ~ G_k = 4 u_k w_k (...) keep both properties: every
  later c at p is 0 (only singular reduction contributes at a bad prime;
  Silverman, Math. Comp. 51, 1988).  This is read exactly from the residues
  mod p, so such a tracker retires, and one settled at (u_0, w_0) is never
  built.

The trackers need the primes of 2b, so the public functions factor 2b with
the caller's effort and let EffortExceeded propagate when that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from mpmath import mp, mpf

from .arith import DEFAULT_EFFORT, FactorEffort, factor
from .biquadrate import PropertyViolation
from .curve import Curve, Point, _add_unchecked, _require_on_curve

_MAX_SERIES_TERMS = 60


class PrecisionUnreachable(RuntimeError):
    """The convergence budget ran out before the requested precision."""


class Inconclusive(RuntimeError):
    """Every candidate determinant sits between 0 and the tolerance."""


@dataclass(frozen=True)
class HeightValue:
    value: float
    error_bound: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.value, self.error_bound)):
            raise ValueError(f"height {self.value} +/- {self.error_bound} is not finite and nonnegative")

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class GramMatrix:
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        if not all(len(row) == k and all(map(math.isfinite, row)) for row in self.entries):
            raise ValueError("Gram entries must form a square matrix of finite floats")

    @property
    def determinant(self) -> float:
        """1.0 for the empty matrix."""
        return float(np.linalg.det(np.array(self.entries, dtype=np.float64))) if self.entries else 1.0

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


def _tail_constant(A: int) -> float:
    # |D_k| <= 2 log(|A|+3) + 2 + log 4 and 0 <= gamma_k <= log(4096 |A|^6)
    return 8.0 * math.log(abs(A) + 3) + 12.0


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _settled(p: int, A: int, u: int, w: int) -> bool:
    """p does not divide u but divides A*w: every cancellation at p from here on is 0."""
    return u % p != 0 and A * w % p == 0


class _PadicTracker:
    """Tracks (u_k, w_k) mod p^M just closely enough to read off the
    cancellation min(v_p(F), v_p(G)) at every step."""

    def __init__(self, p: int, A: int, u0: int, w0: int, steps: int):
        self.p = p
        r = (12 if p == 2 else 0) + 6 * _valuation(abs(A), p)
        self.cap = r
        self.left = steps
        self.M = (steps + 2) * r + 8
        self.mod = p**self.M
        self.u = u0 % self.mod
        self.w = w0 % self.mod
        self.A = A % self.mod

    def step(self) -> int:
        mod = self.mod
        t = (self.u * self.u - self.A * self.w * self.w) % mod
        fu = t * t % mod
        gw = 4 * self.u * self.w % mod * ((self.u * self.u + self.A * self.w * self.w) % mod) % mod
        c = _valuation(math.gcd(fu, gw, mod), self.p)  # min(v_p(fu), v_p(gw), M)
        if c > self.cap:
            raise PropertyViolation(f"cancellation {c} above resultant cap at p={self.p}")
        pc = self.p**c
        self.left -= 1
        self.M = min(self.M - c, (self.left + 2) * self.cap + 8)
        self.mod = self.p**self.M
        self.u = (fu // pc) % self.mod
        self.w = (gw // pc) % self.mod
        self.A %= self.mod
        return c


def _cancellations(A: int, u0: int, w0: int, bad: tuple[int, ...], steps: int) -> list[dict[int, int]]:
    """{p: c_k} for the nonzero cancellations at step k < steps; a tracker
    leaves once it is settled, and one settled at (u0, w0) is never built."""
    live = [_PadicTracker(p, A, u0, w0, steps) for p in bad if not _settled(p, A, u0, w0)]
    out = []
    for _ in range(steps):
        out.append({tr.p: c for tr in live if (c := tr.step())})
        live = [tr for tr in live if not _settled(tr.p, tr.A, tr.u, tr.w)]
    return out


def _series_height(E: Curve, P: Point, bad: tuple[int, ...], precision: float) -> HeightValue:
    A = E.b
    u0, w0 = P.x.numerator, P.x.denominator
    scale = max(abs(u0), abs(w0))
    c_tail = _tail_constant(A)
    K = max(8, math.ceil(math.log(2 * c_tail / (3 * precision), 4)) + 1)
    if K > _MAX_SERIES_TERMS:
        raise PrecisionUnreachable(f"precision {precision} needs {K} terms")
    cancellations = _cancellations(A, u0, w0, bad, K)
    loss = 2 * len(str(abs(A))) + 4
    sizes = []
    U, W = u0, w0
    for left in range(K - 1, -1, -1):
        UU, AWW = U * U, A * W * W
        F = (UU - AWW) ** 2
        G = 4 * U * W * (UU + AWW)
        s = max(abs(F), abs(G))
        sizes.append((s, max(abs(U), abs(W))))
        shift = max(0, s.bit_length() - (30 + left * loss) * 10 // 3 - 2)
        U, W = F >> shift, G >> shift
    # digits for the logs and the sum, see the module docstring
    d = 18 + math.ceil(math.log10(K * (2 * c_tail + math.log(scale) + 1) / precision))
    with mp.workdps(d):
        logs = {p: mp.log(p) for p in set().union(*cancellations)}
        total = mp.log(scale)
        weight = mpf(1)
        for (s, m), cs in zip(sizes, cancellations):
            weight /= 4
            gamma = mpf(0)
            for p, c in cs.items():
                gamma += c * logs[p]
            total += weight * (mp.log(mpf(s) / mpf(m) ** 4) - gamma)
        return HeightValue(float(total), precision)


class Heights:
    """Canonical heights on E at one precision, each distinct point computed once.

    bad_primes are the primes dividing 2b.
    """

    def __init__(self, E: Curve, precision: float, bad_primes: tuple[int, ...]):
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
            else:
                h = _series_height(self.E, P, self.bad_primes, self.precision)
            self._memo[key] = h
        return self._memo[key]

    def pairing(self, P: Point, Q: Point) -> float:
        """<P, Q> = (h^(P+Q) - h^(P) - h^(Q)) / 2 within 3 * precision / 2; <P, P> = h^(P)."""
        hP, hQ = self.height(P).value, self.height(Q).value
        if (P.x, P.y) == (Q.x, Q.y):
            return hP
        return (self.height(_add_unchecked(self.E, P, Q)).value - hP - hQ) / 2

    def gram(self, points) -> GramMatrix:
        """Height pairing Gram matrix; diagonal entries are canonical heights."""
        k = len(points)
        entries = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                entries[i][j] = entries[j][i] = self.pairing(points[i], points[j])
        return GramMatrix(tuple(tuple(row) for row in entries))


def _heights(E: Curve, precision: float, effort: FactorEffort) -> Heights:
    return Heights(E, precision, factor(2 * abs(E.b), effort).distinct_primes())


def canonical_height(
    E: Curve,
    P: Point,
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> HeightValue:
    """Canonical height of P on E, accurate to within `precision`.

    The series needs the primes dividing 2b: raises EffortExceeded when
    factoring 2b exceeds `effort`, and PrecisionUnreachable when `precision`
    needs more than the series' term budget.
    """
    return _heights(E, precision, effort).height(P)


def gram_matrix(
    E: Curve,
    points: list[Point],
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> GramMatrix:
    return _heights(E, precision, effort).gram(points)


def independence_rank(
    E: Curve,
    points: list[Point],
    tol: float = 1e-3,
    precision: float = 1e-8,
    effort: FactorEffort = DEFAULT_EFFORT,
) -> int:
    return gram_matrix(E, points, precision, effort).independence(tol)

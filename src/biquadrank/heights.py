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

* The sum: d digits, with K * (2C + h_0 + 1) * 10^(1-d) below
  precision * 10^-17.  With v*_K = (F, G)^K (u_0, w_0) the exact orbit,
  no gcd removed, and m(u, w) = max(|u|, |w|), the recurrence gives

      h^(P) = 4^-K (log m(v*_K) - sum_p C_p log p) + tail,

  C_p = sum_k c_{k,p} 4^(K-1-k) exact integers.  The orbit below ends at
  (U_K, W_K), close to 2^-S v*_K with S = sum_k sh_k 4^(K-1-k) and sh_k
  the right shift of step k, and the series is evaluated as
  4^-K (log m_K + S log 2 - sum_p C_p log p), m_K = m(U_K, W_K).
  The logs of m_K, 2 and each p, the products and the sums are 6 + 4w
  roundings (w primes with a cancellation), each a relative 10^(1-d) of a
  value at most 4^K (2C + h_0); after the exact scaling by 4^-K they add
  at most (1 + w/2) * precision * 10^-17.
* The orbit: integers (U, W) on one shared power-of-two scale from the
  exact (u_0, w_0), with each rounding measured in the weighted norm
  N(u, w) = max(|u|, a |w|), a = sqrt|b| >= 1.  Put u = N alpha,
  w = N beta / a with max(|alpha|, |beta|) = 1 (x = a t turns the doubling
  into that of y^2 = t^3 +- t), so that for sigma = sign b

      N(F, G) = N^4 n(alpha, beta),
      n = max((alpha^2 - sigma beta^2)^2, 4 |alpha beta (alpha^2 + sigma beta^2)|),

  where n >= (alpha^2 + beta^2)^2 >= 1 for sigma = -1, and n >= 0.83 for
  sigma = +1 (split the smaller of |alpha|, |beta| at 0.2).  On the box
  max(|alpha|, |beta|) <= 1 + e the absolute partial derivatives of the
  two components sum to at most 16 (1+e)^3 and 32 (1+e)^3, so one step
  turns a perturbation of relative N-size e <= 0.01 into one under
  32 (1+e)^3 e / 0.83 < 40 e, whatever b is.  Step k shifts F and G right
  together by bitlen(max(|F|, a+ |G|)) - bitlen(a+) - bits(D_k), with
  a+ = ceil(a), bits(D) = floor(10D/3) + 2 and

      D_k = 30 + digits(a+) + 2 (K-k-1):

  the floors move U and W by under 1 each, a relative N-size under
  10^-D_k.  Carried exactly through the K-k-1 steps left, that is under
  40^(K-k-1) 10^-D_k <= 0.4^(K-k-1) 10^-30 / a+ of N at step K, and at
  most a times as much of m there (|du| <= N(du, dw), |dw| <= N(du, dw)/a
  and N <= a m): this boundary term, log m_K in place of log N_K, is why
  D_k holds digits(a+) once.  Over all steps log m_K + S log 2 is within
  2 * 10^-30 / 0.6 < 10^-29 of log m(v*_K), so the orbit adds under
  4^-K 10^-29 to the error.
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

The trackers need the primes of 2b.  The public functions read them from
the curve (Curve.bad_primes), which factors 2b once per Curve object and
lets an EffortExceeded propagate, caching nothing.  Every Heights fills the
memos its curve keeps for its precision (Curve.height_memos): the height of
each distinct point and each pairing, so heights live as long as the curve
does, a new Curve object starts empty, and no height depends on which call
came first.

GramMatrix.independence counts the points whose Gram determinant clears the
margin that the error bound of its entries allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import valuation
from .biquadrate import PropertyViolation
from .curve import Curve, Point, _add_unchecked, _require_on_curve

_MAX_SERIES_TERMS = 60
_ORBIT_STEP_DIGITS = 2  # the 2 in D_k, above log10(40): module docstring


class PrecisionUnreachable(RuntimeError):
    """The convergence budget ran out before the requested precision."""


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
        if any(row[i] < 0 for i, row in enumerate(self.entries)):
            raise ValueError("Gram diagonal entries are heights and must be nonnegative")

    @property
    def determinant(self) -> float:
        """1.0 for the empty matrix."""
        return float(_exact_det(self.entries)) if self.entries else 1.0

    def independence(self, tol: float) -> int:
        """Largest k such that some k-subset of the points is certified
        independent, or 0, when every entry is within tol of the true pairing:
        its determinant, exact over the floats, exceeds _det_margin."""
        size = len(self.entries)
        for k in range(size, 0, -1):
            for idx in combinations(range(size), k):
                sub = [[self.entries[i][j] for j in idx] for i in idx]
                if _exact_det(sub) > _det_margin(sub, tol):
                    return k
        return 0


def _exact_det(m: list[list[float]]) -> Fraction:
    """det m, exact over the floats of m: Bareiss's fraction-free elimination
    on the entries scaled to integers by one power of two."""
    ratios = [x.as_integer_ratio() for row in m for x in row]
    scale, k = max(d for _, d in ratios), len(m)
    a = [[p * (scale // d) for p, d in ratios[i * k : (i + 1) * k]] for i in range(k)]
    sign = prev = 1
    for i in range(k):
        pivot = next((r for r in range(i, k) if a[r][i]), None)
        if pivot is None:
            return Fraction(0)
        a[i], a[pivot], sign = a[pivot], a[i], sign if pivot == i else -sign
        for r in range(i + 1, k):
            a[r] = [(x * a[i][i] - a[r][i] * y) // prev for x, y in zip(a[r], a[i])]
        prev = a[i][i]
    return Fraction(sign * prev, scale**k)


def _det_margin(m: list[list[float]], eps: float) -> float:
    """A bound on |det(m + E) - det(m)| for every E with |E_ij| <= eps:
    (a + sqrt(k) eps)^k - a^k, a the largest column norm of m.  Expanding by
    columns, Hadamard's inequality bounds each of the C(k, i) terms with i
    columns of E by a^(k-i) (sqrt(k) eps)^i (Ipsen and Rehman, SIAM J. Matrix
    Anal. Appl. 30 (2008)).  Summed term by term, all positive, the roundings
    stay far inside the factor 1 + 1e-12."""
    k = len(m)
    a = math.sqrt(max(sum(x * x for x in col) for col in zip(*m)))
    e = math.sqrt(k) * eps
    try:
        return sum(math.comb(k, i) * a ** (k - i) * e**i for i in range(1, k + 1)) * (1 + 1e-12)
    except OverflowError:  # a margin beyond the floats: nothing clears it
        return math.inf


def _is_torsion(E: Curve, P: Point) -> bool:
    """Rational torsion here has order dividing 4.  An affine P has 2P = O
    when y = 0; otherwise x(2P) = (x^2 - b)^2 / 4y^2 is a root of x^3 + bx
    exactly when it is 0, i.e. x^2 = b, or +-m with b = -m^2, which needs
    (x^2 -+ 2mx - m^2)^2 = 0 and so an irrational x."""
    return P.y == 0 or P.x * P.x == E.b


def _tail_constant(A: int) -> float:
    # |D_k| <= 2 log(|A|+3) + 2 + log 4 and 0 <= gamma_k <= log(4096 |A|^6)
    return 8.0 * math.log(abs(A) + 3) + 12.0


def _settled(p: int, A: int, u: int, w: int) -> bool:
    """p does not divide u but divides A*w: every cancellation at p from here on is 0."""
    return u % p != 0 and A * w % p == 0


class _PadicTracker:
    """Tracks (u_k, w_k) mod p^M just closely enough to read off the
    cancellation min(v_p(F), v_p(G)) at every step."""

    def __init__(self, p: int, A: int, u0: int, w0: int, steps: int):
        self.p = p
        r = (12 if p == 2 else 0) + 6 * valuation(abs(A), p)
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
        c = valuation(math.gcd(fu, gw, mod), self.p)  # min(v_p(fu), v_p(gw), M)
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


def _double(A: int, root: int, U: int, W: int, keep: int) -> tuple[int, int, int]:
    """(F, G) of (U, W) and the right shift after which max(|F|, root |G|)
    has bitlen(root) + keep bits, applied to both."""
    UU, AWW = U * U, A * W * W
    F = (UU - AWW) ** 2
    G = 4 * U * W * (UU + AWW)
    shift = max(0, max(F, root * abs(G)).bit_length() - root.bit_length() - keep)
    return F >> shift, G >> shift, shift


def _series_height(E: Curve, P: Point, bad: tuple[int, ...], precision: float) -> HeightValue:
    A = E.b
    u0, w0 = P.x.numerator, P.x.denominator
    c_tail = _tail_constant(A)
    # below a precision of about 1e-307 the quotient overflows to inf: clamp before ceil
    K = max(8, math.ceil(min(math.log(2 * c_tail / (3 * precision), 4), _MAX_SERIES_TERMS)) + 1)
    if K > _MAX_SERIES_TERMS:
        raise PrecisionUnreachable(f"precision {precision} needs more than {_MAX_SERIES_TERMS} terms")
    from mpmath import mp  # loaded by the first height, not by the package import

    root = math.isqrt(abs(A) - 1) + 1  # a+ of the module docstring
    base = 30 + len(str(root))
    U, W, shifts, gammas = u0, w0, 0, {}  # shifts and gammas: S and C_p of the module docstring
    for left, cs in zip(range(K - 1, -1, -1), _cancellations(A, u0, w0, bad, K)):
        U, W, shift = _double(A, root, U, W, (base + left * _ORBIT_STEP_DIGITS) * 10 // 3 + 2)
        shifts = 4 * shifts + shift
        for p, c in cs.items():
            gammas[p] = gammas.get(p, 0) + (c << 2 * left)
    # digits for the logs and the sum, see the module docstring
    d = 18 + math.ceil(math.log10(K * (2 * c_tail + math.log(max(abs(u0), abs(w0))) + 1) / precision))
    with mp.workdps(d):
        total = mp.log(max(abs(U), abs(W))) + mp.ln2 * shifts - sum(mp.log(p) * c for p, c in gammas.items())
        return HeightValue(float(mp.ldexp(total, -2 * K)), precision)


class Heights:
    """Canonical heights on E at one precision, each distinct point and pairing computed once.

    bad_primes are the primes dividing 2b.  The height and pairing memos are
    those E keeps for the precision, shared by every Heights on E there.
    """

    def __init__(self, E: Curve, precision: float, bad_primes: tuple[int, ...]):
        if not 0 < precision < math.inf:  # NaN included
            raise ValueError("precision must be positive and finite")
        self.E = E
        self.precision = precision
        self.bad_primes = bad_primes
        self._memo, self._pairs = E.height_memos.setdefault(precision, ({}, {}))

    def height(self, P: Point) -> HeightValue:
        """Torsion points (including O) get an exact 0."""
        key = (P.x, P.y)
        h = self._memo.get(key)
        if h is None:  # only points on E enter the memo
            _require_on_curve(self.E, P)
            if P.is_infinity or _is_torsion(self.E, P):
                h = HeightValue(0.0, 0.0)
            else:
                h = _series_height(self.E, P, self.bad_primes, self.precision)
            self._memo[key] = h
        return h

    def pairing(self, P: Point, Q: Point) -> float:
        """<P, Q> = (h^(P+Q) - h^(P) - h^(Q)) / 2 within 3 * precision / 2; <P, P> = h^(P)."""
        key = (P.x, P.y), (Q.x, Q.y)
        if key[0] == key[1]:
            return self.height(P).value
        s = self._pairs.get(key)
        if s is None:  # only pairings of points on E enter the memo
            hP, hQ = self.height(P).value, self.height(Q).value
            s = self._pairs[key] = (self.height(_add_unchecked(self.E, P, Q)).value - hP - hQ) / 2
        return s

    def gram(self, points) -> GramMatrix:
        """Height pairing Gram matrix; diagonal entries are canonical heights."""
        k = len(points)
        entries = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                entries[i][j] = entries[j][i] = self.pairing(points[i], points[j])
        return GramMatrix(tuple(tuple(row) for row in entries))


def canonical_height(E: Curve, P: Point, precision: float = 1e-8) -> HeightValue:
    """Canonical height of P on E, accurate to within `precision`.

    The series needs the primes dividing 2b: raises EffortExceeded when
    2b does not factor within the default budget, and PrecisionUnreachable
    when `precision` needs more than the series' term budget.
    """
    return Heights(E, precision, E.bad_primes).height(P)


def gram_matrix(E: Curve, points: list[Point], precision: float = 1e-8) -> GramMatrix:
    return Heights(E, precision, E.bad_primes).gram(points)


def independence_rank(E: Curve, points: list[Point], tol: float = 1e-3, precision: float = 1e-8) -> int:
    """GramMatrix.independence(tol) at precision: certified for tol >= 1.5 * precision."""
    return gram_matrix(E, points, precision).independence(tol)

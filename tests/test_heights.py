"""Canonical height tests.

The frozen determinant values were computed at high precision and
cross-checked against the published four-decimal figures.
"""

import dataclasses
import decimal
import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp, mpf

from biquadrank import curve, heights
from biquadrank.arith import EffortExceeded, factor
from biquadrank.biquadrate import PropertyViolation, euler_quadruple
from biquadrank.curve import (
    INFINITY, Curve, OffCurve, Point, add, curve_from_n, dual_curve, is_on_curve, negate, scalar_mul,
)
from biquadrank.descent import phi_image
from biquadrank.heights import (
    GramMatrix,
    HeightValue,
    Heights,
    PrecisionUnreachable,
    canonical_height,
    gram_matrix,
    independence_rank,
)
from biquadrank.curve import constructed_points

# h^ of the four constructed points, as float.hex(), recorded from the
# series with its orbit at 30 + K * (2 * digits(b) + 4) digits; the orbit at
# D_0 = 30 + digits(a+) + 2 (K - 1) digits gives the same floats
PINNED_HEIGHTS = {
    ((2, 1), 1e-4): ("0x1.4f5235fb768aep+3", "0x1.3b260a716508ap+3", "0x1.4cc115fb28ab4p+3", "0x1.418f58fcafe05p+3"),
    ((2, 1), 1e-8): ("0x1.4f52360523e14p+3", "0x1.3b260a7a4291ap+3", "0x1.4cc115fb519e1p+3", "0x1.418f58fce2d66p+3"),
    ((2, 1), 1e-20): ("0x1.4f5236052400ap+3", "0x1.3b260a7a42a48p+3", "0x1.4cc115fb52441p+3", "0x1.418f58fce2f50p+3"),
    # the sum at d = 53 digits, past 50, and K = 55 terms, near the cap of 60
    ((2, 1), 1e-30): ("0x1.4f5236052400ap+3", "0x1.3b260a7a42a48p+3", "0x1.4cc115fb52441p+3", "0x1.418f58fce2f50p+3"),
    ((5, 3), 1e-4): ("0x1.5d4d55a2ea87dp+4", "0x1.5fa8d3148329bp+4", "0x1.6031aa47855d5p+4", "0x1.5d236d7e79491p+4"),
    ((5, 3), 1e-8): ("0x1.5d4d55a2ee805p+4", "0x1.5fa8d314fd1b3p+4", "0x1.6031aa47c25e2p+4", "0x1.5d236d83d5d30p+4"),
    ((5, 3), 1e-20): ("0x1.5d4d55a2ee8bdp+4", "0x1.5fa8d314fd2e3p+4", "0x1.6031aa47c2618p+4", "0x1.5d236d83d5d6fp+4"),
    ((1, 11), 1e-4): ("0x1.fdc17dcf4aab6p+4", "0x1.04604fce2bfc8p+5", "0x1.019e69f039c0dp+5", "0x1.019a91f2cea52p+5"),
    ((1, 11), 1e-8): ("0x1.fdc17dcf59e57p+4", "0x1.04604fce2fa0dp+5", "0x1.019e69f09eb08p+5", "0x1.019a91f3c8e5ap+5"),
    ((1, 11), 1e-20): ("0x1.fdc17dcf59fa3p+4", "0x1.04604fce2fa10p+5", "0x1.019e69f09eb9dp+5", "0x1.019a91f3c8eb2p+5"),
}
# points whose orbits cancel 16 digits at p = 2 and 8 at p = 3, where the
# family curves above cancel at most 2: these pin the p-adic cancellations
PINNED_CANCELLING = {
    (1280, 80, 640): ("0x1.45640508655b7p-1", "0x1.456405086aa1ap-1"),
    (2997, -9, 162): ("0x1.87a587f43a652p+0", "0x1.87a587f43f71ap+0"),
}

E17 = curve_from_n(17)
P17 = Point.affine(-4, 2)
Q17 = Point.affine(-1, 4)

QUAD21 = euler_quadruple(2, 1)
E21 = curve_from_n(QUAD21.n)
PTS21 = constructed_points(QUAD21)


def heights_on(E, precision):
    """Heights on a new curve object equal to E, so every height it gives
    runs its series, whatever E's memos already hold."""
    return Heights(Curve(E.b), precision, factor(2 * abs(E.b)).distinct_primes())


def exhausted(n, *args):
    raise EffortExceeded(n, (), n)


def series_budget(E: Curve, precision: float) -> tuple[int, int]:
    """The series' term count K and the older orbit loss per step,
    L = 2 * digits(b) + 4 digits."""
    c_tail = heights._tail_constant(E.b)
    K = max(8, math.ceil(math.log(2 * c_tail / (3 * precision), 4)) + 1)
    return K, 2 * len(str(abs(E.b))) + 4


def orbit_start_digits(E: Curve, precision: float) -> tuple[int, int]:
    """a+ = ceil(sqrt|b|) and D_0 = 30 + digits(a+) + 2 (K - 1), the digits the
    integer orbit keeps at its first step (heights module docstring)."""
    root = math.isqrt(abs(E.b) - 1) + 1
    K, _ = series_budget(E, precision)
    return root, 30 + len(str(root)) + 2 * (K - 1)


def mpf_series_height(E: Curve, P: Point, precision: float) -> float:
    """The series with its real orbit in mpf: normalised to max(|U|, |W|) = 1
    at 30 + K*L digits, dividing by s_k after each step and dropping L
    digits, then one log of s_k per term.

    An independent oracle: it keeps the older loss budget of L digits per
    step in the max norm, not the weighted-norm budget of `heights`, and
    sums a log per term instead of telescoping."""
    A = E.b
    u0, w0 = P.x.numerator, P.x.denominator
    scale = max(abs(u0), abs(w0))
    K, loss = series_budget(E, precision)
    cancellations = heights._cancellations(A, u0, w0, factor(2 * abs(A)).distinct_primes(), K)
    sizes = []
    with mp.workdps(30 + K * loss):
        U, W = mpf(u0) / scale, mpf(w0) / scale
        for left in range(K - 1, -1, -1):
            t = U * U - A * W * W
            fu = t * t
            gw = 4 * U * W * (U * U + A * W * W)
            s = max(abs(fu), abs(gw))
            sizes.append(s)
            mp.dps = 30 + left * loss
            U, W = fu / s, gw / s
    c_tail = heights._tail_constant(A)
    with mp.workdps(18 + math.ceil(math.log10(K * (2 * c_tail + math.log(scale) + 1) / precision))):
        total = mp.log(scale)
        for k, (s, cs) in enumerate(zip(sizes, cancellations)):
            gamma = sum(c * mp.log(p) for p, c in cs.items())
            total += (mp.log(s) - gamma) / mpf(4) ** (k + 1)
        return float(total)


# non-torsion points on family curves (b = -n) and on curves with b > 0
ORACLE_POINTS = [(E17, P17), (E17, Q17), (Curve(3), Point.affine(1, 2)), (Curve(14), Point.affine(2, 6)),
                 (Curve(66), Point.affine(3, 15))]
ORACLE_POINTS += [(curve_from_n(euler_quadruple(*ab).n), P) for ab in ((2, 1), (5, 3), (1, 11))
                  for P in constructed_points(euler_quadruple(*ab))[:2]]
# a 50-digit family point, and the image (y^2/x^2, y (x^2 - b)/x^2) of a
# (1, 11) point on the 2-isogenous curve b' = -4b = 4n > 0, a 29-digit b' > 0
QUAD4350 = euler_quadruple(43, 50)
WIDE_POINTS = [(curve_from_n(QUAD4350.n), constructed_points(QUAD4350)[0])]
E111 = curve_from_n(euler_quadruple(1, 11).n)
P111 = constructed_points(euler_quadruple(1, 11))[0]
WIDE_POINTS += [(dual_curve(E111), Point(P111.y**2 / P111.x**2, P111.y * (P111.x**2 - E111.b) / P111.x**2))]
ORACLE_POINTS += WIDE_POINTS
# and the pinned cancelling points, whose cancellations at 2 and at odd
# primes check the series' weighted per-prime sums against a sum per term
CANCELLING_POINTS = [(curve_from_n(n), Point.affine(x, y)) for n, x, y in PINNED_CANCELLING]
ORACLE_POINTS += CANCELLING_POINTS


class TestCanonicalHeight:
    def test_frozen_values(self):
        h = canonical_height(E17, P17, precision=1e-10)
        assert abs(h.value - 1.7550260161728168) < 1e-8
        h = canonical_height(E17, Q17, precision=1e-10)
        assert abs(h.value - 1.1721830986844968) < 1e-8

    def test_error_bound_reported(self):
        h = canonical_height(E17, P17, precision=1e-6)
        assert h.error_bound == 1e-6
        assert float(h) == h.value

    def test_torsion_is_exactly_zero(self):
        assert canonical_height(E17, INFINITY) == HeightValue(0.0, 0.0)
        assert canonical_height(E17, Point.affine(0, 0)) == HeightValue(0.0, 0.0)

    @pytest.mark.parametrize("b, x, y, torsion", [
        (4, 2, 4, True), (4, 2, -4, True),  # order 4
        (-17, 0, 0, True), (-9, 3, 0, True), (-9, -3, 0, True),  # order 2
        (-17, -4, 2, False), (E21.b, PTS21[0].x, PTS21[0].y, False),
    ], ids=str)
    def test_torsion_from_one_doubling(self, b, x, y, torsion):
        assert heights._is_torsion(Curve(b), Point.affine(x, y)) is torsion

    @settings(max_examples=60, deadline=None)
    @given(ab=st.sampled_from([(2, 1), (3, 1), (5, 3), (1, 11)]), i=st.integers(0, 3),
           k=st.integers(0, 3), shift=st.booleans())
    def test_torsion_test_matches_four_p_on_family_curves(self, ab, i, k, shift):
        # k * P (+ (0, 0)) for a constructed point P: torsion only at k = 0
        quad = euler_quadruple(*ab)
        E = curve_from_n(quad.n)
        P = scalar_mul(E, k, constructed_points(quad)[i])
        if shift:
            P = add(E, P, Point.affine(0, 0))
        assume(not P.is_infinity)
        assert heights._is_torsion(E, P) is scalar_mul(E, 4, P).is_infinity

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 50), sign=st.sampled_from([-1, 1]), k=st.integers(1, 3))
    def test_torsion_test_matches_four_p_on_order_four_points(self, d, sign, k):
        # (2d^2, +-4d^3) has order 4 on b = 4d^4; its multiples are torsion too
        E = Curve(4 * d**4)
        P = scalar_mul(E, k, Point.affine(2 * d**2, sign * 4 * d**3))
        assert scalar_mul(E, 4, P).is_infinity
        assert heights._is_torsion(E, P)

    def test_quadratic_under_doubling(self):
        hP = canonical_height(E17, P17, precision=1e-10).value
        h2P = canonical_height(E17, scalar_mul(E17, 2, P17), precision=1e-10).value
        h3P = canonical_height(E17, scalar_mul(E17, 3, P17), precision=1e-10).value
        assert abs(h2P - 4 * hP) < 1e-8
        assert abs(h3P - 9 * hP) < 1e-8

    def test_negation_invariant(self):
        hP = canonical_height(E17, P17, precision=1e-10).value
        hM = canonical_height(E17, negate(P17), precision=1e-10).value
        assert abs(hP - hM) < 1e-9

    def test_parallelogram_law(self):
        eps = 1e-10
        hP = canonical_height(E17, P17, eps).value
        hQ = canonical_height(E17, Q17, eps).value
        hSum = canonical_height(E17, add(E17, P17, Q17), eps).value
        hDiff = canonical_height(E17, add(E17, P17, negate(Q17)), eps).value
        assert abs(hSum + hDiff - 2 * hP - 2 * hQ) < 1e-5

    def test_parallelogram_law_large_curve(self):
        eps = 1e-9
        P, Q = PTS21[0], PTS21[2]
        hP = canonical_height(E21, P, eps).value
        hQ = canonical_height(E21, Q, eps).value
        hSum = canonical_height(E21, add(E21, P, Q), eps).value
        hDiff = canonical_height(E21, add(E21, P, negate(Q)), eps).value
        assert abs(hSum + hDiff - 2 * hP - 2 * hQ) < 1e-5

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurve):
            canonical_height(E17, Point.affine(1, 1))

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            canonical_height(E17, P17, precision=0.0)
        for precision in (math.nan, math.inf):
            with pytest.raises(ValueError, match="precision must be positive and finite"):
                canonical_height(E17, P17, precision=precision)

    def test_unreachable_precision_raises(self):
        with pytest.raises(PrecisionUnreachable):
            canonical_height(E17, P17, precision=1e-40)

    @pytest.mark.parametrize("precision", [1e-308, 5e-324])
    def test_precision_below_the_floats_is_unreachable(self, precision):
        # the tail's term count overflows to inf: no finite count suffices
        with pytest.raises(PrecisionUnreachable, match="needs more than 60 terms"):
            canonical_height(E17, P17, precision=precision)

    def test_unfactorable_2b_propagates(self, monkeypatch, series_calls):
        # without the primes of 2b the height cannot be computed: the
        # failure propagates before any series, and the next call factors 2b
        E = curve_from_n(QUAD21.n)
        with monkeypatch.context() as patched:
            patched.setattr(curve, "factor", exhausted)
            with pytest.raises(EffortExceeded):
                canonical_height(E, PTS21[0])
        assert series_calls == []
        assert canonical_height(E, PTS21[0]).value.hex() == PINNED_HEIGHTS[(2, 1), 1e-8][0]
        assert E.bad_primes == factor(2 * abs(E.b)).distinct_primes()


class TestWorkingPrecision:
    @pytest.mark.parametrize("ab, precision", list(PINNED_HEIGHTS), ids=str)
    def test_heights_match_full_precision_series(self, ab, precision):
        quad = euler_quadruple(*ab)
        E = curve_from_n(quad.n)
        got = tuple(canonical_height(E, P, precision).value.hex() for P in constructed_points(quad))
        assert got == PINNED_HEIGHTS[ab, precision]

    @pytest.mark.parametrize("n, x, y", list(PINNED_CANCELLING), ids=str)
    def test_cancelling_orbits_match_full_precision_series(self, n, x, y):
        E = curve_from_n(n)
        got = tuple(canonical_height(E, Point.affine(x, y), p).value.hex() for p in (1e-8, 1e-20))
        assert got == PINNED_CANCELLING[n, x, y]

    def test_logs_run_at_term_precision(self, monkeypatch):
        # the orbit of the 28-digit (1, 11) curve keeps D_0 = 80 digits;
        # each log only needs the requested 8 digits and the sum's guard
        # digits, and is the log of 2 or of a prime of 2b: the last orbit
        # value's log is taken in a float, once its power of two is split off
        quad = euler_quadruple(1, 11)
        E = curve_from_n(quad.n)
        primes = factor(2 * abs(E.b)).distinct_primes()
        seen = []
        ln = heights._ln
        ln.cache_clear()

        def recording(p, digits):
            seen.append((p, digits))
            return ln(p, digits)

        monkeypatch.setattr(heights, "_ln", recording)
        canonical_height(E, constructed_points(quad)[0], precision=1e-8)
        assert seen and max(digits for _, digits in seen) <= 40
        assert {p for p, _ in seen} <= {2, *primes}

    def test_orbit_runs_on_integers(self, monkeypatch):
        # the real orbit needs no Decimal: no decimal context is made above
        # the sum's d digits, so a 1,000-digit Decimal orbit fails here; and
        # the series telescopes to one d-digit log of 2 plus one per prime of
        # 2b, so a log per term (K = 19 of them) fails too
        quad = euler_quadruple(1, 11)
        E = curve_from_n(quad.n)
        primes = factor(2 * abs(E.b)).distinct_primes()
        digits, logs = [], 0
        ln = heights._ln
        ln.cache_clear()

        def recording(prec):
            digits.append(prec)
            return decimal.Context(prec=prec)

        def counting(p, d):
            nonlocal logs
            logs += 1
            return ln(p, d)

        monkeypatch.setattr(heights, "Context", recording)
        monkeypatch.setattr(heights, "_ln", counting)
        canonical_height(E, constructed_points(quad)[0], precision=1e-8)
        assert digits and max(digits) <= 40
        assert 0 < logs <= 1 + len(primes)

    @settings(max_examples=40, deadline=None)
    @given(point=st.sampled_from(ORACLE_POINTS), k=st.integers(min_value=1, max_value=20),
           precision=st.sampled_from([1e-4, 1e-8, 1e-20]))
    @example(point=CANCELLING_POINTS[0], k=1, precision=1e-20)
    @example(point=CANCELLING_POINTS[1], k=1, precision=1e-20)
    @example(point=WIDE_POINTS[0], k=1, precision=1e-20)
    @example(point=WIDE_POINTS[1], k=1, precision=1e-20)
    def test_integer_orbit_matches_the_mpf_orbit(self, point, k, precision):
        E, P = point
        Q = scalar_mul(E, k, P)
        got = canonical_height(E, Q, precision).value
        assert abs(got - mpf_series_height(E, Q, precision)) <= precision

    def test_start_above_the_orbit_budget(self):
        # x(13 P) has more digits than any orbit integer after a shift at
        # 1e-4 (D_0 + digits(a+) + 2), so the first shift truncates the exact
        # start
        Q = scalar_mul(E17, 13, P17)
        root, d0 = orbit_start_digits(E17, 1e-4)
        assert len(str(Q.x.numerator)) > d0 + len(str(root)) + 2
        got = canonical_height(E17, Q, 1e-4).value
        assert abs(got - mpf_series_height(E17, Q, 1e-4)) <= 1e-4
        assert abs(got - 169 * canonical_height(E17, P17, 1e-10).value) <= 1e-4

    def test_orbit_width_is_set_by_the_weighted_norm(self, monkeypatch):
        # after a shift max(|U|, a+ |W|) has bitlen(a+) + bits(D_0) bits at
        # most, so no orbit integer of the (1, 11) series at 1e-8 is wider than
        # D_0 + digits(a+) + 2 = 96 digits; the older budget of
        # 30 + K (2 digits(b) + 4) digits started near 1,150
        quad = euler_quadruple(1, 11)
        E = curve_from_n(quad.n)  # a new curve object: every height runs its series
        root, d0 = orbit_start_digits(E, 1e-8)
        assert d0 == 80
        pairs = []
        double = heights._double

        def recording(A, a_plus, U, W, keep):
            out = double(A, a_plus, U, W, keep)
            pairs.append(out[:2])
            return out

        monkeypatch.setattr(heights, "_double", recording)
        for P in constructed_points(quad):
            canonical_height(E, P, 1e-8)
        assert len(pairs) == 4 * series_budget(E, 1e-8)[0]
        assert max(max(abs(U), root * abs(W)).bit_length() for U, W in pairs) <= root.bit_length() + d0 * 10 // 3 + 2
        assert max(len(str(abs(v))) for pair in pairs for v in pair) <= d0 + len(str(root)) + 2


def doubling_on_the_unit_box(sigma: int, alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """(F, G) at u = N alpha, w = N beta / a, divided by N^4 and with G
    times a: the two components whose max is n(alpha, beta) in the heights
    module docstring, with sigma = sign b."""
    return (alpha**2 - sigma * beta**2) ** 2, 4 * alpha * beta * (alpha**2 + sigma * beta**2)


class TestOrbitConstants:
    """The two constants of the orbit's error argument (heights module
    docstring), exactly in rationals on the boundary max(|alpha|, |beta|) = 1."""

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.sampled_from([-1, 1]), on_alpha=st.booleans(), edge=st.sampled_from([-1, 1]),
           t=st.integers(-10**6, 10**6), d=st.tuples(st.integers(-10**7, 10**7), st.integers(-10**7, 10**7)))
    @example(sigma=1, on_alpha=True, edge=1, t=200_000, d=(0, 10**7))
    @example(sigma=1, on_alpha=False, edge=-1, t=215_000, d=(-10**7, 10**7))
    @example(sigma=-1, on_alpha=True, edge=1, t=10**6, d=(10**7, -10**7))
    def test_norm_floor_and_growth(self, sigma, on_alpha, edge, t, d):
        # n >= 1 for b < 0 and n >= 0.83 for b > 0; a perturbation of
        # relative N-size e <= 0.01 (e = max(|d|) / 10^9) leaves the step
        # with relative N-size at most 40 e
        assume(d != (0, 0))
        free = Fraction(t, 10**6)
        alpha, beta = (Fraction(edge), free) if on_alpha else (free, Fraction(edge))
        f, g = doubling_on_the_unit_box(sigma, alpha, beta)
        n = max(abs(f), abs(g))
        assert n >= (1 if sigma < 0 else Fraction(83, 100))
        e = Fraction(max(map(abs, d)), 10**9)
        f2, g2 = doubling_on_the_unit_box(sigma, alpha + Fraction(d[0], 10**9), beta + Fraction(d[1], 10**9))
        assert max(abs(f2 - f), abs(g2 - g)) <= 40 * e * n


def exact_gcds(b: int, u: int, w: int, steps: int) -> list[int]:
    """gcd(F, G) at each step of the exact integer orbit of x = u/w."""
    out = []
    for _ in range(steps):
        F = (u * u - b * w * w) ** 2
        G = 4 * u * w * (u * u + b * w * w)
        g = math.gcd(F, G)
        out.append(g)
        u, w = F // g, G // g
    return out


def valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def point_for_case(case: str, p: int, v: int, e: int, z: int) -> tuple[int, Point]:
    """b and the integer point (x, x z) on y^2 = x^3 + b x, b = x (z^2 - x),
    shaped so that `case` holds at p."""
    if case == "p divides u0":  # v_p(x) = v, p does not divide z^2 - x
        z = z * p + 1
        x = p**v * e
    elif case == "p prime to u0":  # x = z^2 mod p, v_p(z^2 - x) = v
        z = z * p + 1
        x = z * z - p**v * e
    elif case == "b odd":  # x odd, z even
        x, z = 2 * e + 1, 2 * z
    elif case == "b even, u0 even":
        x = 2 * e
    else:  # "b even, u0 odd": x and z odd
        x, z = 2 * e + 1, 2 * z + 1
    return x * (z * z - x), Point.affine(x, x * z)


ODD_CASES = [(p, case, v) for p in (3, 5, 7) for case in ("p divides u0", "p prime to u0") for v in (1, 2, 3)]
TWO_CASES = [(2, case, 1) for case in ("b odd", "b even, u0 even", "b even, u0 odd")]


class TestSettledTrackers:
    """A prime leaves the series once p does not divide u_k but divides
    b w_k; from there every cancellation at p is 0 (module docstring)."""

    @pytest.mark.parametrize("p, case, v", ODD_CASES + TWO_CASES, ids=str)
    @settings(max_examples=15, deadline=None)
    @given(
        e=st.integers(min_value=1, max_value=12).filter(lambda e: all(e % q for q in (2, 3, 5, 7))),
        z=st.integers(min_value=0, max_value=12),
        sign=st.sampled_from([-1, 1]),
    )
    def test_cancellations_match_the_exact_orbit(self, p, case, v, e, z, sign):
        b, P = point_for_case(case, p, v, sign * e, z)
        assume(b != 0 and P.y != 0 and not heights._is_torsion(Curve(b), P))
        x = int(P.x)
        if p > 2:
            assert valuation(b, p) == v and (x % p == 0) == (case == "p divides u0")
        else:
            assert (b % 2 == 0) == case.startswith("b even") and (x % 2 == 0) == case.endswith("u0 even")
        assert heights._settled(p, b, x, 1) == (case in ("p prime to u0", "b even, u0 odd"))
        bad = factor(2 * abs(b)).distinct_primes()
        steps = 6
        cancellations = heights._cancellations(b, x, 1, bad, steps)
        for k, g in enumerate(exact_gcds(b, x, 1, steps)):
            assert {q: valuation(g, q) for q in bad if g % q == 0} == cancellations[k], (b, x, k)
            assert g == math.prod(q**c for q, c in cancellations[k].items())

    def test_gram_matrix_runs_few_tracker_steps(self, monkeypatch):
        # the constructed points of (1, 11) and their pairwise sums start
        # settled at the 9 odd primes of 2b and settle at 2 within two
        # steps; without retirement the Gram matrix ran 1,900 steps
        steps = 0
        step = heights._padic_step

        def counting(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(heights, "_padic_step", counting)
        quad = euler_quadruple(1, 11)
        g = gram_matrix(curve_from_n(quad.n), constructed_points(quad), precision=1e-8)
        assert g.determinant > 0
        assert 0 < steps < 20

    def test_cancellation_above_the_cap_is_a_property_violation(self, monkeypatch):
        # the first step of this point cancels 16 digits at 2 and 2 at 5,
        # within the resultant caps 18 and 6, and above a cap lowered to 1
        step = heights._padic_step
        monkeypatch.setattr(heights, "_padic_step", lambda p, A, u, w, M, cap: step(p, A, u, w, M, 1))
        with pytest.raises(PropertyViolation, match="above resultant cap"):
            canonical_height(curve_from_n(1280), Point.affine(80, 640))


def isogeny_image(E: Curve, P: Point) -> Point:
    """phi(x, y) = (y^2/x^2, y (b - x^2)/x^2), the 2-isogeny from
    y^2 = x^3 + b x to y^2 = x^3 - 4b x, at an affine P != (0, 0)."""
    return Point(P.y**2 / P.x**2, P.y * (E.b - P.x**2) / P.x**2)


class TestIsogenyOracle:
    """h(phi P) = 2 h(P) on the 2-isogenous curve, for phi of degree 2: an
    oracle that runs the series on a second curve with other bad primes."""

    @settings(max_examples=20, deadline=None)
    @given(ab=st.sampled_from([(2, 1), (3, 1), (1, 11)]), i=st.integers(0, 6))
    def test_height_doubles_through_the_isogeny(self, ab, i):
        # the four constructed points, then the three phi-side generators
        # other than (0, 0), which phi sends to O
        quad = euler_quadruple(*ab)
        E = curve_from_n(quad.n)
        P = (constructed_points(quad) + list(phi_image(E, quad).generators[1:]))[i]
        E_dual = dual_curve(E)
        Q = isogeny_image(E, P)
        assert is_on_curve(E_dual, Q)
        h, h_dual = canonical_height(E, P, 1e-8), canonical_height(E_dual, Q, 1e-8)
        assert abs(h_dual.value - 2 * h.value) <= h_dual.error_bound + 2 * h.error_bound


class TestPairing:
    def test_symmetric(self):
        H = heights_on(E17, 1e-9)
        assert abs(H.pairing(P17, Q17) - H.pairing(Q17, P17)) < 1e-8

    def test_self_pairing_is_height(self):
        # <P, P> = (h(2P) - 2 h(P)) / 2 = h(P) by quadraticity, so no series
        # for 2P is evaluated and the value is the height itself
        v = heights_on(E17, 1e-9).pairing(P17, P17)
        h = canonical_height(E17, P17, precision=1e-9).value
        assert v == h

    def test_bilinear_in_multiples(self):
        H = heights_on(E17, 1e-10)
        v = H.pairing(P17, Q17)
        v2 = H.pairing(scalar_mul(E17, 2, P17), Q17)
        assert abs(v2 - 2 * v) < 1e-7

    def test_memo_hits_skip_the_curve_check(self, monkeypatch):
        # only points on E enter the memo, so the 26 height lookups of a
        # 4-point Gram matrix check each of its 10 distinct points once
        checked = []
        require = heights._require_on_curve

        def recording(E, P):
            checked.append((P.x, P.y))
            require(E, P)

        monkeypatch.setattr(heights, "_require_on_curve", recording)
        H = heights_on(E21, 1e-8)
        H.gram(PTS21)
        assert len(checked) == len(set(checked)) == 10
        with pytest.raises(OffCurve):
            H.height(Point.affine(1, 1))

    def test_torsion_pairs_to_zero(self):
        T = Point.affine(0, 0)
        v = heights_on(E17, 1e-9).pairing(T, P17)
        assert abs(v) < 1e-7


class TestCurveKeepsHeightFacts:
    """A Curve object keeps the primes of 2b and, per precision, the height
    of each distinct point and each pairing, across the public functions."""

    def test_one_factorization_and_one_series_per_distinct_point(self, factor_calls, series_calls, monkeypatch):
        sums = []
        add_unchecked = heights._add_unchecked
        monkeypatch.setattr(heights, "_add_unchecked", lambda E, P, Q: sums.append(1) or add_unchecked(E, P, Q))
        E = curve_from_n(QUAD21.n)
        for P in PTS21:
            canonical_height(E, P)
        gram_matrix(E, PTS21)
        assert len(sums) == 6
        assert independence_rank(E, PTS21) == 4
        assert factor_calls == [2 * abs(E.b)]
        # 4 points and their 6 pairwise sums; the second Gram matrix, inside
        # independence_rank, is all memo hits and adds no point sum
        assert len(series_calls) == len(set(series_calls)) == 10
        assert len(sums) == 6

    def test_a_new_curve_object_starts_empty(self, factor_calls, series_calls):
        E, again = curve_from_n(QUAD21.n), curve_from_n(QUAD21.n)
        gram_matrix(E, PTS21)
        gram_matrix(again, PTS21)
        assert factor_calls == [2 * abs(E.b)] * 2
        assert len(series_calls) == 20 and len(set(series_calls)) == 10
        # the facts are cached properties, outside the dataclass fields
        assert E == again and hash(E) == hash(again) and repr(E) == repr(again)
        assert [f.name for f in dataclasses.fields(E)] == ["b"]

    def test_heights_are_freed_with_the_curve(self):
        # the curve holds its memos and nothing in them points back at it,
        # so reference counting alone frees both
        E = curve_from_n(QUAD21.n)
        gram_matrix(E, PTS21)
        gone = weakref.ref(E)
        gc.disable()
        try:
            del E
            assert gone() is None
        finally:
            gc.enable()

    def test_values_match_a_fresh_heights(self):
        # both precisions on one curve object, each with its own memos, and
        # the same values from a new curve object, whose memos start empty
        E = curve_from_n(QUAD21.n)
        primes = factor(2 * abs(E.b)).distinct_primes()
        for precision in (1e-4, 1e-8):
            kept = [canonical_height(E, P, precision).value.hex() for P in PTS21]
            gram = gram_matrix(E, PTS21, precision).entries
            fresh = Heights(curve_from_n(QUAD21.n), precision, primes)
            assert kept == [fresh.height(P).value.hex() for P in PTS21] == list(PINNED_HEIGHTS[(2, 1), precision])
            assert [v.hex() for row in gram for v in row] == [v.hex() for row in fresh.gram(PTS21).entries for v in row]

    def test_effort_exceeded_keeps_nothing(self, monkeypatch, factor_calls, series_calls):
        # a failed factorization of 2b caches no primes, so the next call
        # factors 2b again, and only then do the memos fill
        E, P = curve_from_n(QUAD21.n), PTS21[0]
        with monkeypatch.context() as patched:
            patched.setattr(curve, "factor", exhausted)
            with pytest.raises(EffortExceeded):
                gram_matrix(E, PTS21)
        assert "bad_primes" not in vars(E) and E.height_memos == {}
        h = canonical_height(E, P)
        assert factor_calls == [2 * abs(E.b)] and len(series_calls) == 1
        assert h.value.hex() == PINNED_HEIGHTS[(2, 1), 1e-8][0]


class TestGramDeterminants:
    def test_rank_two_reference_value(self):
        det = heights_on(E17, 1e-9).gram([P17, Q17]).determinant
        assert abs(det - 1.8567788824280043) < 1e-7
        # published four-decimal value
        assert abs(det - 1.8567) / 1.8567 < 5e-4

    def test_rank_four_reference_value(self):
        det = heights_on(E21, 1e-8).gram(PTS21).determinant
        assert abs(det - 5635.736544081042) < 1e-4
        assert abs(det - 5635.73654) / 5635.73654 < 1e-4

    def test_diagonal_entries_are_heights(self):
        g = gram_matrix(E21, PTS21, precision=1e-8)
        expected = [
            10.478785524406113,
            9.848393667973742,
            10.398570052019512,
            10.048748487394732,
        ]
        for row, want in zip(range(4), expected):
            assert abs(g.entries[row][row] - want) < 1e-6

    def test_symmetry_of_entries(self):
        g = gram_matrix(E17, [P17, Q17], precision=1e-9)
        assert g.entries[0][1] == g.entries[1][0]

    def test_empty_matrix(self):
        g = gram_matrix(E17, [])
        assert g == GramMatrix(entries=())
        assert g.determinant == 1.0

    @pytest.mark.parametrize("entries", [((math.nan,),), ((1.0, math.inf), (math.inf, 1.0)), ((1.0, 0.0),)],
                             ids=["nan", "infinite", "not-square"])
    def test_malformed_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            GramMatrix(entries)


@pytest.mark.parametrize("value, error_bound", [(math.nan, 1e-8), (1.0, math.nan), (math.inf, 1e-8),
                                                (1.0, math.inf), (-1.0, 1e-8), (1.0, -1e-8)])
def test_height_value_must_be_finite_and_nonnegative(value, error_bound):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        HeightValue(value, error_bound)


class TestIndependenceRank:
    def test_two_independent_points(self):
        assert independence_rank(E17, [P17, Q17]) == 2

    def test_four_independent_points(self):
        assert independence_rank(E21, PTS21, precision=1e-8) == 4

    def test_torsion_contributes_nothing(self):
        T = Point.affine(0, 0)
        assert independence_rank(E17, [P17, T]) == 1
        assert independence_rank(E17, [T]) == 0

    def test_dependent_multiple_collapses(self):
        P2 = scalar_mul(E17, 2, P17)
        # {P, 2P} spans rank 1; the 2x2 determinant is 0 up to rounding
        assert independence_rank(E17, [P17, P2]) == 1

    def test_entries_known_too_coarsely_certify_nothing(self):
        # entries within 100 of the truth: no determinant clears its margin
        assert independence_rank(E17, [P17, Q17], tol=100.0) == 0

    def test_a_margin_beyond_the_floats_certifies_nothing(self):
        # (sqrt(4) * 4.5e77)^4 overflows a float: the margin is infinite
        g = heights_on(E21, 1e-8).gram(PTS21)
        assert heights._det_margin(g.entries, 4.5e77) == math.inf
        assert g.independence(4.5e77) == 0 and g.independence(4.5e-8) == 4


def _cofactor_det(m) -> Fraction:
    """det by cofactor expansion over Fractions: the oracle for the exact determinant."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * Fraction(m[0][j]) * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@st.composite
def perturbed(draw):
    """A symmetric G, an eps and an E with |E_ij| <= eps, drawn at the
    corners of that box (where det(G - E) is extreme) or inside it."""
    k, eps = draw(st.integers(1, 4)), draw(st.floats(1e-9, 1.0))
    upper = {(i, j): draw(st.floats(-20.0, 20.0)) for i in range(k) for j in range(i, k)}
    scale = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
    E = [[eps * draw(scale) for _ in range(k)] for _ in range(k)]
    return [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)], eps, E


class TestDeterminantMargin:
    @settings(max_examples=300, deadline=None)
    @given(case=perturbed())
    # det(G) = 0.0337 and det(G - E) < 0: a margin of (a + eps)^2 - a^2 =
    # 0.0281 would certify G, and the sqrt(2) eps of E's columns makes it 0.0398
    @example(case=([[1.0, 0.983], [0.983, 1.0]], 0.01, [[0.01, -0.01], [-0.01, 0.01]]))
    def test_a_determinant_above_its_margin_stays_positive(self, case):
        G, eps, E = case
        det = heights._exact_det(G)
        assert det == _cofactor_det(G)
        if det > heights._det_margin(G, eps):
            assert _cofactor_det([[Fraction(g) - Fraction(e) for g, e in zip(*rows)] for rows in zip(G, E)]) > 0

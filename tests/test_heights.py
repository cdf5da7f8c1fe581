"""Canonical height tests.

The frozen determinant values were computed at high precision and
cross-checked against the published four-decimal figures.
"""

import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from biquadrank import heights
from biquadrank.arith import EffortExceeded, FactorEffort, factor
from biquadrank.biquadrate import PropertyViolation, euler_quadruple
from biquadrank.curve import INFINITY, Curve, OffCurve, Point, add, curve_from_n, negate, scalar_mul
from biquadrank.heights import (
    GramMatrix,
    HeightValue,
    Heights,
    Inconclusive,
    PrecisionUnreachable,
    canonical_height,
    gram_matrix,
    independence_rank,
)
from biquadrank.curve import constructed_points

# h^ of the four constructed points, as float.hex(), from the series run
# entirely at 30 + K * (2 * digits(b) + 4) digits
PINNED_HEIGHTS = {
    ((2, 1), 1e-4): ("0x1.4f5235fb768aep+3", "0x1.3b260a716508ap+3", "0x1.4cc115fb28ab4p+3", "0x1.418f58fcafe05p+3"),
    ((2, 1), 1e-8): ("0x1.4f52360523e14p+3", "0x1.3b260a7a4291ap+3", "0x1.4cc115fb519e1p+3", "0x1.418f58fce2d66p+3"),
    ((2, 1), 1e-20): ("0x1.4f5236052400ap+3", "0x1.3b260a7a42a48p+3", "0x1.4cc115fb52441p+3", "0x1.418f58fce2f50p+3"),
    ((5, 3), 1e-4): ("0x1.5d4d55a2ea87dp+4", "0x1.5fa8d3148329bp+4", "0x1.6031aa47855d5p+4", "0x1.5d236d7e79491p+4"),
    ((5, 3), 1e-8): ("0x1.5d4d55a2ee805p+4", "0x1.5fa8d314fd1b3p+4", "0x1.6031aa47c25e2p+4", "0x1.5d236d83d5d30p+4"),
    ((5, 3), 1e-20): ("0x1.5d4d55a2ee8bdp+4", "0x1.5fa8d314fd2e3p+4", "0x1.6031aa47c2618p+4", "0x1.5d236d83d5d6fp+4"),
    ((1, 11), 1e-4): ("0x1.fdc17dcf4aab6p+4", "0x1.04604fce2bfc8p+5", "0x1.019e69f039c0dp+5", "0x1.019a91f2cea52p+5"),
    ((1, 11), 1e-8): ("0x1.fdc17dcf59e57p+4", "0x1.04604fce2fa0dp+5", "0x1.019e69f09eb08p+5", "0x1.019a91f3c8e5ap+5"),
    ((1, 11), 1e-20): ("0x1.fdc17dcf59fa3p+4", "0x1.04604fce2fa10p+5", "0x1.019e69f09eb9dp+5", "0x1.019a91f3c8eb2p+5"),
}
# points whose orbits cancel 16 digits at p = 2 and 8 at p = 3, where the
# family curves above cancel at most 2: these pin the p-adic trackers
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
    return Heights(E, precision, factor(2 * abs(E.b)).distinct_primes())


def series_budget(E: Curve, precision: float) -> tuple[int, int]:
    """The series' term count K and its orbit loss per step L in digits."""
    c_tail = heights._tail_constant(E.b)
    K = max(8, math.ceil(math.log(2 * c_tail / (3 * precision), 4)) + 1)
    return K, 2 * len(str(abs(E.b))) + 4


def mpf_series_height(E: Curve, P: Point, precision: float) -> float:
    """The series with its real orbit in mpf: normalised to max(|U|, |W|) = 1
    at 30 + K*L digits, dividing by s_k after each step and dropping L
    digits, then one log of s_k per term."""
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

    def test_unreachable_precision_raises(self):
        with pytest.raises(PrecisionUnreachable):
            canonical_height(E17, P17, precision=1e-40)

    def test_unfactorable_2b_propagates(self):
        # 2n of the 27-digit (2, 9) curve needs rho; with no rho budget the
        # height cannot be computed and must fail at once
        quad = euler_quadruple(2, 9)
        E = curve_from_n(quad.n)
        start = time.perf_counter()
        with pytest.raises(EffortExceeded):
            canonical_height(E, constructed_points(quad)[0], effort=FactorEffort(rho_iterations=0))
        assert time.perf_counter() - start < 1.0


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
        # the orbit of the 28-digit (1, 11) curve starts above 1,000 digits;
        # each log only needs the requested 8 digits and the sum's guard digits
        seen = []
        log = mp.log

        def recording(x):
            seen.append(mp.dps)
            return log(x)

        monkeypatch.setattr(mp, "log", recording)
        quad = euler_quadruple(1, 11)
        canonical_height(curve_from_n(quad.n), constructed_points(quad)[0], precision=1e-8)
        assert seen and max(seen) <= 40

    def test_orbit_runs_on_integers(self, monkeypatch):
        # the real orbit needs no mpf: mpmath's precision is never set above
        # the term precision, and no mpf division runs above it either, so a
        # 1,000-digit mpf orbit (two divisions per step) fails here
        digits, divisions = [], []
        ctx = type(mp)
        for name in ("prec", "dps"):
            prop = getattr(ctx, name)

            def recording(self, value, fset=prop.fset):
                fset(self, value)
                digits.append(self.dps)

            monkeypatch.setattr(ctx, name, property(prop.fget, recording))
        truediv = mp.mpf.__truediv__

        def dividing(self, other):
            divisions.append(mp.dps)
            return truediv(self, other)

        monkeypatch.setattr(mp.mpf, "__truediv__", dividing)
        quad = euler_quadruple(1, 11)
        canonical_height(curve_from_n(quad.n), constructed_points(quad)[0], precision=1e-8)
        assert digits and max(digits) <= 40
        assert divisions and max(divisions) <= 40

    @settings(max_examples=40, deadline=None)
    @given(point=st.sampled_from(ORACLE_POINTS), k=st.integers(min_value=1, max_value=20),
           precision=st.sampled_from([1e-4, 1e-8, 1e-20]))
    def test_integer_orbit_matches_the_mpf_orbit(self, point, k, precision):
        E, P = point
        Q = scalar_mul(E, k, P)
        got = canonical_height(E, Q, precision).value
        assert abs(got - mpf_series_height(E, Q, precision)) <= precision

    def test_start_above_the_orbit_budget(self):
        # x(13 P) has more digits than the orbit keeps at 1e-4, so the first
        # shift of the integer orbit truncates the exact start
        Q = scalar_mul(E17, 13, P17)
        K, loss = series_budget(E17, 1e-4)
        assert len(str(Q.x.numerator)) > 30 + K * loss
        got = canonical_height(E17, Q, 1e-4).value
        assert abs(got - mpf_series_height(E17, Q, 1e-4)) <= 1e-4
        assert abs(got - 169 * canonical_height(E17, P17, 1e-10).value) <= 1e-4


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
    """A tracker leaves the series once p does not divide u_k but divides
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
        step = heights._PadicTracker.step

        def counting(self):
            nonlocal steps
            steps += 1
            return step(self)

        monkeypatch.setattr(heights._PadicTracker, "step", counting)
        quad = euler_quadruple(1, 11)
        g = gram_matrix(curve_from_n(quad.n), constructed_points(quad), precision=1e-8)
        assert g.determinant > 0
        assert 0 < steps < 20

    def test_cancellation_above_the_cap_is_a_property_violation(self, monkeypatch):
        # the first step of this point cancels 16 digits at 2 and 2 at 5,
        # within the resultant caps 18 and 6, and above a cap lowered to 1
        init = heights._PadicTracker.__init__

        def lowered(self, *args):
            init(self, *args)
            self.cap = 1

        monkeypatch.setattr(heights._PadicTracker, "__init__", lowered)
        with pytest.raises(PropertyViolation, match="above resultant cap"):
            canonical_height(curve_from_n(1280), Point.affine(80, 640))


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

    def test_torsion_pairs_to_zero(self):
        T = Point.affine(0, 0)
        v = heights_on(E17, 1e-9).pairing(T, P17)
        assert abs(v) < 1e-7


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

    def test_gray_zone_raises(self):
        with pytest.raises(Inconclusive):
            independence_rank(E17, [P17, Q17], tol=100.0)

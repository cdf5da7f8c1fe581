"""End-to-end acceptance checks, one test per delivery criterion.

Each test runs through the shared `criteria` recorder, which emits exactly
one PASS/FAIL line per criterion (with wall time) in the terminal summary.
Tolerances and runtime budgets are pinned here; nothing else relaxes them.

Expensive artifacts (searches, certificates) are computed once per session
and shared across the criteria that need them.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from biquadrank.arith import factor, is_square
from biquadrank.biquadrate import (
    BiquadQuadruple,
    euler_quadruple,
    euler_raw_quadruple,
    fourth_power_witness,
    quartic_factors,
    search_double_representations,
    witness_root_polynomial,
)
from biquadrank.certificate import analyze
from biquadrank.curve import (
    INFINITY,
    Point,
    add,
    constructed_points,
    curve_from_n,
    dual_curve,
    negate,
    scalar_mul,
)
from biquadrank.descent import (
    phi_image,
    psi_image,
    rank_lower_bound,
    yoshida_upper_bound,
)
from biquadrank.heights import canonical_height, gram_matrix
from biquadrank.parity import parity_adjusted_bound, prime_divisor_law, root_number
from biquadrank.reference import load_reference

# Identity criteria sweep 1 <= a, b <= GRID, and so prove their identities:
# a polynomial of degree <= d in a that vanishes at d + 1 values of a is 0,
# so one of degree <= d in each of a and b that vanishes on a grid with at
# least d + 1 values of a in each of d + 1 rows of b is 0.  The code does
# not check these identities again at run time.
GRID = 50


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.fixture(scope="module")
def hits_to_1000():
    return search_double_representations(1000)


def test_criterion_01_parametrized_identity(criteria):
    # p^4 + q^4 - r^4 - s^4 has degree <= 28 in each of a and b: 50 >= 29
    def run():
        for a in range(1, GRID + 1):
            for b in range(1, GRID + 1):
                p, q, r, s = euler_raw_quadruple(a, b)
                assert p**4 + q**4 == r**4 + s**4, (a, b)

    criteria.check(1, f"p^4+q^4 = r^4+s^4 exactly on the {GRID}x{GRID} grid", run, budget=5.0)


def test_criterion_02_quartic_product_identity(criteria):
    # A*B*C*D - (p^4 + q^4) has degree <= 28 in each of a and b; skipping
    # a = b leaves 49 >= 29 values of a in each of the 50 rows of b
    def run():
        for a in range(1, GRID + 1):
            for b in range(1, GRID + 1):
                if a == b:
                    continue  # degenerate diagonal: D is a fourth power there
                f = quartic_factors(a, b)
                p, q, _, _ = euler_raw_quadruple(a, b)
                assert f.A * f.B * f.C * f.D == p**4 + q**4 == f.n_raw, (a, b)
                assert f.b1 * f.b2 == -f.n_raw, (a, b)
        # the diagonal still satisfies the product identity itself
        f = quartic_factors(1, 1)
        assert f.A * f.B * f.C * f.D == f.n_raw == 272

    criteria.check(2, "A*B*C*D equals the raw parametrized n on the grid", run, budget=5.0)


def test_criterion_03_fourth_power_witness(criteria):
    # B*D - b^4*A*C - a^4 * inner^2 has degree <= 16 in each of a and b: 50 >= 17
    def run():
        for a in range(1, GRID + 1):
            for b in range(1, GRID + 1):
                K, N = fourth_power_witness(a, b)
                inner = witness_root_polynomial(a, b)
                assert N * N == K, (a, b)
                assert K == a**4 * inner * inner, (a, b)
                assert N == a * a * abs(inner), (a, b)
        # the widely printed variant with a cubic third term is wrong: at
        # (2, 1) it gives 16*(64+16+32-5)^2 = 183184, not K = 132496
        a, b = 2, 1
        printed_inner = a**6 + a**4 * b**2 + 4 * a**3 * b**4 - 5 * b**6
        K, _ = fourth_power_witness(a, b)
        assert K == 132496
        assert a**4 * printed_inner**2 == 183184 != K

    criteria.check(
        3, "(BD - b^4*AC) is the square of a^2*|witness poly|; printed form fails", run, budget=5.0
    )


def test_criterion_04_published_table(criteria, reference):
    def run():
        rows = reference["tables"]
        assert len(rows) == 17
        for row in rows:
            p, q, n, rank = int(row["p"]), int(row["q"]), int(row["n"]), int(row["rank"])
            assert p**4 + q**4 == n, n
            quad = BiquadQuadruple(p, q, p, q)
            w = root_number(n, quad=quad)
            if n % 2:
                assert n % 16 == 1, n
                assert w.omega == 1, n
                assert rank % 2 == 0, n
            else:
                assert n % 16 == 2, n
                assert w.omega == -1, n
                assert rank % 2 == 1, n

    criteria.check(
        4, "17 table rows: identity exact, residue/root-number/rank parity agree", run, budget=5.0
    )


def test_criterion_05_gram_determinants(criteria, reference):
    def run():
        for spec in reference["determinants"]:
            n = int(spec["n"])
            pts = [Point(Fraction(x), Fraction(y)) for x, y in spec["points"]]
            E = curve_from_n(n)
            det = gram_matrix(E, pts).determinant
            target = float(spec["value"])
            rel = abs(det - target) / abs(target)
            assert rel <= float(spec["rel_tol"]), (n, det, target, rel)

    criteria.check(
        5, "height pairing determinants match published 1.8567 and 5635.73654", run, budget=60.0
    )


def test_criterion_06_descent_images_on_family(criteria):
    def run():
        for a in range(1, 11):
            for b in range(1, 11):
                if a == b:
                    continue
                quad = euler_quadruple(a, b)
                E = curve_from_n(quad.n)
                phi = phi_image(E, quad)
                psi = psi_image(dual_curve(E), quad)
                assert phi.order >= 8, (a, b)
                assert psi.order >= 4, (a, b)
                phi.reverify()
                psi.reverify()
                lower = rank_lower_bound(phi, psi)
                assert lower == 3, (a, b, lower)
                if quad.n % 2:
                    w = root_number(quad.n, quad=quad)
                    assert parity_adjusted_bound(lower, w) == 4, (a, b)

    criteria.check(
        6, "family descent: |phi|>=8, |psi|>=4, bound 3 (4 after parity)", run, budget=60.0
    )


def test_criterion_07_prime_divisor_law(criteria, hits_to_1000):
    def run():
        assert hits_to_1000, "search to 1000 found nothing"
        for quad in hits_to_1000:
            f = factor(2 * quad.n)
            for prime, _ in f.primes:
                if prime % 2:
                    assert prime % 8 == 1, (quad.n, prime)
            assert prime_divisor_law(quad.n, f=f) is True

    criteria.check(
        7, "every odd prime divisor of every hit to base 1000 is 1 mod 8", run, budget=600.0
    )


def test_criterion_08_search_matches_oracle(criteria):
    def oracle(max_base):
        by_sum = {}
        for qq in range(1, max_base + 1):
            for pp in range(1, qq + 1):
                by_sum.setdefault(pp**4 + qq**4, []).append((pp, qq))
        out = []
        for n in sorted(by_sum):
            for (p, q), (r, s) in combinations(sorted(by_sum[n]), 2):
                if math.gcd(math.gcd(p, q), math.gcd(r, s)) == 1:
                    out.append((p, q, r, s, n))
        return sorted(out, key=lambda t: (t[4], t[:4]))

    def run():
        got = [(t.p, t.q, t.r, t.s, t.n) for t in search_double_representations(300)]
        assert got == oracle(300)
        small = search_double_representations(200)
        assert len(small) == 1
        assert small[0].n == 635318657
        assert small[0].pairs() == ((59, 158), (133, 134))

    criteria.check(
        8, "search to 300 equals brute force; base 200 yields exactly 635318657", run, budget=60.0
    )


def test_criterion_09_height_laws(criteria):
    def run():
        samples = [
            (curve_from_n(17), Point(Fraction(-4), Fraction(2)), Point(Fraction(-1), Fraction(4))),
        ]
        pts21 = constructed_points(euler_quadruple(2, 1))
        samples.append((curve_from_n(635318657), pts21[0], pts21[1]))
        for E, P, Q in samples:
            hP = canonical_height(E, P).value
            hQ = canonical_height(E, Q).value
            assert abs(canonical_height(E, scalar_mul(E, 2, P)).value - 4 * hP) <= 1e-5
            hsum = canonical_height(E, add(E, P, Q)).value
            hdiff = canonical_height(E, add(E, P, negate(Q))).value
            assert abs(hsum + hdiff - 2 * hP - 2 * hQ) <= 1e-5
            torsion = canonical_height(E, Point(Fraction(0), Fraction(0)))
            assert torsion.value == 0.0 and torsion.error_bound == 0.0
            at_infinity = canonical_height(E, INFINITY)
            assert at_infinity.value == 0.0 and at_infinity.error_bound == 0.0

    criteria.check(
        9, "height doubling and parallelogram laws within 1e-5; torsion exactly 0", run
    )


def test_criterion_10_exact_rational_square(criteria, reference):
    def run():
        spec = reference["exact_square"]
        c = int(spec["coefficient"])
        u, v = int(spec["u"]), int(spec["v"])
        x = Fraction(u, v) ** 2
        w = x**3 + c * x
        assert w > 0
        assert is_square(w.numerator) and is_square(w.denominator)
        # the widely printed 19-digit denominator drops a digit and fails
        vp = int(spec["v_printed"])
        assert not is_square(u**4 + c * vp**4)

    criteria.check(
        10, "x^3 + 877x is an exact rational square at the published generator", run, budget=5.0
    )


def test_criterion_11_bound_consistency(criteria, hits_to_1000):
    def run():
        certs = [analyze(pqrs=q.components(), skip_heights=True) for q in hits_to_1000]
        for cert in certs:
            assert cert.descent_lower <= cert.heuristic_upper, cert.n
            assert cert.unconditional_lower <= cert.conditional_lower <= cert.heuristic_upper, cert.n
        smallest = next(c for c in certs if c.n == 635318657)
        assert smallest.descent_lower == 3
        assert smallest.heuristic_upper == 9
        assert yoshida_upper_bound(635318657) == 9

    criteria.check(
        11, "descent lower bound never exceeds the prime-count upper bound", run
    )

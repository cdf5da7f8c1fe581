"""Descent image bookkeeping: square classes of generator points and rank
bounds.

Expected class sets below were computed by hand from the closed-form
points and are compared with the span of an image's generators, which
span() enumerates independently of the F2 rank; every image re-checks its
points by exact integer arithmetic through DescentImage's own audit path.
"""

import dataclasses
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from biquadrank.arith import factor
from biquadrank.biquadrate import euler_quadruple, factor_2n, quartic_factors, validate_double_representation
from biquadrank.curve import INFINITY, OffCurve, Point, add, curve_from_n, dual_curve, negate, pair_points
from biquadrank.descent import (
    DescentImage,
    phi_image,
    psi_image,
    rank_lower_bound,
    square_class,
    yoshida_upper_bound,
)


_factor = functools.cache(factor)


def span(img):
    """Every class in the span of img's generators: each product of a subset
    of generator classes, reduced to its squarefree part from the
    factorizations of the generators."""
    fs = [_factor(c) for c in img.classes]
    classes = set()
    for chosen in itertools.product((False, True), repeat=len(fs)):
        sign, exponents = 1, Counter()
        for f in itertools.compress(fs, chosen):
            sign *= f.sign
            exponents.update(dict(f.primes))
        classes.add(math.prod((p for p, e in exponents.items() if e % 2), start=sign))
    return classes


class TestSquareClasses:
    def test_canonical_representatives(self):
        assert square_class(12, (2, 3)) == 3
        assert square_class(-12, (2, 3)) == -3
        assert square_class(49, (7,)) == 1
        assert square_class(49, ()) == 1  # the cofactor 49 is a square
        assert square_class(1, ()) == 1
        assert square_class(-1, ()) == -1
        # 2n = 2 * 41 * 113 * 241 * 569, so n is its own class
        assert square_class(635318657, (2, 41, 113, 241, 569)) == 635318657
        with pytest.raises(ValueError):
            square_class(0, (2, 3))

    def test_prime_outside_the_list_rejected(self):
        with pytest.raises(ValueError):
            square_class(6, (3,))

    def test_family_classes_from_the_primes_of_2n(self):
        # covers the reduced (3, 1) and the non-coprime (2, 4)
        def oracle(m):
            f = factor(m)
            return math.prod((p for p, e in f.primes if e % 2), start=f.sign)

        for a in range(1, 13):
            for b in range(1, 13):
                quad = euler_quadruple(a, b)
                factors = quartic_factors(a, b)
                primes = factor(2 * quad.n).distinct_primes()
                for m in (quad.n, factors.B * factors.D):
                    assert square_class(m, primes) == oracle(m), (a, b, m)


QUAD21 = euler_quadruple(2, 1)
N21 = QUAD21.n
E21 = curve_from_n(N21)


class TestPhiImage:
    def test_minimal_image_for_smallest_n(self):
        quad = euler_quadruple(1, 1)
        img = phi_image(curve_from_n(17), quad)
        assert span(img) == {1, -1, 17, -17}
        assert img.order == 4
        img.reverify()

    def test_eight_classes_with_generating_parameters(self):
        img = phi_image(E21, QUAD21)
        n = N21
        assert span(img) == {1, -1, n, -n, 137129, -137129, 4633, -4633}
        assert img.order == 8
        img.reverify()

    def test_quadruple_without_parameters_gives_four(self):
        quad = validate_double_representation(59, 158, 133, 134)
        img = phi_image(curve_from_n(N21), quad)
        assert img.order == 4
        assert span(img) == {1, -1, N21, -N21}

    def test_reduced_quadruple_uses_point_witness(self):
        # reduction g > 1 scales the raw-model point (BD/b^2, BD N/b^3) by g
        quad = euler_quadruple(3, 1)
        assert quad.reduction > 1
        img = phi_image(curve_from_n(quad.n), quad)
        assert img.order == 8
        factors = quartic_factors(3, 1)
        g = quad.reduction
        assert img.generators[3].x == Fraction(factors.B * factors.D, g * g)
        img.reverify()

    def test_generators_are_the_papers_points(self):
        P1, _ = pair_points(QUAD21.p, QUAD21.q)
        T = Point.affine(0, 0)
        gens = phi_image(E21, QUAD21).generators
        assert gens[0] == T
        assert gens[1] == negate(P1)
        assert gens[2] == add(E21, P1, T)

    def test_family_classes_are_the_closed_forms(self):
        for a in range(1, 13):
            for b in range(1, 13):
                quad = euler_quadruple(a, b)
                E = curve_from_n(quad.n)
                f = factor_2n(quad)
                primes = f.distinct_primes()
                factors = quartic_factors(a, b)
                c_n = square_class(quad.n, primes)
                c_bd = square_class(factors.B * factors.D, primes)
                assert phi_image(E, quad, f).classes == (-c_n, -1, c_n, c_bd), (a, b)
                assert psi_image(dual_curve(E), quad, f).classes == (c_n, 2), (a, b)

    def test_curve_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phi_image(curve_from_n(17), QUAD21)

    def test_factors_must_match(self):
        # the quadruple refuses parameters whose factors are not its own
        with pytest.raises(ValueError, match="do not regenerate the quadruple"):
            dataclasses.replace(QUAD21, euler_params=(3, 1))

    def test_given_factorization_is_used_and_checked(self):
        f = factor(2 * N21)
        assert phi_image(E21, QUAD21, f) == phi_image(E21, QUAD21)
        assert span(psi_image(dual_curve(E21), QUAD21, f)) == {1, 2, N21, 2 * N21}
        for wrong in (factor(N21), factor(2 * 17)):
            with pytest.raises(ValueError):
                phi_image(E21, QUAD21, wrong)
            with pytest.raises(ValueError):
                psi_image(dual_curve(E21), QUAD21, wrong)

    def test_family_rank_matches_the_span(self):
        # 2^rank is the size of the enumerated span, on both sides of all
        # 144 pairs; the order of each side is as the docstrings claim
        for a in range(1, 13):
            for b in range(1, 13):
                quad = euler_quadruple(a, b)
                E = curve_from_n(quad.n)
                f = factor_2n(quad)
                phi, psi = phi_image(E, quad, f), psi_image(dual_curve(E), quad, f)
                for img in (phi, psi):
                    assert img.primes == f.distinct_primes()
                    assert len(span(img)) == 2**img.rank == img.order, (a, b, img.side)
                assert phi.order in (4, 8) and psi.order == 4, (a, b)

    def test_nondegenerate_family_members_reach_eight(self):
        for a, b in ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2)):
            quad = euler_quadruple(a, b)
            img = phi_image(curve_from_n(quad.n), quad)
            assert img.order == 8, (a, b)


class TestPsiImage:
    def test_classes_for_smallest_n(self):
        quad = euler_quadruple(1, 1)
        img = psi_image(dual_curve(curve_from_n(17)), quad)
        assert span(img) == {1, 2, 17, 34}
        img.reverify()

    def test_classes_for_reference_n(self):
        img = psi_image(dual_curve(E21), QUAD21)
        assert span(img) == {1, 2, N21, 2 * N21}
        assert img.order == 4

    def test_wrong_curve_rejected(self):
        with pytest.raises(ValueError):
            psi_image(E21, QUAD21)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    def test_family_psi_verifies(self, a, b):
        quad = euler_quadruple(a, b)
        img = psi_image(dual_curve(curve_from_n(quad.n)), quad)
        assert img.order >= 4
        img.reverify()

    def test_two_is_always_witnessed(self):
        # 2(p+q)^4 + 2n = (2(p^2+pq+q^2))^2 for n = p^4 + q^4
        for p, q in ((1, 2), (59, 158), (7, 239)):
            n = p**4 + q**4
            assert 2 * (p + q) ** 4 + 2 * n == (2 * (p * p + p * q + q * q)) ** 2


class TestWitnessAudit:
    def test_tampered_torsor_detected(self):
        # a solution (M, e, N) of N^2 = b1 M^4 + b2 e^4 enters as the point
        # (b1 M^2/e^2, b1 M N/e^3); 5^2 != -1 + 17, so its point is off the curve
        def torsor_point(b1, b2, M, e, N):
            return Point.affine(Fraction(b1 * M * M, e * e), Fraction(b1 * M * N, e**3))

        assert DescentImage("phi", -17, (2, 17), (torsor_point(-1, 17, 1, 1, 4),)).classes == (-1,)
        with pytest.raises(OffCurve):
            DescentImage("phi", -17, (2, 17), (torsor_point(-1, 17, 1, 1, 5),))

    def test_tampered_point_detected(self):
        with pytest.raises(OffCurve):  # (-4, 3) is not on y^2 = x^3 - 17x
            DescentImage("phi", -17, (2, 17), (Point.affine(-4, 3),))

    def test_point_at_infinity_rejected(self):
        # O maps to the trivial class, so it is no generator
        with pytest.raises(OffCurve, match="not an affine point"):
            DescentImage("phi", -17, (2, 17), (INFINITY,))

    def test_zero_x_with_nonzero_y_rejected(self):
        # x = 0 reads the class of b only at the 2-torsion point (0, 0)
        with pytest.raises(OffCurve):
            DescentImage("phi", -17, (2, 17), (Point.affine(0, 1),))

    def test_image_constructor_runs_the_audit(self):
        # -P1 = (-1, -4) for 17 = 1^4 + 2^4, then y moved off the curve
        good = Point.affine(-1, -4)
        assert DescentImage("phi", -17, (2, 17), (good,)).classes == (-1,)
        with pytest.raises(OffCurve):
            DescentImage("phi", -17, (2, 17), (Point.affine(-1, 5),))

    @pytest.mark.parametrize("primes", [(2,), (2, 3), ()])
    def test_class_with_a_prime_outside_primes_rejected(self, primes):
        with pytest.raises(ValueError, match="outside"):
            DescentImage("phi", -17, primes, (Point.affine(0, 0),))


class TestRankBounds:
    def test_reference_bound(self):
        phi = phi_image(E21, QUAD21)
        psi = psi_image(dual_curve(E21), QUAD21)
        assert (phi.rank, psi.rank) == (3, 2)
        assert (phi.order, psi.order) == (8, 4)
        assert rank_lower_bound(phi, psi) == 3

    def test_smallest_n_bound(self):
        quad = euler_quadruple(1, 1)
        phi = phi_image(curve_from_n(17), quad)
        psi = psi_image(dual_curve(curve_from_n(17)), quad)
        assert rank_lower_bound(phi, psi) == 2

    def test_trivial_images_bound_zero(self):
        zero = SimpleNamespace(rank=0)
        two = SimpleNamespace(rank=2)
        assert rank_lower_bound(two, zero) == 0
        assert rank_lower_bound(zero, two) == 0

    def test_dependent_generators_leave_the_rank(self):
        phi = phi_image(E21, QUAD21)
        gens = phi.generators
        assert phi.classes[:3] == (-N21, -1, N21)
        # -n = -1 * n: three generators, rank two
        assert dataclasses.replace(phi, generators=gens[:3]).rank == 2
        for extra in (gens + gens[:1], gens + (gens[1],) * 3):
            assert dataclasses.replace(phi, generators=extra).rank == 3

class TestYoshidaBound:
    def test_reference_values(self):
        # 2n = 2 * 41 * 113 * 241 * 569 for n = 635318657
        assert yoshida_upper_bound(N21) == 9
        assert yoshida_upper_bound(17) == 3
        assert yoshida_upper_bound(2) == 1

    def test_accepts_precomputed_factorization(self):
        f = factor(2 * N21)
        assert yoshida_upper_bound(N21, f) == 9

    def test_factorization_binding_checked(self):
        f = factor(2 * 17)
        with pytest.raises(ValueError):
            yoshida_upper_bound(N21, f)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            yoshida_upper_bound(0)

    def test_never_below_descent_bound_in_family(self):
        for a, b in ((1, 1), (2, 1), (3, 1), (3, 2)):
            quad = euler_quadruple(a, b)
            E = curve_from_n(quad.n)
            lower = rank_lower_bound(phi_image(E, quad), psi_image(dual_curve(E), quad))
            assert lower <= yoshida_upper_bound(quad.n)

"""Descent image bookkeeping: witnessed square classes and rank bounds.

Expected class sets below were computed by hand from the closed-form
witnesses; every test re-verifies the stored witnesses by exact integer
arithmetic through DescentImage's own audit path.
"""

import math
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from biquadrank.arith import factor, is_square
from biquadrank.biquadrate import euler_quadruple, quartic_factors, validate_double_representation
from biquadrank.curve import curve_from_n, dual_curve
from biquadrank.descent import (
    DescentImage,
    Witness,
    WitnessInvalid,
    class_mul,
    phi_image,
    psi_image,
    rank_lower_bound,
    same_class,
    square_class,
    yoshida_upper_bound,
)


class TestSquareClasses:
    def test_canonical_representatives(self):
        assert square_class(12) == 3
        assert square_class(-12) == -3
        assert square_class(49) == 1
        assert square_class(-1) == -1
        assert square_class(635318657) == 635318657  # squarefree
        with pytest.raises(ValueError):
            square_class(0)

    def test_class_mul_on_squarefree_reps(self):
        assert class_mul(3, 3) == 1
        assert class_mul(6, 10) == 15
        assert class_mul(-2, 3) == -6
        assert class_mul(-5, -5) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=-300, max_value=300).filter(bool),
        st.integers(min_value=-300, max_value=300).filter(bool),
    )
    def test_class_mul_matches_square_class_of_product(self, a, b):
        ca, cb = square_class(a), square_class(b)
        assert class_mul(ca, cb) == square_class(a * b)

    def test_same_class(self):
        assert same_class(2, 8)
        assert same_class(-3, -27)
        assert not same_class(2, -2)
        assert not same_class(2, 3)
        assert same_class(635318657, 635318657 * 4)


QUAD21 = euler_quadruple(2, 1)
N21 = QUAD21.n
E21 = curve_from_n(N21)


class TestPhiImage:
    def test_minimal_image_for_smallest_n(self):
        quad = euler_quadruple(1, 1)
        img = phi_image(curve_from_n(17), quad)
        assert img.classes == frozenset({1, -1, 17, -17})
        assert img.order == 4
        img.reverify()

    def test_eight_classes_with_generating_parameters(self):
        img = phi_image(E21, QUAD21)
        n = N21
        assert img.classes == frozenset(
            {1, -1, n, -n, 137129, -137129, 4633, -4633}
        )
        assert img.order == 8
        img.reverify()

    def test_quadruple_without_parameters_gives_four(self):
        quad = validate_double_representation(59, 158, 133, 134)
        img = phi_image(curve_from_n(N21), quad)
        assert img.order == 4
        assert img.classes == frozenset({1, -1, N21, -N21})

    def test_reduced_quadruple_uses_point_witness(self):
        quad = euler_quadruple(3, 1)
        img = phi_image(curve_from_n(quad.n), quad)
        assert img.order == 8
        kinds = {w.kind for w in img.witnesses.values()}
        assert "point" in kinds  # reduction > 1 transports BD via a point
        img.reverify()

    def test_curve_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phi_image(curve_from_n(17), QUAD21)

    def test_factors_must_match(self):
        wrong = quartic_factors(3, 1)
        with pytest.raises(ValueError):
            phi_image(E21, QUAD21, factors=wrong)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    def test_family_images_verify_and_are_subgroups(self, a, b):
        quad = euler_quadruple(a, b)
        img = phi_image(curve_from_n(quad.n), quad)
        assert img.order in (4, 8)
        assert 1 in img.classes
        for c1 in img.classes:
            for c2 in img.classes:
                assert class_mul(c1, c2) in img.classes
        img.reverify()

    def test_nondegenerate_family_members_reach_eight(self):
        for a, b in ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2)):
            quad = euler_quadruple(a, b)
            img = phi_image(curve_from_n(quad.n), quad)
            assert img.order == 8, (a, b)


class TestPsiImage:
    def test_classes_for_smallest_n(self):
        quad = euler_quadruple(1, 1)
        img = psi_image(dual_curve(curve_from_n(17)), quad)
        assert img.classes == frozenset({1, 2, 17, 34})
        img.reverify()

    def test_classes_for_reference_n(self):
        img = psi_image(dual_curve(E21), QUAD21)
        assert img.classes == frozenset({1, 2, N21, 2 * N21})
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
        w = Witness("torsor", -1, (-1, 17, 1, 1, 5))  # 5^2 != -1 + 17
        with pytest.raises(WitnessInvalid):
            w.verify(-17, frozenset({1, -1}))

    def test_tampered_point_detected(self):
        w = Witness("point", -1, (-4, 1, 3, 1))  # (-4, 3) not on the curve
        with pytest.raises(WitnessInvalid):
            w.verify(-17, frozenset({1, -1}))

    def test_product_needs_both_factors_present(self):
        w = Witness("product", -17, (-1, 17))
        w.verify(-17, frozenset({1, -1, 17, -17}))
        with pytest.raises(WitnessInvalid):
            w.verify(-17, frozenset({1, -17}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WitnessInvalid):
            Witness("oracle", 1).verify(-17, frozenset({1}))

    def test_image_constructor_runs_the_audit(self):
        bad = {
            1: Witness("identity", 1),
            -1: Witness("torsor", -1, (-1, 17, 1, 1, 5)),
        }
        with pytest.raises(WitnessInvalid):
            DescentImage("phi", -17, frozenset({1, -1}), MappingProxyType(bad))

    def test_non_power_of_two_size_rejected(self):
        table = {
            1: Witness("identity", 1),
            -1: Witness("torsor", -1, (-1, 17, 1, 1, 4)),
            17: Witness("product", 17, (-1, -17)),
        }
        with pytest.raises(ValueError):
            DescentImage("phi", -17, frozenset({1, -1, 17}), MappingProxyType(table))

    def test_missing_trivial_class_rejected(self):
        with pytest.raises(ValueError):
            DescentImage("phi", -17, frozenset({-1, 17}), MappingProxyType({}))


class TestRankBounds:
    def test_reference_bound(self):
        phi = phi_image(E21, QUAD21)
        psi = psi_image(dual_curve(E21), QUAD21)
        assert (phi.order, psi.order) == (8, 4)
        assert rank_lower_bound(phi, psi) == 3

    def test_smallest_n_bound(self):
        quad = euler_quadruple(1, 1)
        phi = phi_image(curve_from_n(17), quad)
        psi = psi_image(dual_curve(curve_from_n(17)), quad)
        assert rank_lower_bound(phi, psi) == 2

    def test_trivial_images_bound_zero(self):
        one = SimpleNamespace(order=1)
        four = SimpleNamespace(order=4)
        assert rank_lower_bound(four, one) == 0
        assert rank_lower_bound(one, four) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            rank_lower_bound(SimpleNamespace(order=3), SimpleNamespace(order=4))


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

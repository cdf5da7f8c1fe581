"""Group law on y^2 = x^3 + b*x with exact rational coordinates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biquadrank.biquadrate import euler_quadruple
from biquadrank.curve import (
    INFINITY,
    Curve,
    OffCurve,
    Point,
    TorsionShape,
    add,
    constructed_points,
    curve_from_n,
    dual_curve,
    is_on_curve,
    negate,
    pair_points,
    scalar_mul,
    torsion_shape,
)

E17 = curve_from_n(17)
P17 = Point.affine(-4, 2)
Q17 = Point.affine(-1, 4)


def test_curve_basics():
    assert E17.b == -17
    assert E17.n == 17
    with pytest.raises(ValueError):
        Curve(b=0)


def test_dual_curve_composition():
    E = curve_from_n(17)
    D = dual_curve(E)
    assert D.b == 68
    # the double dual is the quartic twist by 2: b scales by 16
    assert dual_curve(D).b == 16 * E.b


def test_known_points_on_curve():
    assert is_on_curve(E17, P17)
    assert is_on_curve(E17, Q17)
    assert is_on_curve(E17, INFINITY)
    assert not is_on_curve(E17, Point.affine(1, 1))


def test_two_torsion_point():
    T = Point.affine(0, 0)
    assert is_on_curve(E17, T)
    assert add(E17, T, T) == INFINITY


def test_addition_known_value():
    # P + (-P) = O and doubling stays on the curve
    assert add(E17, P17, negate(P17)) == INFINITY
    D = add(E17, P17, P17)
    assert is_on_curve(E17, D)
    # explicit slope computation: lambda = (3*16 - 17)/(2*2) = 31/4
    lam = Fraction(31, 4)
    x3 = lam * lam - 2 * Fraction(-4)
    assert D.x == x3
    assert D.y == lam * (Fraction(-4) - x3) - 2


def test_off_curve_rejected():
    with pytest.raises(OffCurve):
        add(E17, Point.affine(1, 1), P17)
    with pytest.raises(OffCurve):
        scalar_mul(E17, 2, Point.affine(3, 5))


@pytest.mark.parametrize("x, y", [(Fraction(1), None), (None, Fraction(1))])
def test_half_point_rejected(x, y):
    with pytest.raises(ValueError, match="both coordinates or neither"):
        Point(x, y)


def small_multiples(E, gens, count=6):
    pts = [INFINITY]
    for g in gens:
        pts.extend(scalar_mul(E, k, g) for k in range(-count, count + 1) if k)
    return pts


class TestGroupLaws:
    PTS = small_multiples(E17, [P17, Q17], count=3)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PTS), st.sampled_from(PTS))
    def test_commutative(self, P, Q):
        assert add(E17, P, Q) == add(E17, Q, P)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PTS), st.sampled_from(PTS), st.sampled_from(PTS))
    def test_associative(self, P, Q, R):
        left = add(E17, add(E17, P, Q), R)
        right = add(E17, P, add(E17, Q, R))
        assert left == right

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PTS))
    def test_inverse(self, P):
        assert add(E17, P, negate(P)) == INFINITY

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PTS), st.integers(min_value=-8, max_value=8))
    def test_scalar_mul_matches_repeated_addition(self, P, k):
        expected = INFINITY
        step = P if k >= 0 else negate(P)
        for _ in range(abs(k)):
            expected = add(E17, expected, step)
        assert scalar_mul(E17, k, P) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PTS),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    )
    def test_scalar_mul_additive_in_k(self, P, j, k):
        lhs = scalar_mul(E17, j + k, P)
        rhs = add(E17, scalar_mul(E17, j, P), scalar_mul(E17, k, P))
        assert lhs == rhs


class TestPairPoints:
    def test_reference_coordinates(self):
        P, Q = pair_points(59, 158)
        assert (P.x, P.y) == (-3481, 59 * 158**2)
        assert (Q.x, Q.y) == (-24964, 158 * 59**2)
        E = curve_from_n(635318657)
        assert is_on_curve(E, P) and is_on_curve(E, Q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.integers(min_value=-30, max_value=30).filter(bool),
    )
    def test_always_on_curve(self, p, q):
        E = curve_from_n(p**4 + q**4)
        for P in pair_points(p, q):
            assert is_on_curve(E, P)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10).filter(bool),
        st.integers(min_value=1, max_value=10).filter(bool),
    )
    def test_constructed_points_for_family(self, a, b):
        quad = euler_quadruple(a, b)
        pts = constructed_points(quad)
        assert len(pts) == 4
        E = curve_from_n(quad.n)
        for P in pts:
            assert is_on_curve(E, P)


class TestTorsionShape:
    def test_z4_exactly_at_four(self):
        assert torsion_shape(4) is TorsionShape.Z4
        # (2, 4) has order 4 on y^2 = x^3 + 4x
        E = Curve(b=4)
        T = Point.affine(2, 4)
        assert is_on_curve(E, T)
        assert scalar_mul(E, 2, T) == Point.affine(0, 0)
        assert scalar_mul(E, 4, T) == INFINITY

    def test_full_two_torsion_when_minus_d_square(self):
        assert torsion_shape(-1) is TorsionShape.Z2xZ2
        assert torsion_shape(-4) is TorsionShape.Z2xZ2
        # x^3 - 4x = x(x-2)(x+2): three rational 2-torsion points
        E = Curve(b=-4)
        for x in (0, 2, -2):
            T = Point.affine(x, 0)
            assert is_on_curve(E, T)
            assert add(E, T, T) == INFINITY

    def test_generic_z2(self):
        assert torsion_shape(-17) is TorsionShape.Z2
        assert torsion_shape(2) is TorsionShape.Z2
        assert torsion_shape(-635318657) is TorsionShape.Z2

    def test_fourth_power_part_rejected(self):
        # a fourth-power factor is not rejected: D and D*k^4 are isomorphic
        assert torsion_shape(4 * 3**4) is TorsionShape.Z4
        assert torsion_shape(16) is TorsionShape.Z2
        assert torsion_shape(-16) is TorsionShape.Z2xZ2
        assert torsion_shape(-16 * 17) is TorsionShape.Z2
        with pytest.raises(ValueError):
            torsion_shape(0)

    @pytest.mark.parametrize("D", [4, -1, -4, -17, 2, -635318657])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_invariant_under_fourth_power_scaling(self, D, k):
        assert torsion_shape(D * k**4) is torsion_shape(D)

    def test_str_values(self):
        assert str(TorsionShape.Z2) == "Z/2Z"
        assert str(TorsionShape.Z2xZ2) == "Z/2Z x Z/2Z"
        assert str(TorsionShape.Z4) == "Z/4Z"

"""Root-number closed form and the conditional parity bump."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from biquadrank.arith import factor
from biquadrank.biquadrate import PropertyViolation, validate_double_representation
from biquadrank.parity import (
    OutOfDomain,
    RootNumber,
    epsilon,
    parity_adjusted_bound,
    prime_divisor_law,
    root_number,
)

# n = 3364^4 + 4849^4 = 4288^4 + 4303^4 = 17^2 * 89 * 61657 * 429361:
# the one worked example with a square part
N_SQUARE_PART = 680914892583617
QUAD_SQUARE_PART = validate_double_representation(3364, 4849, 4288, 4303)


class TestEpsilon:
    def test_spot_values(self):
        assert epsilon(1) == -1
        assert epsilon(2) == 1
        assert epsilon(3) == -1
        assert epsilon(5) == 1
        assert epsilon(11) == -1
        assert epsilon(13) == -1
        assert epsilon(17) == -1
        assert epsilon(34) == 1

    def test_depends_only_on_residue(self):
        for n in range(1, 400):
            if n % 4 == 0:
                continue
            assert epsilon(n) == epsilon(n + 16 * 7)

    def test_multiples_of_four_rejected(self):
        for n in (4, 8, 12, 16, 100):
            with pytest.raises(OutOfDomain):
                epsilon(n)

    def test_nonpositive_rejected(self):
        with pytest.raises(OutOfDomain):
            epsilon(0)
        with pytest.raises(OutOfDomain):
            epsilon(-17)


class TestRootNumber:
    def test_squarefree_path(self):
        rn = root_number(17)
        assert (rn.omega, rn.epsilon, rn.square_part_product) == (1, -1, 1)
        assert rn.justification == "squarefree"

    def test_reference_even_rank_curve(self):
        rn = root_number(635318657)
        assert rn.omega == 1
        assert rn.residue == 1

    def test_reference_odd_rank_curve(self):
        # 3262811042 = 2 (mod 16): epsilon +1, squarefree, omega -1
        rn = root_number(3262811042)
        assert rn.omega == -1
        assert rn.epsilon == 1

    def test_square_part_flips_when_symbol_is_minus_one(self):
        # 3^2 || 9 and (-1/3) = -1
        rn = root_number(9)
        assert (rn.epsilon, rn.square_part_product, rn.omega) == (1, -1, 1)
        assert rn.justification == "factored"
        # 45 = 3^2 * 5 sits in the epsilon = -1 residue class
        rn = root_number(45)
        assert (rn.epsilon, rn.square_part_product, rn.omega) == (-1, -1, -1)

    def test_square_part_silent_when_prime_is_1_mod_4(self):
        rn = root_number(N_SQUARE_PART)  # 17^2 || n, (-1/17) = +1
        assert (rn.omega, rn.square_part_product) == (1, 1)
        assert rn.justification == "factored"

    def test_coprime_representation_avoids_factoring(self):
        rn = root_number(N_SQUARE_PART, quad=QUAD_SQUARE_PART)
        assert rn.justification == "coprime-representation"
        assert rn.omega == root_number(N_SQUARE_PART).omega

    def test_precomputed_factorization_must_match(self):
        with pytest.raises(ValueError):
            root_number(17, f=factor(34))

    def test_quadruple_must_match(self):
        with pytest.raises(ValueError):
            root_number(17, quad=QUAD_SQUARE_PART)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            root_number(16)
        with pytest.raises(OutOfDomain):
            root_number(4 * 635318657)

    def test_only_evidence_is_stored(self):
        rn = RootNumber(square_part_product=-1, residue=1, justification="factored")
        assert [f.name for f in dataclasses.fields(rn)] == ["square_part_product", "residue", "justification"]
        assert (rn.epsilon, rn.omega) == (-1, -1)

    @pytest.mark.parametrize("spp, residue", [(0, 1), (2, 1), (1, 0), (1, 4), (1, 17), (1, -15)])
    def test_evidence_no_n_gives_rejected(self, spp, residue):
        with pytest.raises(ValueError):
            RootNumber(square_part_product=spp, residue=residue, justification="factored")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6).filter(lambda n: n % 4 != 0))
    def test_closed_form_assembly(self, n):
        rn = root_number(n)
        assert rn.omega == -rn.epsilon * rn.square_part_product
        assert rn.residue == n % 16
        assert rn.omega in (-1, 1)


class TestPrimeDivisorLaw:
    def test_holds_on_family_values(self):
        for n in (17, 635318657, N_SQUARE_PART, 2):
            assert prime_divisor_law(n)

    def test_every_prime_checked(self):
        f = factor(635318657)
        for p in f.distinct_primes():
            assert p % 8 == 1

    def test_violation_raises(self):
        with pytest.raises(PropertyViolation):
            prime_divisor_law(3)
        with pytest.raises(PropertyViolation):
            prime_divisor_law(17 * 5)  # 5 = 5 (mod 8)

    def test_binding_errors(self):
        with pytest.raises(ValueError):
            prime_divisor_law(17, f=factor(34))
        with pytest.raises(ValueError):
            prime_divisor_law(17, quad=QUAD_SQUARE_PART)
        scaled = validate_double_representation(118, 316, 266, 268)
        with pytest.raises(ValueError):
            prime_divisor_law(scaled.n, quad=scaled)  # not primitive


class TestParityAdjustedBound:
    def test_examples(self):
        assert parity_adjusted_bound(3, 1) == 4
        assert parity_adjusted_bound(3, -1) == 3
        assert parity_adjusted_bound(4, 1) == 4
        assert parity_adjusted_bound(4, -1) == 5
        assert parity_adjusted_bound(0, 1) == 0
        assert parity_adjusted_bound(0, -1) == 1

    def test_accepts_root_number_object(self):
        rn = root_number(17)
        assert parity_adjusted_bound(2, rn) == 2
        assert parity_adjusted_bound(3, rn) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            parity_adjusted_bound(-1, 1)
        with pytest.raises(ValueError):
            parity_adjusted_bound(2, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.sampled_from([-1, 1]))
    def test_result_parity_matches_omega(self, lower, w):
        out = parity_adjusted_bound(lower, w)
        assert lower <= out <= lower + 1
        assert (1 if out % 2 == 0 else -1) == w

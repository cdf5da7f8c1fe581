"""End-to-end certificates: analysis, serialization round-trips, audits."""

import dataclasses
import json
import math
import sys

import pytest

import biquadrank.heights as heights_module
from biquadrank.arith import FactorEffort, factor
from biquadrank.biquadrate import PropertyViolation
from biquadrank.certificate import (
    CSV_HEADER,
    CertificateInvalid,
    NoRepresentation,
    RankCertificate,
    analyze,
    certificate_record,
    csv_row,
    parse_certificate,
    render_table,
    reverify,
    to_json_line,
)
from biquadrank.descent import WitnessInvalid
from biquadrank.parity import OutOfDomain, parity_adjusted_bound


# one full-featured certificate shared by the serialization tests
CERT21 = analyze(ab=(2, 1))


class TestAnalyzeEntryPoints:
    def test_from_parameters(self):
        cert = CERT21
        assert cert.n == 635318657
        assert cert.descent_lower == 3
        assert cert.independence == 4
        assert cert.unconditional_lower == 4
        assert cert.conditional_lower == 4
        assert cert.heuristic_upper == 9
        assert cert.root.omega == 1
        assert cert.torsion == "Z/2Z"
        assert len(cert.points) == 4
        assert cert.quadruples[0].euler_params == (2, 1)

    def test_from_quadruple_recovers_parameters(self):
        cert = analyze(pqrs=(59, 158, 133, 134), skip_heights=True)
        assert cert.n == 635318657
        quad = cert.quadruples[0]
        assert quad.euler_params is not None
        assert cert.descent_lower == 3
        # no heights: unconditional falls back to the descent count
        assert cert.unconditional_lower == 3
        assert cert.conditional_lower == 4  # omega = +1 wants even rank
        assert cert.independence is None
        assert "heights skipped by request" in cert.notes

    def test_from_n_finds_both_pairs(self):
        cert = analyze(n=635318657, skip_heights=True)
        assert cert.quadruples[0].pairs() == ((59, 158), (133, 134))

    def test_single_representation_needs_opt_in(self):
        with pytest.raises(NoRepresentation):
            analyze(n=17)
        cert = analyze(n=17, allow_single=True)
        assert cert.n == 17
        assert len(cert.points) == 2
        assert cert.unconditional_lower == 2
        assert cert.conditional_lower == 2
        assert cert.heuristic_upper == 3
        assert any("single representation" in note for note in cert.notes)

    @pytest.mark.parametrize("given", [{"pqrs": (1, 2, 2, 1)}, {"pqrs": (1, 2, 1, 2)}, {"ab": (1, 1)}],
                             ids=["pqrs-1-2-2-1", "pqrs-1-2-1-2", "ab-1-1"])
    def test_degenerate_quadruple_needs_opt_in(self, given):
        # {1, 2} twice is 17's single representation, however it is given
        with pytest.raises(NoRepresentation, match=r"17 has a single representation \(1, 2\)"):
            analyze(**given)
        cert = analyze(**given, allow_single=True, skip_heights=True)
        assert cert.n == 17 and cert.quadruples[0].degenerate
        assert cert.unconditional_lower == 2

    def test_no_representation_at_all(self):
        for n in (12345, 0, -4, -5):  # n <= 0 is refused before it is factored
            with pytest.raises(NoRepresentation):
                analyze(n=n)

    def test_scaled_n_rejected_as_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            analyze(n=16 * 635318657)

    def test_exactly_one_input_enforced(self):
        with pytest.raises(ValueError):
            analyze(n=17, ab=(2, 1))
        with pytest.raises(ValueError):
            analyze()

    def test_seed_recorded_is_the_factoring_seed(self):
        assert analyze(ab=(2, 1), skip_heights=True, effort=FactorEffort(seed=7)).seed == 7

    def test_budget_that_factors_2n_suffices(self):
        # 2n factors within 5000 rho iterations and n is never factored on
        # its own, so the small budget gives the default-effort certificate
        low = analyze(ab=(1, 10), skip_heights=True, effort=FactorEffort(rho_iterations=5000))
        assert low.n == 10399290953968403530629990401
        assert to_json_line(low) == to_json_line(analyze(ab=(1, 10), skip_heights=True))

    def test_reduced_parameters(self):
        cert = analyze(ab=(3, 1), skip_heights=True)
        assert cert.n == 2094447251857
        assert cert.quadruples[0].reduction == 2
        assert cert.descent_lower == 3
        assert any("reduced by common factor 2" in note for note in cert.notes)


class TestOnePass:
    @pytest.mark.parametrize("given", [{"ab": (2, 1)}, {"n": 635318657}], ids=["ab", "n"])
    def test_each_fact_computed_once(self, monkeypatch, given):
        def counting(real, log):
            def wrapper(*args, **kwargs):
                log.append(args[0] if real is factor else (args[1].x, args[1].y))
                return real(*args, **kwargs)

            return wrapper

        series, factored = [], []
        monkeypatch.setattr(
            heights_module, "_series_height", counting(heights_module._series_height, series)
        )
        # modules import factor by name, so patch every binding of it
        for name, mod in list(sys.modules.items()):
            if name.startswith("biquadrank") and getattr(mod, "factor", None) is factor:
                monkeypatch.setattr(mod, "factor", counting(factor, factored))

        cert = analyze(**given)
        # 4 points and 6 pairwise sums, each evaluated once; the Gram
        # diagonal is the points' heights, so no doubles are evaluated
        assert len(series) == len(set(series)) == 10
        # 2n once: the representations of an n, heights, both descent
        # images (n and the quartic class B*D) and the upper bound read its
        # primes; torsion and the coprime root number need no factoring
        assert factored == [2 * cert.n]


class TestBoundChain:
    def test_chain_holds_on_reference_inputs(self):
        for kwargs in (
            {"ab": (2, 1), "skip_heights": True},
            {"ab": (3, 2), "skip_heights": True},
            {"n": 17, "allow_single": True, "skip_heights": True},
        ):
            cert = analyze(**kwargs)
            assert cert.unconditional_lower <= cert.conditional_lower <= cert.heuristic_upper

    def test_conditional_parity_matches_omega(self):
        cert = analyze(ab=(2, 1), skip_heights=True)
        assert cert.conditional_lower % 2 == (0 if cert.root.omega == 1 else 1)


class TestSerialization:
    def test_round_trip_preserves_everything_checked(self):
        line = to_json_line(CERT21)
        back = parse_certificate(line)
        assert back.n == CERT21.n
        assert back.quadruples == CERT21.quadruples
        assert back.phi == CERT21.phi
        assert back.psi == CERT21.psi
        assert back.points == CERT21.points
        assert back.heights == CERT21.heights
        assert back.root == CERT21.root
        assert back.notes == CERT21.notes
        assert reverify(back)
        # timings stay off the wire and out of equality
        assert back == CERT21

    def test_serialization_is_deterministic(self):
        assert to_json_line(CERT21) == to_json_line(parse_certificate(to_json_line(CERT21)))

    def test_integers_stored_as_decimal_strings(self):
        record = certificate_record(CERT21)
        assert record["n"] == "635318657"
        assert record["quadruples"][0]["p"] == "158"
        assert record["phi"]["primes"] == ["2", "41", "113", "241", "569"]
        assert [g["square_class"] for g in record["phi"]["generators"]] == [
            "-635318657", "-1", "635318657", "137129"
        ]

    def test_records_keep_evidence_only(self):
        record = certificate_record(CERT21)
        assert set(record["quadruples"][0]) == {"p", "q", "r", "s", "reduction", "euler_params"}
        assert set(record["root"]) == {"square_part_product", "residue", "justification"}
        assert set(record["gram"]) == {"entries"}

    def test_images_list_only_generators(self):
        record = certificate_record(CERT21)
        assert set(record["phi"]) == {"side", "curve_b", "primes", "generators"}
        assert [g["kind"] for g in record["psi"]["generators"]] == ["coefficient", "torsor"]

    def test_timings_not_serialized(self):
        record = certificate_record(CERT21)
        assert "timings" not in record
        assert CERT21.timings  # measured, but volatile: kept off the wire

    def test_timings_default_is_empty_and_read_only(self):
        # built directly, as a parser or caller would, without timings
        fields = {f.name: getattr(CERT21, f.name) for f in dataclasses.fields(RankCertificate)}
        del fields["timings"]
        cert = RankCertificate(**fields)
        assert dict(cert.timings) == {}
        with pytest.raises(TypeError):
            cert.timings["resolve"] = 1.0

    def test_wrong_record_kind_rejected(self):
        with pytest.raises(CertificateInvalid):
            parse_certificate(json.dumps({"record": "something-else"}))


class TestTamperDetection:
    def tampered(self, mutate):
        d = json.loads(to_json_line(CERT21))
        mutate(d)
        return json.dumps(d)

    def test_tampered_witness_rejected_on_parse(self):
        def mutate(d):
            d["phi"]["generators"][1]["data"][-1] = "999"

        with pytest.raises(WitnessInvalid):
            parse_certificate(self.tampered(mutate))

    def test_repeated_generator_leaves_descent_lower(self):
        def mutate(d):
            d["phi"]["generators"].append(d["phi"]["generators"][3])

        cert = parse_certificate(self.tampered(mutate))
        assert reverify(cert) and cert.descent_lower == 3 and cert.phi.rank == 3

    def test_product_generator_leaves_descent_lower(self):
        # 2n = n * 2 on the dual: N^2 = 2n M^4 + 2 e^4 at (M, e) = (1, p + q)
        n, p, q = 635318657, 158, 59
        witness = ["1270637314", "2", "1", str(p + q), str(2 * (p * p + p * q + q * q))]

        def mutate(d):
            d["psi"]["generators"].append({"square_class": "1270637314", "kind": "torsor", "data": witness})

        cert = parse_certificate(self.tampered(mutate))
        assert 2 * n == 1270637314 and len(cert.psi.generators) == 3
        assert reverify(cert) and cert.descent_lower == 3 and cert.psi.rank == 2

    def test_class_with_a_prime_outside_primes_caught(self):
        # -9n is in the class of -n, so the witness holds, but 3 does not divide 2n
        def mutate(d):
            d["phi"]["generators"][0]["square_class"] = str(-9 * 635318657)

        with pytest.raises(CertificateInvalid, match="not a squarefree class"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize(
        "primes",
        [["2", "113", "241", "569"], ["2", "41", "113", "241", "569", "4633"], ["2", "4633", "241", "569"]],
        ids=["prime-dropped", "composite-inserted", "composite-for-two-primes"],
    )
    def test_wrong_primes_caught(self, primes):
        def mutate(d):
            d["phi"]["primes"] = primes

        with pytest.raises(CertificateInvalid):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_other_tool_version_caught_on_parse(self):
        def mutate(d):
            d["tool_version"] = "0.2.0"

        with pytest.raises(CertificateInvalid, match="tool_version"):
            parse_certificate(self.tampered(mutate))

    def test_inflated_descent_bound_caught(self):
        def mutate(d):
            d["descent_lower"] = "5"
            d["unconditional_lower"] = "5"

        with pytest.raises(CertificateInvalid, match="descent_lower does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_flipped_square_part_caught(self):
        # a self-consistent root number that n's factorization contradicts;
        # the conditional bound rebuilt from the true root is the first
        # derived field that disagrees with the forged one
        def mutate(d):
            d["root"].update(square_part_product="-1", justification="factored")
            lower = parity_adjusted_bound(int(d["unconditional_lower"]), -CERT21.root.omega)
            d["conditional_lower"] = str(lower)

        with pytest.raises(CertificateInvalid, match="conditional_lower does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_moved_point_caught(self):
        def mutate(d):
            d["points"][0]["x"] = "-1"

        with pytest.raises(CertificateInvalid):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_wrong_euler_params_caught(self):
        def mutate(d):
            d["quadruples"][0]["euler_params"] = ["3", "1"]

        with pytest.raises(CertificateInvalid, match="do not regenerate the quadruple"):
            parse_certificate(self.tampered(mutate))

    def test_zero_base_caught(self):
        def mutate(d):
            d["quadruples"][0].update(p="0", q="1", r="1", s="0", euler_params=None)

        with pytest.raises(CertificateInvalid, match="is zero"):
            parse_certificate(self.tampered(mutate))

    def test_wrong_torsion_caught(self):
        def mutate(d):
            d["torsion"] = "Z/4Z"

        with pytest.raises(CertificateInvalid):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_inflated_heuristic_upper_caught(self):
        def mutate(d):
            d["heuristic_upper"] = "99"

        with pytest.raises(CertificateInvalid, match="heuristic_upper does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_inflated_independence_caught(self):
        # 6 independent points claimed from 4, every bound raised to match
        def mutate(d):
            d["independence"] = "6"
            d["unconditional_lower"] = "6"
            d["conditional_lower"] = str(parity_adjusted_bound(6, CERT21.root.omega))

        with pytest.raises(CertificateInvalid, match="independence does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_independence_without_gram_caught(self):
        cert = analyze(ab=(2, 1), skip_heights=True)
        tampered = dataclasses.replace(
            cert,
            independence=4,
            unconditional_lower=4,
            conditional_lower=parity_adjusted_bound(4, cert.root),
        )
        with pytest.raises(CertificateInvalid, match="without a Gram matrix"):
            reverify(tampered)

    def test_wrong_reduction_caught(self):
        def mutate(d):
            d["quadruples"][0]["reduction"] = "7"

        with pytest.raises(CertificateInvalid, match="reduction 7 is not the parametrized gcd 1"):
            parse_certificate(self.tampered(mutate))

    def test_reduction_without_params_caught(self):
        def mutate(d):
            d["quadruples"][0]["euler_params"] = None
            d["quadruples"][0]["reduction"] = "3"

        with pytest.raises(CertificateInvalid, match="reduction 3 recorded without euler parameters"):
            parse_certificate(self.tampered(mutate))

    def test_zero_euler_param_caught(self):
        def mutate(d):
            d["quadruples"][0]["euler_params"] = ["0", "1"]

        with pytest.raises(CertificateInvalid, match="parameters must be nonzero"):
            parse_certificate(self.tampered(mutate))

    def test_broken_identity_caught_on_parse(self):
        def mutate(d):
            d["quadruples"][0]["s"] = "132"

        with pytest.raises(CertificateInvalid, match="!="):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("n", [0, -635318657])
    def test_nonpositive_n_caught(self, n):
        def mutate(d):
            d["n"] = str(n)

        with pytest.raises(CertificateInvalid, match="not positive"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_n_divisible_by_four_caught(self):
        def mutate(d):
            d["n"] = str(16 * 635318657)

        with pytest.raises(CertificateInvalid, match="divisible by 4"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_missing_field_caught_on_parse(self):
        def mutate(d):
            del d["tol"]

        with pytest.raises(CertificateInvalid, match="tol"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("mutate", [
        lambda d: d["points"][0].update(x="1/0"),
        lambda d: d["phi"]["generators"].append(
            {"square_class": "-1", "kind": "point", "data": ["1", "0", "1", "1"]}),
        lambda d: d["quadruples"][0].update(euler_params=["2"]),
        lambda d: d.update(precision="abc"),
        lambda d: d["heights"][0].update(value="10.47878552440583"),
        lambda d: d["root"].update(justification=1),
        lambda d: d.update(seed=5),
        lambda d: d.update(n=None),
        lambda d: d.update(precision=math.inf),
        lambda d: d["points"][0].update(y=None),
    ], ids=["zero-denominator-point", "zero-denominator-witness", "short-euler-params",
            "string-precision", "string-height", "numeric-justification", "numeric-seed", "null-n",
            "infinite-precision", "point-without-y"])
    def test_malformed_field_caught_on_parse(self, mutate):
        with pytest.raises(CertificateInvalid, match="malformed"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("mutate", [
        lambda d: d["heights"][0].update(value=math.nan),
        lambda d: d["gram"]["entries"][0].__setitem__(1, math.nan),
    ], ids=["height", "gram-entry"])
    def test_nan_caught_on_parse(self, mutate):
        with pytest.raises(CertificateInvalid, match="malformed"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("changes", [{"precision": math.inf}, {"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0}])
    def test_precision_and_tol_must_be_finite_and_positive(self, changes):
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(CERT21, **changes)

    def test_unknown_field_caught_on_parse(self):
        def mutate(d):
            d["root_number"] = d["root"]  # the key written before 0.3.0

        with pytest.raises(CertificateInvalid, match=r"unknown RankCertificate fields \['root_number'\]"):
            parse_certificate(self.tampered(mutate))

    def test_empty_quadruple_list_caught(self):
        def mutate(d):
            d["quadruples"] = []

        with pytest.raises(CertificateInvalid, match="no quadruple"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_scaled_heights_caught(self):
        # a self-consistent Gram matrix that the points contradict
        def mutate(d):
            for h in d["heights"]:
                h["value"] *= 10
            entries = [[10 * v for v in row] for row in d["gram"]["entries"]]
            d["gram"]["entries"] = entries

        with pytest.raises(CertificateInvalid, match="height"):
            reverify(parse_certificate(self.tampered(mutate)))


class TestRendering:
    def test_csv_row(self):
        assert CSV_HEADER == "p,q,n,unconditional_lower,conditional_lower,omega"
        assert csv_row(CERT21) == "158,59,635318657,4,4,+1"

    def test_csv_omega_sign_rendering(self):
        cert = analyze(pqrs=(7, 239, 157, 227), skip_heights=True)
        row = csv_row(cert)
        assert row.endswith(",-1")
        assert row.startswith("7,239,3262811042,")

    def test_render_table_mentions_key_facts(self):
        text = render_table(CERT21)
        assert "n = 635318657" in text
        assert "158^4 + 59^4 = 134^4 + 133^4" in text
        assert "rank >= 4 unconditionally" in text
        assert "omega = +1" in text
        assert "heuristic upper bound: 9" in text
        assert "phi image of order 8, generators [-635318657, -1, 635318657, 137129]" in text
        assert "psi image of order 4, generators [635318657, 2]" in text

"""End-to-end certificates: analysis, serialization round-trips, audits."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from biquadrank.arith import FactorEffort, factor
from biquadrank.curve import Point, curve_from_n
from biquadrank.heights import GramMatrix, HeightValue, Heights
from biquadrank import biquadrate, certificate
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
    def test_each_fact_computed_once(self, factor_calls, series_calls, given):
        cert = analyze(**given)
        # 4 points and 6 pairwise sums, each evaluated once; the Gram
        # diagonal is the points' heights, so no doubles are evaluated
        assert len(series_calls) == len(set(series_calls)) == 10
        # 2n once: the representations of an n, heights, both descent
        # images (n and the quartic class B*D) and the upper bound read its
        # primes; torsion and the coprime root number need no factoring
        assert factor_calls == [2 * cert.n]

    def test_one_factorization_without_a_coprime_pair(self, factor_calls):
        # 3 * (59, 158, 133, 134): no coprime pair vouches for the root
        # number, so its square part is read from the factorization of 2n
        cert = analyze(pqrs=(177, 474, 399, 402), skip_heights=True)
        assert factor_calls == [2 * cert.n] == [2 * 81 * 635318657]
        assert (cert.root.square_part_product, cert.root.justification) == (1, "squarefree")
        bounds = (cert.descent_lower, cert.unconditional_lower, cert.conditional_lower, cert.heuristic_upper)
        assert bounds == (2, 2, 2, 11)
        factor_calls.clear()
        assert reverify(cert)
        assert factor_calls == []

    @pytest.mark.parametrize("given, raw", [({"ab": (2, 1)}, 3), ({"pqrs": (59, 158, 133, 134)}, 4)],
                             ids=["ab", "pqrs"])
    def test_quartic_factors_built_once(self, monkeypatch, given, raw):
        # factor_2n and phi_image read the quadruple's quartic factors; the
        # raw quadruple is built by euler_quadruple, checked by the
        # constructor and by quartic_factors; for pqrs the recovered
        # candidate builds it and checks it, and carries the reduction
        calls = []
        for name in ("quartic_factors", "euler_raw_quadruple"):
            real = getattr(biquadrate, name)
            for mod in (biquadrate, certificate):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        analyze(**given, skip_heights=True)
        assert (calls.count("quartic_factors"), calls.count("euler_raw_quadruple")) == (1, raw)

    @pytest.mark.parametrize("skip_heights", [False, True], ids=["heights", "no-heights"])
    @pytest.mark.parametrize("given", [
        {"ab": (2, 1)}, {"pqrs": (177, 474, 399, 402)}, {"n": 635318657}, {"n": 17, "allow_single": True},
    ], ids=["ab", "pqrs", "n", "single"])
    def test_reverify_never_factors(self, factor_calls, given, skip_heights):
        # the images list the primes of 2n; reverify checks them and
        # rebuilds the factorization from them
        line = to_json_line(analyze(**given, skip_heights=skip_heights))
        factor_calls.clear()
        assert reverify(parse_certificate(line))
        assert factor_calls == []


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
        assert [g["x"] for g in record["phi"]["generators"]] == [
            "0", "-24964", "635318657/24964", "137129"
        ]

    def test_records_keep_evidence_only(self):
        record = certificate_record(CERT21)
        assert set(record["quadruples"][0]) == {"p", "q", "r", "s", "reduction", "euler_params"}
        assert set(record["root"]) == {"square_part_product", "residue", "justification"}
        assert set(record["gram"]) == {"entries"}
        # heights are the Gram diagonal; the factoring budget is not evidence
        assert "heights" not in record and "seed" not in record

    def test_heights_are_the_gram_diagonal(self):
        E = curve_from_n(CERT21.n)
        H = Heights(E, CERT21.precision, factor(2 * CERT21.n).distinct_primes())
        assert CERT21.heights == tuple(H.height(P) for P in CERT21.points)
        assert [h.value for h in CERT21.heights] == [row[i] for i, row in enumerate(CERT21.gram.entries)]
        assert analyze(ab=(2, 1), skip_heights=True).heights == ()

    def test_torsion_point_height_is_exact(self):
        # (0, 0) has height 0 with error 0, as Heights.height gives it
        T = Point.affine(0, 0)
        gram = GramMatrix(((0.0, 0.0), (0.0, CERT21.gram.entries[0][0])))
        cert = dataclasses.replace(CERT21, points=(T, CERT21.points[0]), gram=gram)
        assert cert.heights == (HeightValue(0.0, 0.0), HeightValue(gram.entries[1][1], CERT21.precision))

    def test_images_list_only_generators(self):
        record = certificate_record(CERT21)
        assert set(record["phi"]) == {"side", "curve_b", "primes", "generators"}
        # a generator is a point; its class is derived, never stored
        assert all(set(g) == {"x", "y"} for side in ("phi", "psi") for g in record[side]["generators"])

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
            d["phi"]["generators"][1]["y"] = "999"

        with pytest.raises(CertificateInvalid, match=r"OffCurve: generator Point\(-24964, 999\) is not an affine point"):
            parse_certificate(self.tampered(mutate))

    def test_repeated_generator_leaves_descent_lower(self):
        def mutate(d):
            d["phi"]["generators"].append(d["phi"]["generators"][3])

        cert = parse_certificate(self.tampered(mutate))
        assert reverify(cert) and cert.descent_lower == 3 and cert.phi.rank == 3

    def test_product_generator_leaves_descent_lower(self):
        # 2n = n * 2 on the dual: N^2 = 2n M^4 + 2 e^4 at (M, e) = (1, p + q)
        # is the point (2n / (p + q)^2, 2n N / (p + q)^3)
        n, p, q = 635318657, 158, 59
        s, nn = p + q, 2 * (p * p + p * q + q * q)
        point = {"x": str(Fraction(2 * n, s**2)), "y": str(Fraction(2 * n * nn, s**3))}

        def mutate(d):
            d["psi"]["generators"].append(point)

        cert = parse_certificate(self.tampered(mutate))
        assert cert.psi.classes[-1] == 2 * n == 1270637314 and len(cert.psi.generators) == 3
        assert reverify(cert) and cert.descent_lower == 3 and cert.psi.rank == 2

    @pytest.mark.parametrize("primes, message", [
        (["2", "113", "241", "569"], "has a prime of odd exponent outside"),
        (["2", "41", "113", "241", "569", "4633"], "listed 4633 is not a prime of 2n"),
        (["2", "4633", "241", "569"], "listed 4633 is not a prime of 2n"),
        (["1", "2", "41", "113", "241", "569"], "valuation at 1 of"),
        (["2", "41", "41", "113", "241", "569"], "does not multiply back"),
        (["2", "3", "41", "113", "241", "569"], "listed 3 is not a prime of 2n"),
        (["2", "113", "41", "241", "569"], "must be sorted"),
    ], ids=["prime-dropped", "composite-inserted", "composite-for-two-primes", "one-listed",
            "prime-repeated", "prime-not-dividing-2n", "unsorted"])
    def test_wrong_primes_caught(self, primes, message):
        # both images list the same wrong primes, so each reaches its own check
        def mutate(d):
            d["phi"]["primes"] = d["psi"]["primes"] = primes

        with pytest.raises(CertificateInvalid, match=message):
            reverify(parse_certificate(self.tampered(mutate)))

    @pytest.mark.parametrize("side", ["phi", "psi"])
    def test_images_with_different_primes_caught(self, side):
        def mutate(d):
            d[side]["primes"] = ["2", "3", "41", "113", "241", "569"]

        with pytest.raises(CertificateInvalid, match="different primes"):
            reverify(parse_certificate(self.tampered(mutate)))

    def test_other_tool_version_caught_on_parse(self):
        def mutate(d):
            d["tool_version"] = "0.2.0"

        with pytest.raises(CertificateInvalid, match="tool_version"):
            parse_certificate(self.tampered(mutate))

    def test_0_4_0_line_caught_on_parse(self):
        # 0.4.0 also stored the heights and the factoring seed
        def mutate(d):
            d.update(tool_version="0.4.0", seed="24301",
                     heights=[{"error_bound": 1e-08, "value": row[i]} for i, row in enumerate(d["gram"]["entries"])])

        with pytest.raises(CertificateInvalid, match="tool_version '0.4.0'"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("name, value", [
        ("seed", "24301"),
        ("heights", [{"error_bound": 1e-08, "value": 10.47878552440583}]),
    ], ids=["seed", "heights"])
    def test_fields_that_are_not_evidence_caught_on_parse(self, name, value):
        with pytest.raises(CertificateInvalid, match=rf"unknown RankCertificate fields \['{name}'\]"):
            parse_certificate(self.tampered(lambda d: d.update({name: value})))

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
        lambda d: d["phi"]["generators"].append({"x": "1/0", "y": "1"}),
        lambda d: d["quadruples"][0].update(euler_params=["2"]),
        lambda d: d.update(precision="abc"),
        lambda d: d["gram"]["entries"][0].__setitem__(0, "10.47878552440583"),
        lambda d: d["root"].update(justification=1),
        lambda d: d.update(seed=5),
        lambda d: d.update(n=None),
        lambda d: d.update(precision=math.inf),
        lambda d: d["points"][0].update(y=None),
        lambda d: d["gram"]["entries"][2].__setitem__(2, -1.0),
    ], ids=["zero-denominator-point", "zero-denominator-witness", "short-euler-params",
            "string-precision", "string-height", "numeric-justification", "numeric-seed", "null-n",
            "infinite-precision", "point-without-y", "negative-height"])
    def test_malformed_field_caught_on_parse(self, mutate):
        with pytest.raises(CertificateInvalid, match="malformed"):
            parse_certificate(self.tampered(mutate))

    @pytest.mark.parametrize("mutate", [
        lambda d: d["gram"]["entries"][0].__setitem__(0, math.nan),
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
        # a self-consistent Gram matrix that the points contradict; its
        # first entry is the first point's height
        def mutate(d):
            d["gram"]["entries"] = [[10 * v for v in row] for row in d["gram"]["entries"]]

        with pytest.raises(CertificateInvalid, match=r"gram entry \(0, 0\) does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    @pytest.mark.parametrize("i, j, delta", [(1, 1, 2.5e-8), (0, 1, 3.5e-8)], ids=["diagonal", "pairing"])
    def test_gram_entry_just_outside_its_bound_caught(self, i, j, delta):
        # a height within 2 * precision of the recomputed one passes, and a
        # pairing within 3 * precision; one step beyond either fails
        def mutate(d):
            d["gram"]["entries"][i][j] += delta
            d["gram"]["entries"][j][i] = d["gram"]["entries"][i][j]

        with pytest.raises(CertificateInvalid, match=rf"gram entry \({i}, {j}\) does not match"):
            reverify(parse_certificate(self.tampered(mutate)))

    @pytest.mark.parametrize("i, j, delta", [(1, 1, 1.5e-8), (0, 1, 2.5e-8)], ids=["diagonal", "pairing"])
    def test_gram_entry_inside_its_bound_passes(self, i, j, delta):
        def mutate(d):
            d["gram"]["entries"][i][j] += delta
            d["gram"]["entries"][j][i] = d["gram"]["entries"][i][j]

        assert reverify(parse_certificate(self.tampered(mutate)))


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

"""CLI behavior: subcommands, formats, exit codes, output targets.

Everything drives main(argv) in-process; argparse-level usage errors
surface as SystemExit(64) and handler-level errors as return codes.
"""

import argparse
import copy
import json
import math
import re
import sys
from pathlib import Path

import pytest

from biquadrank import heights
from biquadrank.arith import EffortExceeded, factor, is_probable_prime
from biquadrank.biquadrate import MAX_SEARCH_BASE
from biquadrank.certificate import parse_certificate, reverify
from biquadrank.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NO_REPRESENTATION,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    main,
)
from biquadrank.reference import load_reference

SEARCH_LINE = "59^4 + 158^4 = 133^4 + 134^4 = 635318657"
REFERENCE = load_reference()
# fixture files with the wrong structure, or a record that is malformed
BAD_FIXTURES = {
    "fixtures-no-determinants": {"tables": []},
    "fixtures-row-p-not-an-integer": {**REFERENCE, "tables": [{**REFERENCE["tables"][0], "p": "59.5"}]},
    "fixtures-row-p-infinite": {**REFERENCE, "tables": [{**REFERENCE["tables"][0], "p": math.inf}]},
    "fixtures-zero-determinant": {**REFERENCE, "determinants": [{**REFERENCE["determinants"][0], "value": "0"}]},
    "fixtures-zero-denominator": {**REFERENCE, "exact_square": {**REFERENCE["exact_square"], "v": "0"}},
    "fixtures-zero-erratum-parameter": {**REFERENCE, "erratum": {**REFERENCE["erratum"], "params": ["0", "1"]}},
}
# integers that int() would truncate, read as 1, read as 1000 or parse in base 16
NOT_DECIMAL = {"59.7": 59.7, "true": True, "1e3": 1e3, "0x10": "0x10"}
BAD_FIXTURES.update({f"fixtures-row-p-{k}": {**REFERENCE, "tables": [{**REFERENCE["tables"][0], "p": v}]}
                     for k, v in NOT_DECIMAL.items()})
BAD_INPUTS = {f"input-p-{k}": {"record": "quadruple", "p": v, "q": 158, "r": 133, "s": 134}
              for k, v in NOT_DECIMAL.items()}


@pytest.fixture
def cancellation_cap_of_one(monkeypatch):
    """Lower the resultant cap of every p-adic step to 1: the constructed
    points of (2, 1) cancel 2 digits at p = 2 in their first step."""
    step = heights._padic_step
    monkeypatch.setattr(heights, "_padic_step", lambda p, A, u, w, M, cap: step(p, A, u, w, M, 1))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flag_table_matches_the_parser():
    # each row of the README's subcommand table lists the flags its parser
    # defines, in order, with the choices of each flag that has them
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M))
    (subs,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert rows.keys() == subs.choices.keys()
    for name, sub in subs.choices.items():
        defined = [(opt, ",".join(a.choices or ())) for a in sub._actions if a.dest != "help"
                   for opt in a.option_strings]
        assert re.findall(r"(--[a-z-]+)(?: \{([^}]*)\})?", rows[name]) == defined, name


class TestUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "biquadrank" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["search"])
        assert exc.value.code == EXIT_USAGE

    def test_mutually_exclusive_inputs(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--n", "17", "--ab", "2", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_format_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-base", "200", "--format", "yaml"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["search", "--max-base", "200", "--seed", "1"],
        ["search", "--max-base", "200", "--factor-effort", "5"],
        ["search", "--max-base", "200", "--cache", "c.jsonl"],
        ["report", "--max-base", "200", "--cache", "c.jsonl"],
        ["analyze", "--ab", "2", "1", "--cache", "c.jsonl"],
        ["verify-paper", "--seed", "1"],
        ["verify-paper", "--factor-effort", "5"],
        ["verify-paper", "--cache", "c.jsonl"],
        ["verify-paper", "--format", "csv"],
        ["analyze", "--n", "635318657", "--max-base", "100"],
        ["analyze", "--ab", "2", "1", "--seed", "1"],
        ["report", "--max-base", "200", "--seed", "1"],
        # deleted flags: independence takes its margin from --precision, and
        # the search its windows from the CPU count
        ["analyze", "--n", "17", "--allow-single", "--tol", "-1"],
        ["analyze", "--ab", "2", "1", "--tol", "inf", "--skip-heights"],
        ["search", "--max-base", "200", "--shards", "0"],
        ["report", "--max-base", "200", "--tol", "0.001"],
        ["report", "--max-base", "200", "--shards", "4"],
        # the claim suite runs at one precision
        ["verify-paper", "--precision", "-1"],
    ])
    def test_flags_a_subcommand_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["analyze", "--ab", "2", "1", "--precision", "0"],
        ["analyze", "--ab", "2", "1", "--precision", "-1", "--skip-heights"],
        ["report", "--max-base", "200", "--precision", "0"],
        ["analyze", "--ab", "2", "1", "--factor-effort", "-1"],
        ["analyze", "--ab", "2", "1", "--precision", "inf"],
        ["report", "--max-base", "200", "--factor-effort", "-1"],
        ["analyze", "--ab", "0", "1"],
        ["analyze", "--ab", "2", "0"],
        ["analyze", "--pqrs", "0", "1", "1", "0", "--skip-heights"],
        ["analyze", "--pqrs", "3", "0", "0", "3"],
    ])
    def test_nonpositive_precision_tol_and_shards(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--ab", "2", "1", "--precision", "1e-40"],
        ["report", "--max-base", "200", "--precision", "1e-40"],
    ])
    def test_unreachable_precision(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "precision unreachable" in err


class TestSearch:
    def test_table_output(self, capsys):
        rc, out, _ = run(capsys, "search", "--max-base", "200")
        assert rc == EXIT_OK
        assert out.strip() == SEARCH_LINE

    def test_json_lines_output(self, capsys):
        rc, out, _ = run(capsys, "search", "--max-base", "200", "--format", "json-lines")
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records == [
            {
                "record": "quadruple",
                "p": "59",
                "q": "158",
                "r": "133",
                "s": "134",
                "n": "635318657",
            }
        ]

    def test_csv_output(self, capsys):
        rc, out, _ = run(capsys, "search", "--max-base", "200", "--format", "csv")
        assert rc == EXIT_OK
        assert out.splitlines() == ["p,q,r,s,n", "59,158,133,134,635318657"]

    def test_empty_result_message(self, capsys):
        rc, out, _ = run(capsys, "search", "--max-base", "100")
        assert rc == EXIT_OK
        assert "no double representations with base <= 100" in out

    def test_max_base_too_small(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-base", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "--max-base" in capsys.readouterr().err

    def test_max_base_beyond_int64_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-base", str(MAX_SEARCH_BASE + 1)])
        assert exc.value.code == EXIT_USAGE
        assert "int64" in capsys.readouterr().err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "hits.txt"
        rc, out, _ = run(capsys, "search", "--max-base", "200", "--output", str(target))
        assert rc == EXIT_OK
        assert out == ""
        assert target.read_text().strip() == SEARCH_LINE

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "hits.txt"
        rc, _, err = run(capsys, "search", "--max-base", "200", "--output", str(target))
        assert rc == EXIT_IO
        assert "I/O error" in err


class TestAnalyze:
    def test_single_representation_exits_3(self, capsys):
        rc, _, err = run(capsys, "analyze", "--n", "17")
        assert rc == EXIT_NO_REPRESENTATION
        assert "single representation" in err
        for n in ("0", "-4", "-5"):  # no representation at all, and no traceback
            rc, _, err = run(capsys, "analyze", "--n", n)
            assert rc == EXIT_NO_REPRESENTATION
            assert err == f"biquadrank analyze: n = {n} is not a sum of two positive fourth powers\n"

    @pytest.mark.parametrize("given", [["--pqrs", "1", "2", "2", "1"], ["--pqrs", "1", "2", "1", "2"],
                                       ["--ab", "1", "1"]], ids="-".join)
    def test_degenerate_quadruple_exits_3(self, capsys, given):
        rc, out, err = run(capsys, "analyze", *given)
        assert (rc, out) == (EXIT_NO_REPRESENTATION, "")
        assert err == ("biquadrank analyze: 17 has a single representation (1, 2); "
                       "pass allow_single to analyze it anyway\n")
        rc, out, _ = run(capsys, "analyze", *given, "--allow-single", "--skip-heights")
        assert rc == EXIT_OK and "(single)" in out

    def test_allow_single_emits_certificate(self, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--n", "17", "--allow-single", "--skip-heights",
            "--format", "json-lines",
        )
        assert rc == EXIT_OK
        cert = parse_certificate(out.strip())
        assert cert.n == 17
        assert (cert.unconditional_lower, cert.conditional_lower, cert.heuristic_upper) == (2, 2, 3)
        assert reverify(cert)

    def test_csv_certificate(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--ab", "2", "1", "--format", "csv")
        assert rc == EXIT_OK
        assert out.splitlines() == [
            "p,q,n,unconditional_lower,conditional_lower,omega",
            "158,59,635318657,4,4,+1",
        ]

    def test_table_certificate(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--ab", "2", "1")
        assert rc == EXIT_OK
        assert "n = 635318657" in out
        assert "rank >= 4 unconditionally" in out

    def test_not_a_double_representation(self, capsys):
        rc, _, err = run(capsys, "analyze", "--pqrs", "1", "2", "3", "4")
        assert rc == EXIT_USAGE
        assert "not a double representation" in err

    def test_multiple_of_four_out_of_domain(self, capsys):
        rc, _, err = run(capsys, "analyze", "--n", str(16 * 635318657))
        assert rc == EXIT_USAGE
        assert "divisible by 4" in err

    @pytest.mark.parametrize("precision", ["1e77", "1e300"])
    def test_precision_beyond_the_floats_certifies_nothing(self, capsys, precision):
        # the determinant margin overflows a float, so no subset clears it
        rc, out, err = run(capsys, "analyze", "--ab", "2", "1", "--precision", precision)
        assert (rc, err) == (EXIT_OK, "")
        assert "independent points certified: 0" in out
        rc, out, err = run(capsys, "report", "--max-base", "200", "--precision", precision, "--format", "csv")
        assert (rc, err) == (EXIT_OK, "")
        assert out.splitlines()[1] == "59,158,635318657,3,4,+1"

    def test_factoring_budget_exhaustion(self, capsys):
        # the quartic factors of (43, 50) leave a composite piece of 2n
        # that only rho splits
        rc, out, err = run(
            capsys,
            "analyze", "--ab", "43", "50", "--skip-heights", "--factor-effort", "0",
        )
        assert rc == EXIT_BUDGET
        partial = json.loads(out.strip())
        assert partial["record"] == "partial-certificate"
        assert partial["value"] == str(2 * 17695434600206896737638013662285390857656040411601)
        assert int(partial["residual"]) > 1
        assert "budget" in err

    def test_budget_exhaustion_reports_the_proven_primes(self, capsys):
        # pieces still waiting for rho that are prime go to known_factors;
        # the residual is the one composite piece
        _, out, _ = run(capsys, "analyze", "--ab", "43", "50", "--skip-heights", "--factor-effort", "0")
        partial = json.loads(out.strip())
        known = {int(p) for p, _ in partial["known_factors"]}
        assert {37403801, 2205613393, 632683531657} <= known
        assert partial["residual"] == "29383194027601"
        assert not is_probable_prime(29383194027601)
        value = math.prod(int(p) ** e for p, e in partial["known_factors"]) * int(partial["residual"])
        assert value == int(partial["value"])

    def test_quartic_factors_split_2n_without_rho(self, capsys):
        # 2n at (2, 9) factors by trial division and gcds against A, B, C, D
        argv = ("analyze", "--ab", "2", "9", "--skip-heights", "--format", "json-lines")
        rc, out, _ = run(capsys, *argv, "--factor-effort", "0")
        assert rc == EXIT_OK
        assert out == run(capsys, *argv)[1]

    def test_budget_that_factors_2n_suffices(self, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--ab", "1", "10", "--skip-heights", "--factor-effort", "5000",
            "--format", "json-lines",
        )
        assert rc == EXIT_OK
        cert = parse_certificate(out.strip())
        assert cert.n == 10399290953968403530629990401
        assert reverify(cert)

    def test_budget_succeeds_with_default_effort(self, capsys):
        rc, out, _ = run(
            capsys,
            "analyze", "--ab", "2", "9", "--skip-heights", "--format", "csv",
        )
        assert rc == EXIT_OK
        assert out.splitlines()[1].split(",")[2] == "627101168819629457861354977"


@pytest.mark.parametrize("argv", [("analyze", "--ab", "2", "1"), ("verify-paper",)], ids=str)
def test_tracker_cap_failure_is_a_verification_failure(capsys, cancellation_cap_of_one, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == EXIT_VERIFY
    assert err.count("\n") == 1 and "above resultant cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, message", [
    (["analyze", "--ab", "2", "1", "--precision", "1e-308"], EXIT_USAGE, "precision unreachable"),
    (["analyze", "--ab", "2", "1", "--precision", "5e-324"], EXIT_USAGE, "precision unreachable"),
    (["report", "--max-base", "200", "--precision", "1e-308"], EXIT_USAGE, "precision unreachable"),
    *((["verify-paper", "--fixtures", bad], EXIT_IO, "cannot read fixtures") for bad in BAD_FIXTURES.values()),
    *((["report", "--skip-heights", "--input", bad], EXIT_IO, "cannot read input") for bad in BAD_INPUTS.values()),
    (["analyze", "--pqrs", "1", "2", "3", "4"], EXIT_USAGE, "not a double representation"),
    (["analyze", "--n", str(16 * 635318657)], EXIT_USAGE, "divisible by 4"),
    (["analyze", "--ab", "43", "50", "--skip-heights", "--factor-effort", "0"], EXIT_BUDGET, "budget exhausted"),
    (["analyze", "--n", "17"], EXIT_NO_REPRESENTATION, "single representation"),
], ids=["analyze-tiny-precision", "analyze-subnormal-precision", "report-tiny-precision", *BAD_FIXTURES,
        *BAD_INPUTS, "not-a-double-representation", "out-of-domain", "budget", "no-representation"])
def test_a_documented_failure_prints_one_line(capsys, tmp_path, argv, code, message):
    if isinstance(argv[-1], dict):  # a fixture file or a one-record input to write first
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(path)]
    rc, _, err = run(capsys, *argv)
    assert rc == code
    assert err.count("\n") == 1 and err.startswith(f"biquadrank {argv[0]}: ") and message in err
    assert "Traceback" not in err


class TestVerifyPaper:
    def test_all_claims_pass(self, capsys):
        rc, out, err = run(capsys, "verify-paper")
        assert rc == EXIT_OK
        assert "21/21 claims pass" in out
        assert out.count("PASS") == 21
        assert "FAIL" not in out
        assert err == ""

    def test_json_lines_format(self, capsys):
        rc, out, _ = run(capsys, "verify-paper", "--format", "json-lines")
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 21
        assert all(r["record"] == "claim" and r["passed"] for r in records)

    def test_factoring_budget_exhaustion(self, capsys, monkeypatch):
        def exhausted(n, *args, **kwargs):
            raise EffortExceeded(n, (), n)

        # modules import factor by name, so patch every binding of it
        for name, mod in list(sys.modules.items()):
            if name.startswith("biquadrank") and getattr(mod, "factor", None) is factor:
                monkeypatch.setattr(mod, "factor", exhausted)
        rc, _, err = run(capsys, "verify-paper")
        assert rc == EXIT_BUDGET
        assert err.count("\n") == 1 and "budget exhausted" in err
        assert "Traceback" not in err

    def test_missing_fixture_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify-paper", "--fixtures", str(tmp_path / "none.json"))
        assert rc == EXIT_IO
        assert "cannot read fixtures" in err

    def test_doctored_fixture_fails_verification(self, capsys, tmp_path):
        ref = copy.deepcopy(load_reference())
        ref["tables"][0]["rank"] = int(ref["tables"][0]["rank"]) + 1  # parity flip
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(ref))
        rc, out, err = run(capsys, "verify-paper", "--fixtures", str(path))
        assert rc == EXIT_VERIFY
        assert "FAIL" in out
        assert "FAILED" in err


class TestReport:
    def test_csv_rows_for_search_range(self, capsys):
        rc, out, _ = run(
            capsys, "report", "--max-base", "300", "--skip-heights", "--format", "csv"
        )
        assert rc == EXIT_OK
        assert out.splitlines() == [
            "p,q,n,unconditional_lower,conditional_lower,omega",
            "59,158,635318657,3,4,+1",
            "7,239,3262811042,2,3,-1",
            "193,292,8657437697,2,2,+1",
        ]

    def test_table_format_aligns_columns(self, capsys):
        rc, out, _ = run(capsys, "report", "--max-base", "300", "--skip-heights")
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["p", "q", "n", "uncond", "cond", "omega"]
        assert len({len(line) for line in lines}) == 1  # right-justified grid

    def test_input_file_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "hits.jsonl"
        rc, out, _ = run(
            capsys, "search", "--max-base", "200", "--format", "json-lines",
            "--output", str(src),
        )
        assert rc == EXIT_OK
        rc, out, _ = run(
            capsys, "report", "--input", str(src), "--skip-heights", "--format", "csv"
        )
        assert rc == EXIT_OK
        assert out.splitlines()[1] == "59,158,635318657,3,4,+1"
        # a saved sweep replaces a rerun of the search, byte for byte
        for fmt in ("table", "json-lines"):
            rc, replayed, _ = run(
                capsys, "report", "--input", str(src), "--skip-heights", "--format", fmt
            )
            assert rc == EXIT_OK
            rc, searched, _ = run(
                capsys, "report", "--max-base", "200", "--skip-heights", "--format", fmt
            )
            assert rc == EXIT_OK
            assert replayed == searched

    @pytest.mark.parametrize("value, message", [
        ("1", "int64"),
        (str(MAX_SEARCH_BASE + 1), "int64"),
        ("x", "invalid int value"),
    ])
    def test_max_base_checked_at_parse_time(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--max-base", value, "--skip-heights"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--max-base" in err and message in err

    def test_garbage_input_is_io_error(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text("{not json\n")
        rc, _, err = run(capsys, "report", "--input", str(src), "--skip-heights")
        assert rc == EXIT_IO
        assert "cannot read input" in err

    @pytest.mark.parametrize("pqrsn, code, message", [
        (("1", "2", "3", "4"), EXIT_USAGE, "not a double representation"),
        (("2", "4", "4", "2"), EXIT_USAGE, "divisible by 4"),
        (("59", "158", "133", "x"), EXIT_IO, "cannot read input"),
        (("59", "158", "133", "134", "12345"), EXIT_USAGE, "n = 12345 is not 59^4 + 158^4"),
        (("0", "1", "1", "0"), EXIT_USAGE, "a base of (0, 1, 1, 0) is zero"),
    ], ids=["unequal-sums", "multiple-of-four", "non-integer-field", "n-not-the-sum", "zero-base"])
    def test_bad_input_record_exits_with_one_line(self, capsys, tmp_path, pqrsn, code, message):
        src = tmp_path / "hits.jsonl"
        src.write_text(json.dumps({"record": "quadruple", **dict(zip("pqrsn", pqrsn))}) + "\n")
        rc, out, err = run(capsys, "report", "--input", str(src), "--skip-heights")
        assert rc == code
        assert out == ""
        assert err.count("\n") == 1 and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["certificate", "untagged-quadruple"])
    def test_a_line_that_is_not_a_quadruple_record_exits_with_one_line(self, capsys, tmp_path, kind):
        # a line of analyze's json-lines output, or one without "record", is not a hit to re-analyze
        if kind == "certificate":
            rc, line, _ = run(capsys, "analyze", "--ab", "2", "1", "--skip-heights", "--format", "json-lines")
            assert rc == EXIT_OK
        else:
            line = json.dumps(dict(zip("pqrsn", ("59", "158", "133", "134", "635318657")))) + "\n"
        src = tmp_path / "hits.jsonl"
        src.write_text(line)
        rc, out, err = run(capsys, "report", "--input", str(src), "--skip-heights")
        assert rc == EXIT_IO
        assert out == ""
        assert err == "biquadrank report: cannot read input: a line is not a quadruple record\n"

    @pytest.mark.parametrize("p", ["1e400", "Infinity"])
    def test_number_beyond_the_floats_exits_with_one_line(self, capsys, tmp_path, p):
        # JSON reads both as the float inf, which no int can hold
        src = tmp_path / "hits.jsonl"
        src.write_text(f'{{"record":"quadruple","p":{p},"q":158,"r":133,"s":134}}\n')
        rc, out, err = run(capsys, "report", "--input", str(src), "--skip-heights")
        assert rc == EXIT_IO
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("biquadrank report: cannot read input")
        assert "Traceback" not in err

    def test_heights_change_unconditional_bound(self, capsys):
        # with heights on, four independent points lift the bound to 4
        rc, out, _ = run(capsys, "report", "--max-base", "200", "--format", "csv")
        assert rc == EXIT_OK
        assert out.splitlines()[1] == "59,158,635318657,4,4,+1"

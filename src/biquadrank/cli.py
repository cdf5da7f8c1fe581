"""Command-line front end.

Subcommands: search (find double representations), analyze (emit a rank
certificate for one n), verify-paper (run the reference claim suite),
report (search + analyze each hit, table-style rows).

Exit codes: 0 ok, 1 verification failure, 2 I/O error, 3 no representation,
4 factoring budget exhausted, 64 usage (including unreachable precision).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._version import VERSION
from .arith import DEFAULT_EFFORT, EffortExceeded, FactorEffort
from .biquadrate import MAX_SEARCH_BASE, NotEqual, PropertyViolation, ZeroBase, search_double_representations
from .certificate import (
    CSV_HEADER,
    CertificateInvalid,
    NoRepresentation,
    analyze,
    csv_row,
    render_table,
    to_json_line,
)
from .heights import PrecisionUnreachable
from .parity import OutOfDomain
from .reference import load_reference, run_claims

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_NO_REPRESENTATION = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64


class Unreadable(Exception):
    """An input file is missing or malformed."""


# exception type -> (exit code, stderr line): main maps every failure of a
# subcommand through the most specific entry and prints exactly one line
FAILURES = {
    PrecisionUnreachable: (EXIT_USAGE, "error: precision unreachable: {}"),
    EffortExceeded: (EXIT_BUDGET, "error: {}"),
    PropertyViolation: (EXIT_VERIFY, "verification failure: {}"),
    CertificateInvalid: (EXIT_VERIFY, "verification failure: {}"),
    NoRepresentation: (EXIT_NO_REPRESENTATION, "{}"),
    NotEqual: (EXIT_USAGE, "not a double representation: {}"),
    ZeroBase: (EXIT_USAGE, "not a double representation: {}"),
    OutOfDomain: (EXIT_USAGE, "{}"),
    Unreadable: (EXIT_IO, "cannot read {}"),
    OSError: (EXIT_IO, "I/O error: {}"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(kind, zero_ok=False):
    def parse(text: str):
        value = kind(text)
        if not (value > 0 or zero_ok and value == 0) or value == math.inf:
            raise argparse.ArgumentTypeError(f"must be positive{' or zero' if zero_ok else ''} and finite, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _search_base(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_SEARCH_BASE:
        raise argparse.ArgumentTypeError(
            f"must be between 2 and {MAX_SEARCH_BASE} (larger bases overflow the int64 search)"
        )
    return value


def _nonzero(text: str) -> int:
    value = int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive or negative, got {text}")
    return value


_search_base.__name__ = _nonzero.__name__ = "int"  # argparse names the type in "invalid int value"

FORMATS = ["table", "json-lines", "csv"]
SHARDS_HELP = "least number of value windows; memory (about 16 MB a CPU) does not grow with it"


def _add_effort(sub: argparse.ArgumentParser):
    sub.add_argument("--factor-effort", type=_positive(int, zero_ok=True),
                     default=DEFAULT_EFFORT.rho_iterations, metavar="N",
                     help="squaring budget of p-1 and rho per factorization")


def build_parser() -> _Parser:
    parser = _Parser(prog="biquadrank", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_search = subs.add_parser("search", parents=[], help="find n = p^4+q^4 = r^4+s^4")
    p_search.add_argument("--max-base", type=_search_base, required=True)
    p_search.add_argument("--shards", type=_positive(int), default=1, help=SHARDS_HELP)
    p_search.add_argument("--output", metavar="PATH", default=None)
    p_search.add_argument("--format", choices=FORMATS, default="table")

    p_an = subs.add_parser("analyze", help="rank certificate for one n")
    group = p_an.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--pqrs", type=_nonzero, nargs=4, metavar=("P", "Q", "R", "S"))
    group.add_argument("--ab", type=_nonzero, nargs=2, metavar=("A", "B"))
    p_an.add_argument("--precision", type=_positive(float), default=1e-8)
    p_an.add_argument("--tol", type=_positive(float), default=1e-3)
    p_an.add_argument("--allow-single", action="store_true",
                      help="analyze n with a single representation instead of exiting 3")
    p_an.add_argument("--skip-heights", action="store_true")
    p_an.add_argument("--output", metavar="PATH", default=None)
    p_an.add_argument("--format", choices=FORMATS, default="table")
    _add_effort(p_an)

    p_ver = subs.add_parser("verify-paper", help="run the reference claim suite")
    p_ver.add_argument("--fixtures", metavar="PATH", default=None)
    p_ver.add_argument("--precision", type=_positive(float), default=1e-8)
    p_ver.add_argument("--format", choices=["table", "json-lines"], default="table")

    p_rep = subs.add_parser("report", help="search and summarize one row per hit")
    src = p_rep.add_mutually_exclusive_group(required=True)
    src.add_argument("--max-base", type=_search_base)
    src.add_argument("--input", metavar="PATH", help="json-lines search output to re-analyze")
    p_rep.add_argument("--shards", type=_positive(int), default=1, help=SHARDS_HELP)
    p_rep.add_argument("--precision", type=_positive(float), default=1e-8)
    p_rep.add_argument("--tol", type=_positive(float), default=1e-3)
    p_rep.add_argument("--skip-heights", action="store_true")
    p_rep.add_argument("--output", metavar="PATH", default=None)
    p_rep.add_argument("--format", choices=FORMATS, default="table")
    _add_effort(p_rep)

    return parser


def _emit(text: str, path: str | None) -> int:
    if text and not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _quad_line(q) -> str:
    return json.dumps(
        {
            "record": "quadruple",
            "p": str(q.p),
            "q": str(q.q),
            "r": str(q.r),
            "s": str(q.s),
            "n": str(q.n),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def cmd_search(args) -> int:
    quads = search_double_representations(args.max_base, args.shards)
    if args.format == "json-lines":
        text = "\n".join(_quad_line(q) for q in quads)
    elif args.format == "csv":
        rows = ["p,q,r,s,n"] + [f"{q.p},{q.q},{q.r},{q.s},{q.n}" for q in quads]
        text = "\n".join(rows)
    else:
        if quads:
            text = "\n".join(
                f"{q.p}^4 + {q.q}^4 = {q.r}^4 + {q.s}^4 = {q.n}" for q in quads
            )
        else:
            text = f"no double representations with base <= {args.max_base}"
    return _emit(text, args.output)


def _run_analysis(args, *, n=None, pqrs=None, ab=None):
    return analyze(
        n=n,
        pqrs=pqrs,
        ab=ab,
        precision=args.precision,
        tol=args.tol,
        effort=FactorEffort(rho_iterations=args.factor_effort),
        allow_single=getattr(args, "allow_single", False),
        skip_heights=args.skip_heights,
    )


def cmd_analyze(args) -> int:
    try:
        cert = _run_analysis(
            args,
            n=args.n,
            pqrs=tuple(args.pqrs) if args.pqrs else None,
            ab=tuple(args.ab) if args.ab else None,
        )
    except EffortExceeded as exc:
        partial = {
            "record": "partial-certificate",
            "reason": "factoring budget exhausted",
            "value": str(exc.value),
            "known_factors": [[str(p), e] for p, e in exc.partial],
            "residual": str(exc.residual),
        }
        print(json.dumps(partial, sort_keys=True, separators=(",", ":")))
        raise

    if args.format == "json-lines":
        text = to_json_line(cert)
    elif args.format == "csv":
        text = CSV_HEADER + "\n" + csv_row(cert)
    else:
        text = render_table(cert)
    return _emit(text, args.output)


def cmd_verify_paper(args) -> int:
    try:
        ref = load_reference(args.fixtures)
    except (OSError, ValueError) as exc:
        raise Unreadable(f"fixtures: {exc}") from exc
    claims = run_claims(ref, precision=args.precision)
    failures = [c for c in claims if not c.passed]
    if args.format == "json-lines":
        for c in claims:
            print(json.dumps(
                {"record": "claim", "name": c.name, "passed": c.passed, "detail": c.detail},
                sort_keys=True, separators=(",", ":"),
            ))
    else:
        for c in claims:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        print(f"{len(claims) - len(failures)}/{len(claims)} claims pass")
    if failures:
        for c in failures:
            print(f"biquadrank verify-paper: FAILED {c.name}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_report(args) -> int:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            inputs = [
                (tuple(int(rec[k]) for k in "pqrs"), int(rec["n"]) if "n" in rec else None)
                for rec in records
                if rec.get("record") == "quadruple"
            ]
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise Unreadable(f"input: {exc}") from exc
        for (p, q, _, _), n in inputs:
            if n is not None and n != p**4 + q**4:
                raise NotEqual(f"n = {n} is not {p}^4 + {q}^4")
        inputs = [pqrs for pqrs, _ in inputs]
    else:
        quads = search_double_representations(args.max_base, args.shards)
        inputs = [(q.p, q.q, q.r, q.s) for q in quads]

    certs = [_run_analysis(args, pqrs=pqrs) for pqrs in inputs]

    if args.format == "json-lines":
        text = "\n".join(to_json_line(c) for c in certs)
    elif args.format == "table":
        rows = [("p", "q", "n", "uncond", "cond", "omega")] + [
            tuple(csv_row(c).split(",")) for c in certs
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        text = "\n".join(
            "  ".join(val.rjust(widths[i]) for i, val in enumerate(row)) for row in rows
        )
    else:
        text = "\n".join([CSV_HEADER] + [csv_row(c) for c in certs])
    return _emit(text, args.output)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "search": cmd_search,
        "analyze": cmd_analyze,
        "verify-paper": cmd_verify_paper,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except tuple(FAILURES) as exc:
        code, line = next(FAILURES[kind] for kind in type(exc).__mro__ if kind in FAILURES)
        print(f"biquadrank {args.command}: " + line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

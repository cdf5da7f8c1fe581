"""Golden certificates: the wire form of a fixed set of inputs, byte for byte.

Any change to what a certificate records, or to how it is written, shows up
as a diff of tests/golden_certificates.jsonl.  After a deliberate change,
regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_certificates.jsonl
"""

import os
import sys

from biquadrank.certificate import analyze, parse_certificate, reverify, to_json_line

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_certificates.jsonl")

INPUTS = [
    *({"ab": ab, "skip_heights": skip} for ab in [(2, 1), (3, 1), (5, 3), (1, 11), (2, 9)] for skip in (False, True)),
    {"n": 635318657},
    {"pqrs": (177, 474, 399, 402), "skip_heights": True},
    {"n": 2, "allow_single": True},
]


def golden_text() -> str:
    return "".join(to_json_line(analyze(**given)) + "\n" for given in INPUTS)


def test_certificates_match_the_golden_file():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        recorded = fh.read()
    assert golden_text() == recorded


def test_golden_lines_reverify():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(INPUTS)
    assert all(reverify(parse_certificate(line)) for line in lines)


if __name__ == "__main__":
    sys.stdout.write(golden_text())

"""Desk-checkable regression claims against the published reference values:
the 17 table rows, the two height-matrix determinants, the exactness of the
record x-coordinate on y^2 = x^3 + 877x, and the corrected fourth-power
witness identity (the printed exponent fails; see witness_root_polynomial).

Each claim evaluates independently and reports pass/fail with a one-line
detail, so a third party can audit the whole list without reading code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .biquadrate import BiquadQuadruple, fourth_power_witness
from .curve import Point, curve_from_n
from .heights import gram_matrix
from .parity import root_number

PRECISION = 1e-8  # of the heights behind the determinant claims: analyze's default


@dataclass(frozen=True)
class Claim:
    name: str
    passed: bool
    detail: str


def load_reference(path: str | None = None) -> dict:
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    with resources.files("biquadrank.data").joinpath("reference.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def _table_claim(row: dict) -> Claim:
    p, q, n, rank = int(row["p"]), int(row["q"]), int(row["n"]), int(row["rank"])
    name = f"table-row n={n}"
    if p**4 + q**4 != n:
        return Claim(name, False, f"{p}^4 + {q}^4 != n")
    res = n % 16
    quad = BiquadQuadruple(p, q, p, q)
    w = root_number(n, quad=quad)
    if n % 2:
        ok = res == 1 and w.omega == 1 and rank % 2 == 0
        expect = "odd n: residue 1, omega +1, even listed rank"
    else:
        ok = res == 2 and w.omega == -1 and rank % 2 == 1
        expect = "even n: residue 2, omega -1, odd listed rank"
    detail = f"{p}^4+{q}^4 exact; n%16={res}, omega={w.omega:+d}, listed rank {rank} ({expect})"
    return Claim(name, ok, detail)


def _determinant_claim(spec: dict) -> Claim:
    n = int(spec["n"])
    pts = [Point(Fraction(x), Fraction(y)) for x, y in spec["points"]]
    target = float(spec["value"])
    rel_tol = float(spec["rel_tol"])
    E = curve_from_n(n)
    det = gram_matrix(E, pts, PRECISION).determinant
    rel = abs(det - target) / abs(target)
    return Claim(
        f"gram-determinant n={n}",
        rel <= rel_tol,
        f"computed {det:.8g} vs published {target} (rel err {rel:.2e}, tol {rel_tol:g})",
    )


def _exact_square_claim(spec: dict) -> Claim:
    c = int(spec["coefficient"])
    u, v = int(spec["u"]), int(spec["v"])
    x = Fraction(u, v) ** 2
    w = x**3 + c * x
    num, den = w.numerator, w.denominator
    from .arith import is_square

    ok = num > 0 and is_square(num) and is_square(den)
    detail = (
        f"x = (u/v)^2 with {len(str(u))}-digit u: x^3 + {c}x is "
        + ("an exact rational square" if ok else "NOT a rational square")
    )
    # the widely printed denominator drops one digit of v; record that the
    # defective value indeed fails, so the fixture can't silently regress
    printed = spec.get("v_printed")
    if printed is not None and ok:
        vp = int(printed)
        wrong = u**4 + c * vp**4
        from math import isqrt

        if isqrt(wrong) ** 2 == wrong:
            ok = False
            detail += "; printed denominator unexpectedly verifies"
        else:
            detail += f"; printed {len(printed)}-digit denominator fails (erratum)"
    return Claim(f"exact-square coefficient={c}", ok, detail)


def _erratum_claim(spec: dict) -> Claim:
    a, b = int(spec["params"][0]), int(spec["params"][1])
    printed = int(spec["printed_value"])
    corrected = int(spec["corrected_value"])
    k, nwit = fourth_power_witness(a, b)
    # the form in circulation reads a^3 where the identity needs a^2 b^4
    printed_poly = a**6 + b**2 * a**4 + 4 * b**4 * a**3 - 5 * b**6
    printed_k = a**4 * printed_poly**2
    ok = (
        k == corrected
        and nwit * nwit == k
        and printed_k == printed
        and printed_k != k
    )
    return Claim(
        f"fourth-power-witness erratum (a,b)=({a},{b})",
        ok,
        f"published form gives {printed_k} != {k} = K; corrected inner "
        f"polynomial a^6+a^4b^2+4a^2b^4-5b^6 yields K = N^2 with N = {nwit}",
    )


def run_claims(ref: dict | None = None) -> list[Claim]:
    """Evaluate every reference claim; order is stable."""
    if ref is None:
        ref = load_reference()
    claims: list[Claim] = []
    for row in ref["tables"]:
        claims.append(_table_claim(row))
    for spec in ref["determinants"]:
        claims.append(_determinant_claim(spec))
    claims.append(_exact_square_claim(ref["exact_square"]))
    claims.append(_erratum_claim(ref["erratum"]))
    return claims

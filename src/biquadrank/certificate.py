"""Rank certificates: everything one analysis establishes about E_n,
bundled with enough witness material to re-verify it offline.

A certificate records the double representation(s) of n, the constructed
points with their canonical heights and Gram matrix, the verified descent
images with witnesses, the root number with its justification, and three
bounds:

  unconditional_lower   max(descent count, Gram-certified independent points)
  conditional_lower     parity-adjusted (assumes the parity conjecture)
  heuristic_upper       2 * omega(2n) - 1, proven (Silverman, AEC X.6.2)

The chain unconditional <= conditional <= upper is enforced at build
time; a violation means a closure or factoring bug and aborts loudly.
Serialization is line-delimited JSON with decimal strings for all exact
integers; floats appear only for measured heights.  parse() rebuilds the
full object, re-running every witness check on the way in.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._version import VERSION
from .arith import DEFAULT_EFFORT, FactorEffort, factor, gcd_many
from .biquadrate import (
    BiquadQuadruple,
    PropertyViolation,
    euler_quadruple,
    recover_euler_params,
    representations,
    validate_double_representation,
)
from .curve import Curve, Point, curve_from_n, dual_curve, constructed_points, is_on_curve, torsion_shape
from .descent import DescentImage, Witness, phi_image, psi_image, rank_lower_bound, yoshida_upper_bound
from .heights import GramMatrix, HeightValue, Heights, Inconclusive, PrecisionUnreachable
from .parity import OutOfDomain, RootNumber, parity_adjusted_bound, root_number

TOOL_VERSION = VERSION


class NoRepresentation(ValueError):
    """n has no (or no usable) double representation within bounds."""


class CertificateInvalid(RuntimeError):
    """A parsed or stored certificate failed re-verification."""


@dataclass(frozen=True)
class RankCertificate:
    n: int
    quadruples: tuple[BiquadQuadruple, ...]
    torsion: str
    points: tuple[Point, ...]
    heights: tuple[HeightValue, ...]
    gram: GramMatrix | None
    independence: int | None
    phi: DescentImage
    psi: DescentImage
    descent_lower: int
    unconditional_lower: int
    conditional_lower: int
    heuristic_upper: int
    root: RootNumber
    tool_version: str
    seed: int
    precision: float
    tol: float
    notes: tuple[str, ...] = ()
    # volatile measurements: read-only, kept off the wire and out of ==
    timings: Mapping[str, float] = field(default_factory=lambda: MappingProxyType({}), compare=False)


def _dedupe_points(points) -> tuple[Point, ...]:
    seen = set()
    out = []
    for P in points:
        key = (P.x, P.y)
        if key not in seen:
            seen.add(key)
            out.append(P)
    return tuple(out)


def _resolve_quadruples(
    n: int | None,
    pqrs: tuple[int, int, int, int] | None,
    ab: tuple[int, int] | None,
    max_base: int | None,
    allow_single: bool,
    notes: list[str],
) -> tuple[tuple[BiquadQuadruple, ...], BiquadQuadruple]:
    given = sum(x is not None for x in (n, pqrs, ab))
    if given != 1:
        raise ValueError("exactly one of n, pqrs, ab must be given")

    if ab is not None:
        quad = euler_quadruple(*ab)
        if quad.reduction > 1:
            notes.append(f"parametrized quadruple reduced by common factor {quad.reduction}")
        return (quad,), quad

    if pqrs is not None:
        quad = validate_double_representation(*pqrs)
        params = recover_euler_params(quad)
        if params is not None:
            refit = euler_quadruple(*params)
            quad = replace(quad, euler_params=params, reduction=refit.reduction)
            notes.append(f"matched parametrization (a, b) = {params}")
        return (quad,), quad

    pairs = representations(n, max_base)
    combos = []
    from itertools import combinations

    for (p, q), (r, s) in combinations(pairs, 2):
        if gcd_many([p, q, r, s]) == 1:
            combos.append(
                BiquadQuadruple(p=p, q=q, r=r, s=s, n=n, primitive=True, degenerate=False)
            )
    if combos:
        primary = combos[0]
        params = recover_euler_params(primary)
        if params is not None:
            refit = euler_quadruple(*params)
            primary = replace(primary, euler_params=params, reduction=refit.reduction)
            combos[0] = primary
            notes.append(f"matched parametrization (a, b) = {params}")
        return tuple(combos), primary
    if len(pairs) >= 2:
        raise NoRepresentation(
            f"all double representations of {n} share a common factor; "
            "divide n by its fourth-power part and retry"
        )
    if len(pairs) == 1:
        if not allow_single:
            raise NoRepresentation(
                f"{n} has a single representation {pairs[0]} within bounds; "
                "pass allow_single to analyze it anyway"
            )
        p, q = pairs[0]
        quad = BiquadQuadruple(
            p=p, q=q, r=p, s=q, n=n, primitive=gcd_many([p, q]) == 1, degenerate=True
        )
        notes.append("single representation: two-point certificate only")
        return (quad,), quad
    raise NoRepresentation(f"no representation of {n} as p^4 + q^4 within bounds")


def analyze(
    *,
    n: int | None = None,
    pqrs: tuple[int, int, int, int] | None = None,
    ab: tuple[int, int] | None = None,
    precision: float = 1e-8,
    tol: float = 1e-3,
    effort: FactorEffort = DEFAULT_EFFORT,
    max_base: int | None = None,
    allow_single: bool = False,
    skip_heights: bool = False,
) -> RankCertificate:
    """Build and internally verify a rank certificate.

    Raises NoRepresentation when the input does not resolve to a double
    representation, OutOfDomain for n divisible by 4 (twist-normalize
    first), and PropertyViolation if the assembled bounds are inconsistent.
    """
    notes: list[str] = []
    timings: dict[str, float] = {}

    if n is not None and n % 4 == 0:
        raise OutOfDomain(
            f"n = {n} is divisible by 4; analyze the quartic twist n/16 instead"
        )
    t0 = time.perf_counter()
    quadruples, quad = _resolve_quadruples(n, pqrs, ab, max_base, allow_single, notes)
    n = quad.n
    if n % 4 == 0:
        raise OutOfDomain(
            f"n = {n} is divisible by 4; analyze the quartic twist n/16 instead"
        )
    timings["resolve"] = time.perf_counter() - t0

    E = curve_from_n(n)
    t0 = time.perf_counter()
    f2n = factor(2 * n, effort)
    torsion = str(torsion_shape(-n))
    timings["torsion"] = time.perf_counter() - t0

    points = _dedupe_points(constructed_points(quad))

    heights: tuple[HeightValue, ...] = ()
    gram: GramMatrix | None = None
    independence: int | None = None
    t0 = time.perf_counter()
    if not skip_heights:
        H = Heights(E, precision, f2n.distinct_primes())
        heights = tuple(H.height(P) for P in points)
        gram = H.gram(points)
        try:
            independence = gram.independence(tol)
        except Inconclusive:
            independence = None
            notes.append("independence inconclusive: determinants inside (0, tol]")
    else:
        notes.append("heights skipped by request")
    timings["heights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    phi = phi_image(E, quad, effort=effort)
    psi = psi_image(dual_curve(E), quad, effort=effort)
    descent_lower = rank_lower_bound(phi, psi)
    timings["descent"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    root = root_number(n, quad=quad, effort=effort)
    unconditional = max(descent_lower, independence or 0)
    conditional = parity_adjusted_bound(unconditional, root)
    upper = yoshida_upper_bound(n, f=f2n)
    timings["parity"] = time.perf_counter() - t0

    if not (unconditional <= conditional <= upper):
        raise PropertyViolation(
            f"bound chain violated for n = {n}: "
            f"{unconditional} <= {conditional} <= {upper} fails; "
            "suspect image closure or an incomplete factorization"
        )

    return RankCertificate(
        n=n,
        quadruples=quadruples,
        torsion=torsion,
        points=points,
        heights=heights,
        gram=gram,
        independence=independence,
        phi=phi,
        psi=psi,
        descent_lower=descent_lower,
        unconditional_lower=unconditional,
        conditional_lower=conditional,
        heuristic_upper=upper,
        root=root,
        tool_version=TOOL_VERSION,
        seed=effort.seed,
        precision=precision,
        tol=tol,
        notes=tuple(notes),
        timings=MappingProxyType(timings),
    )


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction) -> str:
    return str(x)


def _quad_record(q: BiquadQuadruple) -> dict:
    return {
        "p": str(q.p),
        "q": str(q.q),
        "r": str(q.r),
        "s": str(q.s),
        "n": str(q.n),
        "primitive": q.primitive,
        "degenerate": q.degenerate,
        "reduction": str(q.reduction),
        "euler_params": [str(v) for v in q.euler_params] if q.euler_params else None,
    }


def _image_record(img: DescentImage) -> dict:
    return {
        "side": img.side,
        "curve_b": str(img.curve_b),
        "classes": [str(c) for c in sorted(img.classes)],
        "witnesses": [
            {
                "square_class": str(c),
                "kind": w.kind,
                "data": [str(v) for v in w.data],
            }
            for c, w in sorted(img.witnesses.items())
        ],
    }


def certificate_record(cert: RankCertificate) -> dict:
    """JSON-ready dict; exact integers as decimal strings, no timings."""
    return {
        "record": "rank-certificate",
        "tool_version": cert.tool_version,
        "seed": cert.seed,
        "precision": cert.precision,
        "tol": cert.tol,
        "n": str(cert.n),
        "torsion": cert.torsion,
        "quadruples": [_quad_record(q) for q in cert.quadruples],
        "points": [{"x": _frac_str(P.x), "y": _frac_str(P.y)} for P in cert.points],
        "heights": [{"value": h.value, "error_bound": h.error_bound} for h in cert.heights],
        "gram": (
            {"entries": [list(row) for row in cert.gram.entries], "determinant": cert.gram.determinant}
            if cert.gram is not None
            else None
        ),
        "independence": cert.independence,
        "phi": _image_record(cert.phi),
        "psi": _image_record(cert.psi),
        "descent_lower": cert.descent_lower,
        "unconditional_lower": cert.unconditional_lower,
        "conditional_lower": cert.conditional_lower,
        "heuristic_upper": cert.heuristic_upper,
        "root_number": {
            "omega": cert.root.omega,
            "epsilon": cert.root.epsilon,
            "square_part_product": cert.root.square_part_product,
            "residue": cert.root.residue,
            "conditional": cert.root.conditional,
            "justification": cert.root.justification,
        },
        "notes": list(cert.notes),
    }


def to_json_line(cert: RankCertificate) -> str:
    return json.dumps(certificate_record(cert), sort_keys=True, separators=(",", ":"))


def _parse_quad(d: dict) -> BiquadQuadruple:
    params = d.get("euler_params")
    return BiquadQuadruple(
        p=int(d["p"]),
        q=int(d["q"]),
        r=int(d["r"]),
        s=int(d["s"]),
        n=int(d["n"]),
        primitive=d["primitive"],
        degenerate=d["degenerate"],
        reduction=int(d["reduction"]),
        euler_params=tuple(int(v) for v in params) if params else None,
    )


def _parse_image(d: dict) -> DescentImage:
    witnesses = {
        int(w["square_class"]): Witness(
            w["kind"], int(w["square_class"]), tuple(int(v) for v in w["data"])
        )
        for w in d["witnesses"]
    }
    return DescentImage(
        side=d["side"],
        curve_b=int(d["curve_b"]),
        classes=frozenset(int(c) for c in d["classes"]),
        witnesses=MappingProxyType(witnesses),
    )


def parse_certificate(line: str) -> RankCertificate:
    """Rebuild a certificate from its JSON line.

    Descent images re-run their witness checks during construction, so a
    tampered line fails here rather than at reverify time.
    """
    d = json.loads(line)
    if d.get("record") != "rank-certificate":
        raise CertificateInvalid("not a rank-certificate record")
    rn = d["root_number"]
    return RankCertificate(
        n=int(d["n"]),
        quadruples=tuple(_parse_quad(q) for q in d["quadruples"]),
        torsion=d["torsion"],
        points=tuple(
            Point(Fraction(p["x"]), Fraction(p["y"])) for p in d["points"]
        ),
        heights=tuple(HeightValue(h["value"], h["error_bound"]) for h in d["heights"]),
        gram=(
            GramMatrix(
                tuple(tuple(row) for row in d["gram"]["entries"]),
                d["gram"]["determinant"],
            )
            if d["gram"] is not None
            else None
        ),
        independence=d["independence"],
        phi=_parse_image(d["phi"]),
        psi=_parse_image(d["psi"]),
        descent_lower=d["descent_lower"],
        unconditional_lower=d["unconditional_lower"],
        conditional_lower=d["conditional_lower"],
        heuristic_upper=d["heuristic_upper"],
        root=RootNumber(
            omega=rn["omega"],
            epsilon=rn["epsilon"],
            square_part_product=rn["square_part_product"],
            residue=rn["residue"],
            conditional=rn["conditional"],
            justification=rn["justification"],
        ),
        tool_version=d["tool_version"],
        seed=d["seed"],
        precision=d["precision"],
        tol=d["tol"],
        notes=tuple(d.get("notes", ())),
    )


def reverify(cert: RankCertificate) -> bool:
    """Full offline audit of a certificate; True or CertificateInvalid."""
    n = cert.n
    E = curve_from_n(n)

    def fail(msg: str):
        raise CertificateInvalid(msg)

    for q in cert.quadruples:
        if q.p**4 + q.q**4 != q.n or q.r**4 + q.s**4 != q.n:
            fail(f"quadruple {q.components()} does not represent {q.n}")
        if q.n != n:
            fail("quadruple n mismatch")
        if q.primitive != (gcd_many(list(q.components())) == 1):
            fail("primitive flag wrong")
        if q.euler_params is not None:
            refit = euler_quadruple(*q.euler_params)
            if refit.pairs() not in (q.pairs(), tuple(reversed(q.pairs()))):
                fail("euler parameters do not regenerate the quadruple")
    for P in cert.points:
        if not is_on_curve(E, P):
            fail(f"point {P} is off the curve")
    if cert.phi.curve_b != E.b:
        fail("phi image bound to the wrong curve")
    if cert.psi.curve_b != 4 * n:
        fail("psi image bound to the wrong curve")
    cert.phi.reverify()
    cert.psi.reverify()
    if cert.descent_lower != rank_lower_bound(cert.phi, cert.psi):
        fail("descent bound does not match the images")
    if cert.unconditional_lower != max(cert.descent_lower, cert.independence or 0):
        fail("unconditional bound does not match its sources")
    if cert.root != root_number(n, quad=cert.quadruples[0]):
        fail("root number does not match n")
    if cert.conditional_lower != parity_adjusted_bound(cert.unconditional_lower, cert.root):
        fail("conditional bound does not match omega")
    if cert.torsion != str(torsion_shape(-n)):
        fail("torsion does not match n")
    f2n = factor(2 * n)
    if cert.heuristic_upper != yoshida_upper_bound(n, f=f2n):
        fail("prime-count upper bound does not match the primes of 2n")
    if not (cert.unconditional_lower <= cert.conditional_lower <= cert.heuristic_upper):
        fail("bound chain violated")
    if cert.gram is None:
        if cert.heights or cert.independence is not None:
            fail("heights or independence recorded without a Gram matrix")
    else:
        _reverify_heights(cert, E, f2n.distinct_primes())
    return True


def _reverify_heights(cert: RankCertificate, E: Curve, primes: tuple[int, ...]) -> None:
    """Recompute the heights and the Gram matrix from the points at the
    recorded precision, and rebuild independence from the recorded Gram."""
    k = len(cert.points)
    recorded = cert.gram.entries
    if len(cert.heights) != k or len(recorded) != k or any(len(row) != k for row in recorded):
        raise CertificateInvalid("heights or Gram matrix do not match the points")
    if not (cert.precision > 0 and cert.tol > 0):
        raise CertificateInvalid("precision and tol must be positive")
    H = Heights(E, cert.precision, primes)
    try:
        fresh = H.gram(cert.points)
        for P, h in zip(cert.points, cert.heights):
            # the recorded and the recomputed value each lie within the
            # error bound of the true height
            f = H.height(P)
            if h.error_bound != f.error_bound or abs(h.value - f.value) > 2 * f.error_bound:
                raise CertificateInvalid(f"height of ({P.x}, {P.y}) does not match the point")
    except PrecisionUnreachable as exc:
        raise CertificateInvalid(f"recorded precision is unreachable: {exc}") from exc
    # each pairing lies within 3 * precision / 2 of the true one
    for row, fresh_row in zip(recorded, fresh.entries):
        if any(abs(a - b) > 3 * cert.precision for a, b in zip(row, fresh_row)):
            raise CertificateInvalid("gram entries do not match the points")
    det = float(np.linalg.det(np.array(recorded, dtype=np.float64))) if k else 1.0
    if abs(det - cert.gram.determinant) > 1e-9 * max(1.0, abs(det)):
        raise CertificateInvalid("gram determinant does not match its entries")
    try:
        independence = cert.gram.independence(cert.tol)
    except Inconclusive:
        independence = None
    if cert.independence != independence or (cert.independence or 0) > k:
        raise CertificateInvalid("independence does not match the Gram matrix")


# ---------------------------------------------------------------------------
# rendering

CSV_HEADER = "p,q,n,unconditional_lower,conditional_lower,omega"


def csv_row(cert: RankCertificate) -> str:
    q = cert.quadruples[0]
    return ",".join(
        [
            str(abs(q.p)),
            str(abs(q.q)),
            str(cert.n),
            str(cert.unconditional_lower),
            str(cert.conditional_lower),
            f"{cert.root.omega:+d}",
        ]
    )


def render_table(cert: RankCertificate) -> str:
    """Human-readable certificate summary."""
    lines = []
    add = lines.append
    add(f"n = {cert.n}")
    add(f"torsion: {cert.torsion}    tool {cert.tool_version}    seed {cert.seed}")
    for q in cert.quadruples:
        tag = " (single)" if q.degenerate else ""
        src = f"  from (a,b) = {q.euler_params}" if q.euler_params else ""
        add(f"  {abs(q.p)}^4 + {abs(q.q)}^4 = {abs(q.r)}^4 + {abs(q.s)}^4{tag}{src}")
    if cert.points:
        add("points and canonical heights:")
        for P, h in zip(cert.points, cert.heights or [None] * len(cert.points)):
            hs = f"  h = {h.value:.9f} (+/- {h.error_bound:.1e})" if h else ""
            add(f"  ({P.x}, {P.y}){hs}")
    if cert.gram is not None:
        add(f"gram determinant: {cert.gram.determinant:.8g}   tol {cert.tol}")
        add(f"independent points certified: {cert.independence}")
    add(f"phi classes ({cert.phi.order}): {sorted(cert.phi.classes)}")
    add(f"psi classes ({cert.psi.order}): {sorted(cert.psi.classes)}")
    w = cert.root
    add(
        f"root number: omega = {w.omega:+d} "
        f"(epsilon {w.epsilon:+d}, square part {w.square_part_product:+d}, "
        f"n = {w.residue} mod 16, {w.justification})"
    )
    add(f"rank >= {cert.unconditional_lower} unconditionally "
        f"(descent {cert.descent_lower}, independence {cert.independence})")
    add(f"rank >= {cert.conditional_lower} assuming the parity conjecture")
    add(f"heuristic upper bound: {cert.heuristic_upper}")
    for note in cert.notes:
        add(f"note: {note}")
    if cert.timings:
        total = sum(cert.timings.values())
        add("timings: " + ", ".join(f"{k} {v:.3f}s" for k, v in cert.timings.items()) + f" (total {total:.3f}s)")
    return "\n".join(lines)

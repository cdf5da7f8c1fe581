"""Rank certificates: everything one analysis establishes about E_n,
bundled with enough evidence to re-verify it offline.

A certificate records the double representation(s) of n, the primes of 2n,
the Gram matrix of height pairings of the constructed points (its diagonal
holds the canonical heights), the root number and three bounds:

  unconditional_lower   max(descent count, Gram-certified independent points)
  conditional_lower     parity-adjusted (assumes the parity conjecture)
  heuristic_upper       2 * omega(2n) - 1, proven (Silverman, AEC X.6.2)

Every bound, with torsion, independence and the root number, is derived
in one function that analyze records and reverify compares against.  It
enforces the chain unconditional <= conditional <= upper; a violation
means a descent or factoring bug and aborts loudly.  Independence counts
the points whose Gram determinant clears the margin of entries within
ENTRY_ERROR * precision of the true pairings, the most reverify lets an
entry stray (heights.GramMatrix.independence): no threshold is chosen.
Serialization is line-delimited JSON written and read by one codec
driven by the dataclasses: each dataclass is an object keyed by its field
names, every integer is a canonical decimal string, and JSON floats,
always finite, appear only for Gram entries and precision.  Records keep
evidence only: what it determines (a quadruple's n and flags, omega, the
Gram determinant and its diagonal, and the points and descent images that
the first quadruple and the primes of 2n fix) is a property.  A stored
value is evidence, or a value _bounds derives and reverify compares.
parse_certificate rebuilds the full object through the constructors,
re-running every check of the evidence on the way in.  reverify never
factors: it checks that the recorded primes are those of 2n.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from itertools import combinations
from types import MappingProxyType, UnionType
from typing import Mapping, get_args, get_origin, get_type_hints

from ._version import VERSION
from .arith import DEFAULT_EFFORT, Factorization, factor, is_probable_prime, valuation
from .biquadrate import (
    BiquadQuadruple,
    PropertyViolation,
    euler_quadruple,
    factor_2n,
    recover_euler_quadruple,
    representations,
    validate_double_representation,
)
from .curve import Point, curve_from_n, dual_curve, constructed_points, torsion_shape
from .descent import DescentImage, phi_image, psi_image, rank_lower_bound, yoshida_upper_bound
from .heights import GramMatrix, HeightValue, Heights, PrecisionUnreachable
from .parity import OutOfDomain, RootNumber, parity_adjusted_bound, root_number

TOOL_VERSION = VERSION
ENTRY_ERROR = 4.5  # a recorded Gram entry's distance from the true pairing, in units of precision


class NoRepresentation(ValueError):
    """n has no (or no usable) double representation."""


class CertificateInvalid(RuntimeError):
    """A parsed or stored certificate failed re-verification."""


@dataclass(frozen=True)
class RankCertificate:
    n: int
    quadruples: tuple[BiquadQuadruple, ...]
    primes: tuple[int, ...]  # of 2n, ascending
    torsion: str
    gram: GramMatrix | None
    independence: int | None
    descent_lower: int
    unconditional_lower: int
    conditional_lower: int
    heuristic_upper: int
    root: RootNumber
    tool_version: str
    precision: float
    # volatile measurements: read-only, kept off the wire and out of ==
    timings: Mapping[str, float] = field(default_factory=lambda: MappingProxyType({}), compare=False)

    def __post_init__(self):
        if not 0 < self.precision < math.inf:
            raise ValueError("precision must be positive and finite")

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points the Gram matrix pairs: those the first quadruple constructs."""
        return _distinct_points(self.quadruples[0])

    @cached_property
    def factorization(self) -> Factorization:
        """2n from the primes and their valuations, never factored; ValueError
        unless each is a prime of 2n and their powers multiply back to it, ascending."""
        m = 2 * self.n
        for p in self.primes:  # tested before m is divided by it: dividing out 1 never stops
            if not is_probable_prime(p) or m % p:
                raise ValueError(f"listed {p} is not a prime of 2n")
        return Factorization(m, tuple((p, valuation(m, p)) for p in self.primes))

    @cached_property
    def phi(self) -> DescentImage:
        return phi_image(curve_from_n(self.n), self.quadruples[0], self.factorization)

    @cached_property
    def psi(self) -> DescentImage:
        return psi_image(dual_curve(curve_from_n(self.n)), self.quadruples[0], self.factorization)

    @property
    def heights(self) -> tuple[HeightValue, ...]:
        """The Gram diagonal <P, P> = h(P); no constructed point is torsion (y != 0, x^2 != -n)."""
        if self.gram is None:
            return ()
        return tuple(HeightValue(row[i], self.precision) for i, row in enumerate(self.gram.entries))


def _distinct_points(quad: BiquadQuadruple) -> tuple[Point, ...]:
    return tuple(dict.fromkeys(constructed_points(quad)))  # in order


def _with_params(quad: BiquadQuadruple) -> BiquadQuadruple:
    """Attach the family parameters (a, b) when the quadruple has them."""
    found = recover_euler_quadruple(quad)
    if found is None:
        return quad
    return replace(quad, euler_params=found.euler_params, reduction=found.reduction)


def _resolve_quadruples(
    n: int | None,
    pqrs: tuple[int, int, int, int] | None,
    ab: tuple[int, int] | None,
    allow_single: bool,
    effort: int,
) -> tuple[tuple[BiquadQuadruple, ...], Factorization]:
    """The input's quadruples, the first of them the one analyzed, and the factorization of 2n."""
    given = sum(x is not None for x in (n, pqrs, ab))
    if given != 1:
        raise ValueError("exactly one of n, pqrs, ab must be given")

    if n is None:
        quad = euler_quadruple(*ab) if ab is not None else _with_params(validate_double_representation(*pqrs))
        _check_domain(quad.n)
        if quad.degenerate and not allow_single:
            raise _single(quad.n, quad.pairs()[0])
        return (quad,), factor_2n(quad, effort)

    _check_domain(n)
    f2n = factor(2 * n, effort)
    pairs = representations(n, f2n)
    combos = [validate_double_representation(p, q, r, s) for (p, q), (r, s) in combinations(pairs, 2)]
    combos = [quad for quad in combos if quad.primitive]
    if combos:
        combos[0] = _with_params(combos[0])
        return tuple(combos), f2n
    if len(pairs) >= 2:
        raise NoRepresentation(
            f"all double representations of {n} share a common factor; "
            "divide n by its fourth-power part and retry"
        )
    if len(pairs) == 1:
        if not allow_single:
            raise _single(n, pairs[0])
        quad = validate_double_representation(*pairs[0], *pairs[0])
        return (quad,), f2n
    raise NoRepresentation(f"no representation of {n} as p^4 + q^4")


def _single(n: int, pair: tuple[int, int]) -> NoRepresentation:
    return NoRepresentation(f"{n} has a single representation {pair}; pass allow_single to analyze it anyway")


def _check_domain(n: int) -> None:
    if n <= 0:
        raise NoRepresentation(f"n = {n} is not a sum of two positive fourth powers")
    if n % 4 == 0:
        raise OutOfDomain(f"n = {n} is divisible by 4; analyze the quartic twist n/16 instead")


def _bounds(n: int, quad: BiquadQuadruple, gram: GramMatrix | None, phi: DescentImage, psi: DescentImage,
            f2n: Factorization, precision: float) -> dict:
    """Every certificate field that follows from the evidence, keyed by
    RankCertificate field name: analyze records these, and reverify
    compares a certificate with them.

    Independence is None without a Gram matrix.  Raises PropertyViolation
    when the bounds break their chain.
    """
    independence = None if gram is None else gram.independence(ENTRY_ERROR * precision)
    descent = rank_lower_bound(phi, psi)
    unconditional = max(descent, independence or 0)
    root = root_number(n, f2n, quad)
    conditional = parity_adjusted_bound(unconditional, root)
    upper = yoshida_upper_bound(n, f=f2n)
    if not (unconditional <= conditional <= upper):
        raise PropertyViolation(
            f"bound chain violated for n = {n}: "
            f"{unconditional} <= {conditional} <= {upper} fails; "
            "suspect a descent image or an incomplete factorization"
        )
    return {
        "torsion": str(torsion_shape(-n)),
        "independence": independence,
        "descent_lower": descent,
        "unconditional_lower": unconditional,
        "conditional_lower": conditional,
        "heuristic_upper": upper,
        "root": root,
    }


def analyze(
    *,
    n: int | None = None,
    pqrs: tuple[int, int, int, int] | None = None,
    ab: tuple[int, int] | None = None,
    precision: float = 1e-8,
    effort: int = DEFAULT_EFFORT,
    allow_single: bool = False,
    skip_heights: bool = False,
) -> RankCertificate:
    """Build and internally verify a rank certificate.

    Raises NoRepresentation when the input does not resolve to a double
    representation (n <= 0 among them), OutOfDomain for n divisible by 4
    (twist-normalize first), EffortExceeded when 2n does not factor within
    effort, and PropertyViolation if the assembled bounds are inconsistent.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    quadruples, f2n = _resolve_quadruples(n, pqrs, ab, allow_single, effort)
    quad = quadruples[0]
    n = quad.n
    E = curve_from_n(n)
    points = _distinct_points(quad)
    timings["resolve"] = time.perf_counter() - t0

    gram: GramMatrix | None = None
    t0 = time.perf_counter()
    if not skip_heights:
        gram = Heights(E, precision, f2n.distinct_primes()).gram(points)
    timings["heights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    phi = phi_image(E, quad, f2n)
    psi = psi_image(dual_curve(E), quad, f2n)
    timings["descent"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bounds = _bounds(n, quad, gram, phi, psi, f2n, precision)
    timings["bounds"] = time.perf_counter() - t0

    return RankCertificate(
        n=n,
        quadruples=quadruples,
        primes=f2n.distinct_primes(),
        gram=gram,
        tool_version=TOOL_VERSION,
        precision=precision,
        timings=MappingProxyType(timings),
        **bounds,
    )


# ---------------------------------------------------------------------------
# serialization


def _encode(value):
    """The JSON form of a certificate value: ints as decimal strings,
    tuples as lists, a dataclass as an object keyed by its field
    names (fields with compare=False stay off the wire)."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if type(value) is int:
        return str(value)
    return value


# declared type -> JSON types it may arrive as; tp(value) then rebuilds it
_WIRE = {int: (str,), float: (int, float), str: (str,)}


def _decode(tp, value):
    """Inverse of _encode for the declared type tp.  Dataclasses are
    rebuilt through their constructors, so their checks run again; a value
    of the wrong wire type, a tuple of the wrong length or a missing or
    unknown field raises TypeError, ValueError or KeyError."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _decode(inner, value)
    if origin is tuple:
        if type(value) is not list:
            raise TypeError(f"expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    if is_dataclass(tp):  # value.keys() raises AttributeError unless an object
        hints = get_type_hints(tp)
        names = [f.name for f in fields(tp) if f.compare]
        if value.keys() - names:
            raise ValueError(f"unknown {tp.__name__} fields {sorted(value.keys() - names)}")
        return tp(**{name: _decode(hints[name], value[name]) for name in names})
    if type(value) not in _WIRE[tp]:
        raise TypeError(f"{value!r} is not the wire form of {tp.__name__}")
    return strict_int(value) if tp is int else tp(value)


def certificate_record(cert: RankCertificate) -> dict:
    """JSON-ready dict, tagged as a rank-certificate record."""
    return {"record": "rank-certificate", **_encode(cert)}


def to_json_line(cert: RankCertificate) -> str:
    return json.dumps(certificate_record(cert), sort_keys=True, separators=(",", ":"))


# what reading a malformed value raises: int(inf), of a JSON 1e400, raises OverflowError
MALFORMED = (AttributeError, LookupError, TypeError, ValueError, ArithmeticError)
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")  # ASCII; no plus sign, space, underscore or leading zero


def strict_int(value) -> int:
    """An input integer: a canonical decimal string, or a JSON int that is not a bool; else ValueError."""
    if type(value) is not int and not (type(value) is str and _DECIMAL.fullmatch(value)):
        raise ValueError(f"{value!r} is not a decimal integer")
    return int(value)


def parse_certificate(line: str) -> RankCertificate:
    """Rebuild a certificate from its JSON line.

    Every record re-runs its checks during construction (the quadruples,
    the Gram matrix and a finite positive precision), so a tampered line
    fails here rather than at reverify time.  A line that is not JSON,
    lacks a field, has an unknown one or one of the wrong wire type (an
    integer that is not a canonical decimal string among them), or was
    written by another tool_version raises CertificateInvalid.
    """
    try:
        d = json.loads(line)
        if d.pop("record", None) != "rank-certificate":
            raise CertificateInvalid("not a rank-certificate record")
        if d["tool_version"] != TOOL_VERSION:
            raise CertificateInvalid(f"tool_version {d['tool_version']!r} is not {TOOL_VERSION}")
        return _decode(RankCertificate, d)
    except MALFORMED as exc:
        raise CertificateInvalid(f"malformed certificate record: {type(exc).__name__}: {exc}") from exc


def reverify(cert: RankCertificate) -> bool:
    """Full offline audit of a certificate; True or CertificateInvalid.

    First the exact evidence: n positive and not divisible by 4, each
    quadruple (checked when built) representing n, the recorded primes
    those of 2n, and the Gram matrix within its error bounds of the points.
    The points and the descent images are derived from the first quadruple
    and the primes, never read from the line, so the Gram matrix pairs at
    most 4 points and the subset loop of independence sees at most 4.
    Then every derived field is rebuilt by _bounds, the one derivation
    analyze records, and compared with the certificate.  Nothing is factored.
    """
    n = cert.n
    if n <= 0 or n % 4 == 0:
        raise CertificateInvalid(f"n = {n} is not positive or is divisible by 4")
    if not cert.quadruples:
        raise CertificateInvalid("no quadruple recorded")
    for q in cert.quadruples:
        if q.n != n:
            raise CertificateInvalid(f"quadruple {q.components()} does not represent {n}")
    try:
        f2n = cert.factorization
    except ValueError as exc:
        raise CertificateInvalid(f"primes are not the primes of 2n: {exc}") from exc
    if cert.gram is None:
        if cert.independence is not None:
            raise CertificateInvalid("independence recorded without a Gram matrix")
    else:
        _reverify_heights(cert)

    try:
        derived = _bounds(n, cert.quadruples[0], cert.gram, cert.phi, cert.psi, f2n, cert.precision)
    except PropertyViolation as exc:
        raise CertificateInvalid(str(exc)) from exc
    for name, value in derived.items():
        if getattr(cert, name) != value:
            raise CertificateInvalid(f"{name} does not match the evidence")
    return True


def _reverify_heights(cert: RankCertificate) -> None:
    """Recompute the Gram matrix from the points at the recorded precision
    and check the recorded one against it: the recorded and the recomputed
    height each lie within its error bound of the true one, and a pairing
    within 3 * precision / 2."""
    recorded = cert.gram.entries
    if len(recorded) != len(cert.points):
        raise CertificateInvalid("Gram matrix does not match the points")
    H = Heights(curve_from_n(cert.n), cert.precision, cert.primes)
    try:
        fresh = H.gram(cert.points)
    except PrecisionUnreachable as exc:
        raise CertificateInvalid(f"recorded precision is unreachable: {exc}") from exc
    for i, (P, row, fresh_row) in enumerate(zip(cert.points, recorded, fresh.entries)):
        for j, (a, b) in enumerate(zip(row, fresh_row)):
            bound = 2 * H.height(P).error_bound if i == j else 3 * cert.precision
            if abs(a - b) > bound:
                raise CertificateInvalid(f"gram entry ({i}, {j}) does not match the points")


# ---------------------------------------------------------------------------
# rendering

CSV_HEADER = "p,q,n,unconditional_lower,conditional_lower,omega"


def csv_row(cert: RankCertificate) -> str:
    q = cert.quadruples[0]
    return f"{abs(q.p)},{abs(q.q)},{cert.n},{cert.unconditional_lower},{cert.conditional_lower},{cert.root.omega:+d}"


def render_table(cert: RankCertificate) -> str:
    """Human-readable certificate summary."""
    lines = []
    add = lines.append
    add(f"n = {cert.n}")
    add(f"torsion: {cert.torsion}    tool {cert.tool_version}")
    for q in cert.quadruples:
        tag = " (single)" if q.degenerate else ""
        src = f"  from (a,b) = {q.euler_params}" if q.euler_params else ""
        src += f", reduced by {q.reduction}" if q.reduction > 1 else ""
        add(f"  {abs(q.p)}^4 + {abs(q.q)}^4 = {abs(q.r)}^4 + {abs(q.s)}^4{tag}{src}")
    if cert.points:
        add("points and canonical heights:")
        for P, h in zip(cert.points, cert.heights or [None] * len(cert.points)):
            hs = f"  h = {h.value:.9f} (+/- {h.error_bound:.1e})" if h else ""
            add(f"  ({P.x}, {P.y}){hs}")
    if cert.gram is not None:
        add(f"independent points certified: {cert.independence} (gram determinant "
            f"{cert.gram.determinant:.8g}, entries within {ENTRY_ERROR * cert.precision:.1e})")
    for side, img in (("phi", cert.phi), ("psi", cert.psi)):
        add(f"{side} image of order {img.order}, generators {list(img.classes)}")
    w = cert.root
    add(
        f"root number: omega = {w.omega:+d} "
        f"(epsilon {w.epsilon:+d}, square part {w.square_part_product:+d}, "
        f"n = {w.residue} mod 16, {w.justification})"
    )
    add(f"rank >= {cert.unconditional_lower} unconditionally "
        f"(descent {cert.descent_lower}, independence {cert.independence})")
    add(f"rank >= {cert.conditional_lower} assuming the parity conjecture")
    add(f"rank <= {cert.heuristic_upper}, proven (2 omega(2n) - 1, Silverman AEC X.6.2)")
    if cert.timings:
        total = sum(cert.timings.values())
        add("timings: " + ", ".join(f"{k} {v:.3f}s" for k, v in cert.timings.items()) + f" (total {total:.3f}s)")
    return "\n".join(lines)

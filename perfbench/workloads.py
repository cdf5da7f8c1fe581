"""The three workloads: seeded inputs, the operations that run them, and the
checks that make an operation count as failed.

Inputs come from the fixed pools in `pools.json`.  A seed picks one entry
per size band (or one top base for `search`), so every seed does similar
work; the package sees only the generated inputs.

The operations call the package's layer modules (`arith`, `biquadrate`,
`curve`, `heights`, `descent`, `parity`) through their public functions,
looked up on the module at each call, so the tracer's wrappers see them.
`certify` runs the stages of `certificate.analyze` in its order and with its
defaults; it does not call `analyze` itself, see `load_layers`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import random
import types
from dataclasses import dataclass, replace
from typing import Callable

POOLS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")

NAMES = ("ladder", "algebraic", "search")
LAYERS = ("arith", "biquadrate", "curve", "heights", "descent", "parity")

# analyze's defaults
PRECISION = 1e-8
TOL = 1e-3
# Relative tolerance for the recorded Gram determinant: far above the error
# that heights at PRECISION allow, far below any change of the points.
DET_RTOL = 1e-6


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[types.SimpleNamespace], None]  # takes the layer modules


def load_layers() -> tuple[types.SimpleNamespace, str | None]:
    """Import the package and return its layer modules.

    `import biquadrank` imports the modules one after the other.  If a later
    one fails (at the commit that added this benchmark, `certificate` does
    on Python 3.11, ROADMAP item 0), the layer modules imported before it
    stay loaded and work.  The package's error is returned so the run can
    report it; an error in a layer module itself propagates.
    """
    try:
        importlib.import_module("biquadrank")
        package_error = None
    except Exception as exc:  # reported, not fatal: see above
        package_error = f"{type(exc).__name__}: {exc}"
    mods = {name: importlib.import_module(f"biquadrank.{name}") for name in LAYERS}
    return types.SimpleNamespace(**mods), package_error


def _check_quadruple(q, n: int):
    if not (q.p**4 + q.q**4 == q.r**4 + q.s**4 == q.n == n):
        raise CheckFailed(f"quadruple identity fails: {(q.p, q.q, q.r, q.s)} for n = {n}")


def _dedupe(points) -> list:
    seen, out = set(), []
    for P in points:
        if (P.x, P.y) not in seen:
            seen.add((P.x, P.y))
            out.append(P)
    return out


def certify(L: types.SimpleNamespace, quad, heights: bool) -> tuple[list[int], float | None]:
    """The stages of `analyze(..., skip_heights=not heights)`.

    Returns the bounds `[unconditional, conditional, heuristic_upper]` and
    the Gram determinant (None without heights).
    """
    n = quad.n
    E = L.curve.curve_from_n(n)
    m, _ = L.arith.fourth_power_free_part(n)
    L.curve.torsion_shape(-m)
    points = _dedupe(L.curve.constructed_points(quad))
    independence, det = 0, None
    if heights:
        for P in points:
            h = L.heights.canonical_height(E, P, PRECISION)
            if not (math.isfinite(h.value) and h.value >= 0):
                raise CheckFailed(f"canonical height {h.value} of {P} on n = {n}")
        det = L.heights.gram_matrix(E, points, PRECISION).determinant
        independence = L.heights.independence_rank(E, points, TOL, PRECISION)
    phi = L.descent.phi_image(E, quad)
    psi = L.descent.psi_image(L.curve.dual_curve(E), quad)
    descent_lower = L.descent.rank_lower_bound(phi, psi)
    root = L.parity.root_number(n, quad=quad)
    unconditional = max(descent_lower, independence)
    conditional = L.parity.parity_adjusted_bound(unconditional, root)
    upper = L.descent.yoshida_upper_bound(n)
    return [unconditional, conditional, upper], det


def _check_bounds(bounds: list[int], entry: dict):
    if bounds != entry["bounds"]:
        raise CheckFailed(f"bounds {bounds} for n = {entry['n']}, recorded {entry['bounds']}")


def _ladder(entry: dict, L):
    quad = L.biquadrate.euler_quadruple(*entry["ab"])
    _check_quadruple(quad, int(entry["n"]))
    bounds, det = certify(L, quad, heights=True)
    _check_bounds(bounds, entry)
    if not math.isclose(det, entry["det"], rel_tol=DET_RTOL):
        raise CheckFailed(f"Gram determinant {det!r} for n = {entry['n']}, recorded {entry['det']!r}")


def _algebraic(entry: dict, L):
    # analyze(pqrs=...) resolves the quadruple this way, and the descent
    # uses the Euler parameters when they are attached.
    quad = L.biquadrate.validate_double_representation(*entry["pqrs"])
    _check_quadruple(quad, int(entry["n"]))
    params = L.biquadrate.recover_euler_params(quad)
    if params is None:
        raise CheckFailed(f"no Euler parameters recovered for {entry['pqrs']}")
    reduction = L.biquadrate.euler_quadruple(*params).reduction
    quad = replace(quad, euler_params=params, reduction=reduction)
    bounds, _ = certify(L, quad, heights=False)
    _check_bounds(bounds, entry)


def _search(base: int, shards: int, expected: list, L):
    quads = L.biquadrate.search_double_representations(base, shards=shards)
    for q in quads:
        _check_quadruple(q, q.p**4 + q.q**4)
    got = sorted([q.p, q.q, q.r, q.s] for q in quads)
    if got != expected:
        raise CheckFailed(f"search({base}, shards={shards}) found {len(got)} hits, "
                          f"recorded {len(expected)}")


def _pick_bands(pool: dict, rng: random.Random) -> list[dict]:
    return [rng.choice(band["entries"]) for band in pool["bands"]]


def build(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload `name` for `seed`."""
    with open(POOLS_PATH, encoding="utf-8") as fh:
        pools = json.load(fh)
    rng = random.Random(f"{name}:{seed}")
    if name == "ladder":
        return [Op(f"certify(ab={tuple(e['ab'])}) with heights", functools.partial(_ladder, e))
                for e in _pick_bands(pools["ladder"], rng)]

    if name == "algebraic":
        return [Op(f"certify(pqrs={tuple(e['pqrs'])}) without heights",
                   functools.partial(_algebraic, e))
                for e in _pick_bands(pools["algebraic"], rng)]

    if name == "search":
        pool = pools["search"]
        lo, hi = pool["top_range"]
        top = rng.randint(lo, hi)
        hits = sorted(pool["hits_at_top"])

        def op(base: int, shards: int) -> Op:
            expected = [h for h in hits if max(h) <= base]
            return Op(f"search(max_base={base}, shards={shards})",
                      functools.partial(_search, base, shards, expected))

        return [op(top // k, 1) for k in (8, 4, 2, 1)] + [op(top, 4)]

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

"""Append-only result cache for search sweeps.

One JSON record per line, each stamped with the tool version; records from
other versions are ignored on load (never deleted, the file only grows).
A truncated final line (interrupted write) is skipped silently.  Keys are
decimal strings, so the file is greppable and language-neutral.
"""

from __future__ import annotations

import json
import os

from ._version import VERSION
from .biquadrate import BiquadQuadruple, search_double_representations

ENV_VAR = "BIQUADRANK_CACHE"


class Cache:
    def __init__(self, path: str):
        self.path = path
        self._mem: dict[tuple[str, str], object] = {}
        self._load()

    def _load(self):
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        d = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail write
                    if d.get("version") != VERSION:
                        continue
                    self._mem[(d["kind"], d["key"])] = d["value"]
        except FileNotFoundError:
            pass

    def _append(self, kind: str, key: str, value):
        self._mem[(kind, key)] = value
        record = {"version": VERSION, "kind": kind, "key": key, "value": value}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    def search(self, max_base: int) -> list[BiquadQuadruple] | None:
        raw = self._mem.get(("search", str(max_base)))
        if raw is None:
            return None
        out = []
        for p, q, r, s in raw:
            p, q, r, s = int(p), int(q), int(r), int(s)
            out.append(
                BiquadQuadruple(
                    p=p, q=q, r=r, s=s, n=p**4 + q**4,
                    primitive=True, degenerate=False,
                )
            )
        return out

    def store_search(self, max_base: int, quads: list[BiquadQuadruple]):
        self._append(
            "search",
            str(max_base),
            [[str(q.p), str(q.q), str(q.r), str(q.s)] for q in quads],
        )


def open_cache(path: str | None = None) -> Cache | None:
    """Cache at `path`, or at $BIQUADRANK_CACHE, or None when neither is set."""
    path = path or os.environ.get(ENV_VAR)
    return Cache(path) if path else None


def cached_search(max_base: int, shards: int = 1, cache: Cache | None = None) -> list[BiquadQuadruple]:
    if cache is not None:
        hit = cache.search(max_base)
        if hit is not None:
            return hit
    quads = search_double_representations(max_base, shards)
    if cache is not None:
        cache.store_search(max_base, quads)
    return quads

"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Writes ``bench/data/``: the stdout of each ``audit`` CLI call, and the
``bracket-long`` input pool with a digest of every pair's bracket as the
library at this commit computes it.  Run it only at a commit whose
outputs are the reference; every later run is compared with these files.

The pool is generated from a fixed seed.  For each surface and stratum of
word lengths, candidate pairs of random cyclically reduced words are kept
only when their linked-cell count lies within 4 % of the stratum's median,
so that a benchmark seed changes the words but hardly the amount of work.
Slope pairs are torus digital-line words of 40 to 100 letters whose slope
determinant is 1, 2 or 3: simple curves with few linked cells.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from curvebracket import goldman, linking, words  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 20230706
POOL_PER_SELECTED = 6  # pool candidates per pair a run selects
CELL_TOLERANCE = 0.04
PROBE_PAIRS = 24


def random_class(rng: random.Random, rank: int, length: int) -> words.CyclicClass:
    letters = [g for g in range(-rank, rank + 1) if g]
    while True:
        w = [rng.choice(letters)]
        while len(w) < length:
            g = rng.choice(letters)
            if g != -w[-1]:
                w.append(g)
        if w[0] != -w[-1]:
            return words.canonical_cyclic(w)


def cell_count(s, x, y) -> int:
    return len(linking._linked_cells(s, x.letters, y.letters))


def random_entries(rng, name, s, stratum, m, l, count):
    probes = [cell_count(s, random_class(rng, s.rank, m), random_class(rng, s.rank, l))
              for _ in range(PROBE_PAIRS)]
    target = statistics.median(probes)
    entries, seen = [], set()
    while len(entries) < count:
        x, y = random_class(rng, s.rank, m), random_class(rng, s.rank, l)
        if (x, y) in seen or abs(cell_count(s, x, y) - target) > CELL_TOLERANCE * target:
            continue
        seen.add((x, y))
        entries.append(entry(name, s, stratum, x, y, None))
    return entries


def slope_entries(rng, torus, count):
    lo, hi = wl.SLOPE_LENGTHS
    entries, seen = [], set()
    while len(entries) < count:
        p, q = rng.randint(1, hi), rng.choice((-1, 1)) * rng.randint(1, hi)
        if math.gcd(p, q) != 1 or not lo <= p + abs(q) <= hi:
            continue
        d = rng.choice((1, 2, 3))
        # p*s0 - q*r0 = 1, then (r, s) = d*(r0, s0) + t*(p, q) has determinant d
        u, v = _bezout(p, q)
        r0, s0 = -v, u
        options = [
            (d * r0 + t * p, d * s0 + t * q)
            for t in range(-4 * hi, 4 * hi)
            if math.gcd(d * r0 + t * p, d * s0 + t * q) == 1
            and lo <= abs(d * r0 + t * p) + abs(d * s0 + t * q) <= hi
        ]
        if not options:
            continue
        r, s = rng.choice(options)
        x, y = wl.slope_word(p, q), wl.slope_word(r, s)
        if (x, y) in seen:
            continue
        seen.add((x, y))
        entries.append(entry("torus", torus, wl.SLOPE_STRATUM, x, y, [p, q, r, s]))
    return entries


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(u, v) with a*u + b*v == gcd(a, b)."""
    old_r, r, old_u, u, old_v, v = a, b, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_u, u = u, old_u - k * u
        old_v, v = v, old_v - k * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v


def entry(name, s, stratum, x, y, slope):
    linking._linked_cells.cache_clear()
    value = goldman.bracket_classes(s, x, y)
    return {
        "surface": name,
        "stratum": stratum,
        "x": str(x),
        "y": str(y),
        "slope": slope,
        "cells": cell_count(s, x, y),
        "terms": len(value.terms()),
        "digest": wl.digest(value),
    }


def main() -> None:
    wl.DATA.mkdir(exist_ok=True)
    for map_name, max_len, code, out_name, _, _ in wl.AUDIT_CALLS:
        got, text = wl.run_cli(wl.audit_argv(map_name, max_len))
        if got != code:
            raise SystemExit(f"{map_name}: exit {got}, expected {code}")
        (wl.DATA / out_name).write_bytes(text.encode())
    rng = random.Random(POOL_SEED)
    entries = []
    for name in wl.BRACKET_SURFACES:
        s = wl.load_surface(name)
        for stratum, m, l, per_run in wl.RANDOM_STRATA:
            entries += random_entries(rng, name, s, stratum, m, l, POOL_PER_SELECTED * per_run)
            print(f"{name} {stratum}: done", file=sys.stderr)
    entries += slope_entries(rng, wl.load_surface("torus"), POOL_PER_SELECTED * wl.SLOPE_PAIRS_PER_RUN)
    lines = ",\n".join(json.dumps(e) for e in entries)
    wl.POOL_FILE.write_text(f'{{"pool_seed": {POOL_SEED}, "entries": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()

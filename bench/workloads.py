"""The benchmark's workloads: seeded inputs, the calls into the library
that a run makes, and the checks on their outputs.

Each workload is a list of operations.  An operation is one outside call
into the library (or, for ``audit``, the two CLI invocations that give
its verdicts) plus a check of its result.  A run performs every
operation once, starting cold.  The library is imported from ``src/``
of the checkout; callers put that directory on ``sys.path`` first.

Only ``bracket-long`` and ``lemma-sweep`` draw anything from the seed:
``audit`` and ``scc-parallel`` are exhaustive sweeps whose inputs are
fixed by the claim they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from curvebracket import amalgam, auditor, cli, goldman, linking, surface, words

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEMO = ROOT / "demo"
DATA = BENCH / "data"
POOL_FILE = DATA / "bracket_pool.json"

# The library's caches, captured before any tracer can rebind the names.
_CACHES = (linking._linked_cells, surface.germ_positions, surface.boundary_cycles)


def clear_caches() -> None:
    """Start cold, as a fresh CLI process does."""
    for cache in _CACHES:
        cache.cache_clear()


def linked_cells_cache_info():
    return _CACHES[0].cache_info()


@dataclass(frozen=True)
class Op:
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # error message, or None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    work_per_run: int
    work_unit: str
    inputs: dict
    # Run once after measuring, outside the timed region; each returns an
    # error message or None and counts as one attempted operation.
    post_checks: list[Callable[[], Optional[str]]] = field(default_factory=list)


def load_surface(name: str) -> surface.SurfaceSymbol:
    return surface.parse_surface((DEMO / f"{name}.srf").read_text())


def digest(value) -> str:
    """Short hash of a value's printed form, as stored in the reference."""
    return hashlib.sha256(str(value).encode()).hexdigest()[:24]


# -- audit -------------------------------------------------------------------

#: map file, --max-len, expected exit status, reference stdout, pairs, classes
AUDIT_CALLS = (
    ("torus_twist_ab.map", 5, cli.EXIT_OK, "audit_torus_twist_ab_L5.out", 5253, 102),
    ("torus_to_pants.map", 4, cli.EXIT_VIOLATING, "audit_torus_to_pants_L4.out", 1275, 50),
)


def audit_argv(map_name: str, max_len: int) -> list[str]:
    return ["audit", "bracket", str(DEMO / map_name), "--max-len", str(max_len)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _audit(seed: int) -> Workload:
    argvs, expected = [], []
    for map_name, max_len, code, out_name, _, _ in AUDIT_CALLS:
        path = DEMO / map_name
        auditor.parse_map_file(path.read_text(), path.parent)
        argvs.append(audit_argv(map_name, max_len))
        expected.append((code, (DATA / out_name).read_bytes().decode()))

    def call():
        return [run_cli(argv) for argv in argvs]

    def check(result):
        for (code, text), (want_code, want_text), argv in zip(result, expected, argvs):
            name = Path(argv[2]).name
            if code != want_code:
                return f"audit {name}: exit {code}, expected {want_code}"
            if text != want_text:
                return f"audit {name}: stdout differs from the reference"
        return None

    return Workload(
        "audit",
        [Op(call, check)],
        work_per_run=sum(c[4] for c in AUDIT_CALLS),
        work_unit="class pair",
        inputs={
            "calls": [" ".join(a[:2] + [Path(a[2]).name] + a[3:]) for a in argvs],
            "classes": [c[5] for c in AUDIT_CALLS],
            "pairs": [c[4] for c in AUDIT_CALLS],
        },
    )


# -- bracket-long --------------------------------------------------------------

BRACKET_SURFACES = ("torus", "pants", "genus1b2")
#: stratum name, word lengths, pairs per run on each surface.  The long
#: 100x16 pairs dominate the run and set the latency tail.
RANDOM_STRATA = (
    ("16x16", 16, 16, 4),
    ("24x24", 24, 24, 2),
    ("32x32", 32, 32, 1),
    ("100x16", 100, 16, 1),
)
SLOPE_STRATUM = "slope"
SLOPE_PAIRS_PER_RUN = 6
SLOPE_LENGTHS = (40, 100)


def slope_word(p: int, q: int) -> words.CyclicClass:
    """The simple class of slope (p, q) on the once-punctured torus
    (gcd 1), as the digital-line word in a and b."""
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    n = p + abs(q)
    b = 2 if q > 0 else -2
    step = abs(q)
    return words.canonical_cyclic(
        tuple(b if ((k + 1) * step) // n != (k * step) // n else 1 for k in range(n))
    )


def load_pool() -> list[dict]:
    return json.loads(POOL_FILE.read_text())["entries"]


def select_pairs(pool: list[dict], seed: int) -> list[dict]:
    """The seed's pairs: a fixed number from each stratum of the pool."""
    rng = random.Random(seed)
    chosen = []
    for name in BRACKET_SURFACES:
        for stratum, _, _, count in RANDOM_STRATA:
            group = [e for e in pool if e["surface"] == name and e["stratum"] == stratum]
            chosen += rng.sample(group, count)
    slopes = [e for e in pool if e["stratum"] == SLOPE_STRATUM]
    chosen += rng.sample(slopes, SLOPE_PAIRS_PER_RUN)
    return chosen


def _slope_check(torus, entry) -> Callable[[], Optional[str]]:
    def check():
        p, q, r, s = entry["slope"]
        x, y = slope_word(p, q), slope_word(r, s)
        if (str(x), str(y)) != (entry["x"], entry["y"]):
            return f"slope pair {entry['slope']}: words differ from the digital lines"
        got = linking.intersection_number(torus, x, y)
        want = abs(p * s - q * r)
        if got != want:
            return f"slope pair {entry['slope']}: intersection {got}, determinant law {want}"
        return None

    return check


def _bracket_long(seed: int) -> Workload:
    surfaces = {name: load_surface(name) for name in BRACKET_SURFACES}
    chosen = select_pairs(load_pool(), seed)
    ops, post, letters = [], [], 0
    for entry in chosen:
        s = surfaces[entry["surface"]]
        x = words.canonical_cyclic(words.parse_word(entry["x"], rank=s.rank))
        y = words.canonical_cyclic(words.parse_word(entry["y"], rank=s.rank))
        letters += len(x) + len(y)

        def call(s=s, x=x, y=y):
            return goldman.bracket_classes(s, x, y)

        def check(result, entry=entry):
            if digest(result) != entry["digest"]:
                return f"bracket {entry['surface']} {entry['x']} {entry['y']} differs from the reference"
            return None

        ops.append(Op(call, check))
        if entry["slope"] is not None:
            post.append(_slope_check(surfaces["torus"], entry))
    lengths = [len(e["x"]) for e in chosen] + [len(e["y"]) for e in chosen]
    return Workload(
        "bracket-long",
        ops,
        work_per_run=len(ops),
        work_unit="bracket",
        inputs={
            "pairs": len(ops),
            "slope_pairs": len(post),
            "letters": letters,
            "word_lengths": [min(lengths), max(lengths)],
            "expected_terms": sum(e["terms"] for e in chosen),
        },
        post_checks=post,
    )


# -- lemma-sweep -------------------------------------------------------------

LEMMA_H_SYLLABLES = 2
LEMMA_ORACLE_SAMPLE = 400
LEMMA_EXPECTED = dict(
    passed=True,
    instances_1=46224,
    instances_2=46224,
    case_counts={"empty": 144, "single A": 2304, "single B": 2304, "A..B": 20736, "B..A": 20736},
    oracle_checked=LEMMA_ORACLE_SAMPLE,
    oracle_agreed=True,
    failure=None,
)


def _lemma_sweep(seed: int) -> Workload:
    p = amalgam.AmalgamPresentation(
        2, 2, words.parse_word("a", rank=2), words.parse_word("a", rank=2)
    )

    def call():
        return amalgam.lemma_sweep(p, 2, LEMMA_H_SYLLABLES, LEMMA_ORACLE_SAMPLE, seed)

    def check(report):
        for key, want in LEMMA_EXPECTED.items():
            got = getattr(report, key)
            if got != want:
                return f"lemma sweep {key}: {got!r}, expected {want!r}"
        return None

    instances = LEMMA_EXPECTED["instances_1"] + LEMMA_EXPECTED["instances_2"]
    return Workload(
        "lemma-sweep",
        [Op(call, check)],
        work_per_run=instances,
        work_unit="instance",
        inputs={
            "presentation": "rank 2/2, cA=a, cB=a",
            "max_letters": 2,
            "max_h_syllables": LEMMA_H_SYLLABLES,
            "instances": instances,
            "oracle_sample": LEMMA_ORACLE_SAMPLE,
            "oracle_seed": seed,
        },
    )


# -- scc-parallel ------------------------------------------------------------

SCC_LENGTH = 6
SCC_WORKERS = 2


def _scc_parallel(seed: int) -> Workload:
    torus = load_surface("torus")
    expected = goldman.SccReport(
        passed=True,
        length_bound=SCC_LENGTH,
        classes_checked=234,
        simple_classes=50,
        pairs_checked=11700,
        violation=None,
    )

    def call():
        return goldman.scc_criterion_audit(torus, SCC_LENGTH, workers=SCC_WORKERS)

    def check(report):
        return None if report == expected else f"scc report {report} differs from {expected}"

    return Workload(
        "scc-parallel",
        [Op(call, check)],
        work_per_run=expected.pairs_checked,
        work_unit="class pair",
        inputs={
            "surface": "torus",
            "length_bound": SCC_LENGTH,
            "workers": SCC_WORKERS,
            "classes": expected.classes_checked,
            "simple_classes": expected.simple_classes,
            "pairs": expected.pairs_checked,
        },
    )


_BUILDERS = {
    "audit": _audit,
    "bracket-long": _bracket_long,
    "lemma-sweep": _lemma_sweep,
    "scc-parallel": _scc_parallel,
}


WORKLOADS = tuple(_BUILDERS)


def prepare(name: str, seed: int) -> Workload:
    """Parse the surface and map files and generate the seed's inputs."""
    return _BUILDERS[name](seed)


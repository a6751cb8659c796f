"""curvebracket benchmark: one workload per invocation.

    python3 bench/run.py --workload audit --seed 1 --seconds 28 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  The workloads are defined in
``workloads.py``; why each exists and which layer metric should move
which end-to-end metric is in ``layer_map.json``.

Each invocation:

1. times set-up ``SETUP_REPEATS`` times, half before and half after
   measuring, each in a fresh interpreter that imports the library and
   prepares the workload's inputs (parsing the surface and map files,
   generating the seeded inputs); ``setup_s`` is the median;
2. prepares the inputs in this process and repeats cold runs of the
   workload (library caches cleared first) while another run still fits
   in ``--seconds``; every result is checked, outside the timed region;
3. runs the once-per-invocation checks (the torus slope law);
4. with ``--trace 1``, makes one more run with span-recording wrappers
   installed (``tracing.py``), reports the per-layer metrics, and writes
   the spans to ``.bench_out/``.

Standard output ends with two JSON lines: a detail record (environment,
input sizes, sample counts, the percentile behind ``op_tail_ms``, any
failures) and the result, whose ``metrics`` are the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.

End-to-end metrics, all measured with tracing off:

- ``run_s``: median wall time of one run;
- ``work_per_s``: work units per second over all runs (class pairs for
  ``audit`` and ``scc-parallel``, brackets for ``bracket-long``, lemma
  instances for ``lemma-sweep``);
- ``op_p50_ms``, ``op_tail_ms``: latency of the outside calls.  On
  ``bracket-long`` an operation is one ``bracket_classes`` call; on the
  other workloads it is the whole run (one ``lemma_sweep`` or
  ``scc_criterion_audit`` call, or the two CLI audits).  The tail is the
  highest percentile with at least ten samples beyond it when there are
  at least ``TAIL_MIN_SAMPLES`` samples, and the maximum otherwise;
- ``peak_rss_mb``: peak resident set of this process (the scc-parallel
  workers' peak is in the detail record);
- ``setup_s``: median set-up time, as above.

Operations that raise or return a wrong result count in ``failed``; a
failure never stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"  # metric names and units

SETUP_REPEATS = 8  # half before measuring, half after, to straddle slow spells
TAIL_MIN_SAMPLES = 100
MAX_FAILURE_MESSAGES = 10
LIBRARY_MODULES = ("words", "surface", "linking", "goldman", "amalgam", "auditor", "cli")

# Set-up as a user pays it: a fresh interpreter imports the library and
# prepares the workload, then prints the monotonic clock, which is shared
# by all processes, so interpreter exit is not counted.
# argv: bench dir, src dir, workload, seed.
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4])); print(time.monotonic())"
)


def load_library() -> dict:
    """Import curvebracket from this checkout's src/; returns its modules
    by short name, plus the package itself under 'curvebracket'."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import importlib

    package = importlib.import_module("curvebracket")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"curvebracket was found at {package.__file__}, not under {SRC}")
    modules = {name: importlib.import_module(f"curvebracket.{name}") for name in LIBRARY_MODULES}
    modules["curvebracket"] = package
    return modules


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC), workload, str(seed)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def call_op(op):
    """The op's result, or the exception it raised (checked later)."""
    try:
        return op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return exc


def check_result(op, result) -> str | None:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return op.check(result)


def run_check(check) -> str | None:
    try:
        return check()
    except Exception as exc:  # a failing check is counted, not fatal
        return f"{type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(error)


def measure(wl, seconds: float, tally: Tally, clear_caches) -> tuple[list[float], list[float]]:
    """Cold runs while another fits in the window; returns the run times
    and the per-operation times."""
    runs: list[float] = []
    op_times: list[float] = []
    clock = time.perf_counter
    begin = clock()
    while True:
        clear_caches()
        results = []
        run_start = clock()
        for op in wl.ops:
            t0 = clock()
            results.append(call_op(op))
            op_times.append(clock() - t0)
        runs.append(clock() - run_start)
        for op, result in zip(wl.ops, results):
            tally.add(check_result(op, result))
        del results
        if clock() - begin + statistics.median(runs) > seconds:
            return runs, op_times


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten
    samples beyond it (nearest rank), or the maximum for small samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return xs[-1], 100
    p = 100 * (n - 10) // n
    return xs[math.ceil(p * n / 100) - 1], p


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "curvebracket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def end_to_end(wl, runs, op_times, setup_times) -> tuple[dict, dict]:
    tail_value, tail_p = tail(op_times)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "run_s": statistics.median(runs),
        "work_per_s": wl.work_per_run * len(runs) / sum(runs),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": self_rss,
        "setup_s": statistics.median(setup_times),
    }
    samples = {
        "runs": len(runs),
        "run_s": runs,
        "ops": len(op_times),
        "op_tail_percentile": tail_p,
        "setup_s": setup_times,
        "work_unit": wl.work_unit,
        "work_per_run": wl.work_per_run,
        "children_peak_rss_mb": child_rss,
    }
    return metrics, samples


def traced(wl, modules, tally: Tally, untraced_run_s: float) -> tuple[dict, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer(modules)
    workloads.clear_caches()
    results = tracer.run(lambda: [call_op(op) for op in wl.ops])
    restored = tracer.bindings_restored()
    for op, result in zip(wl.ops, results):
        tally.add(check_result(op, result))
    tally.add(None if restored else "a traced binding was not restored")

    values = tracer.metrics()
    info = workloads.linked_cells_cache_info()
    lookups = info.hits + info.misses
    values["linking.linked_cells.cache_hits"] = info.hits
    values["linking.linked_cells.cache_misses"] = info.misses
    values["linking.linked_cells.hit_ratio"] = info.hits / lookups if lookups else 0.0
    values["trace.untraced_run_s"] = untraced_run_s
    values["trace.overhead_s"] = values["trace.run_s"] - untraced_run_s
    path = OUT / f"spans-{wl.name}.bin"
    tracer.log.write(path)

    layers_s = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    detail = {
        "spans_file": str(path.relative_to(ROOT)),
        "balance_s": layers_s + values["trace.unattributed_s"] - values["trace.run_s"],
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        modules = load_library()
        import workloads
    except ImportError as exc:
        print(f"bench: cannot load the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    setup_times = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    wl = workloads.prepare(args.workload, args.seed)
    tally = Tally()
    runs, op_times = measure(wl, args.seconds, tally, workloads.clear_caches)
    cache = workloads.linked_cells_cache_info()
    setup_times += measure_setup(args.workload, args.seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    for check in wl.post_checks:
        tally.add(run_check(check))
    workloads.clear_caches()

    metrics, samples = end_to_end(wl, runs, op_times, setup_times)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": wl.inputs,
        "samples": samples,
        "linked_cells_cache_last_run": {"hits": cache.hits, "misses": cache.misses},
    }
    if args.trace:
        metrics, detail["trace_detail"] = traced(wl, modules, tally, metrics["run_s"])
    detail["failures"] = tally.messages
    for message in tally.messages:
        print(f"bench: failed: {message}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

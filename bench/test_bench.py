"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import concurrent.futures
import json
import multiprocessing
from pathlib import Path

import pytest

import run

MODULES = run.load_library()

import tracing  # noqa: E402  (needs src/ on sys.path, set by load_library)
import workloads  # noqa: E402

from curvebracket import goldman, linking, words  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {m["name"] for m in BENCHMARK[section]}


def test_self_time_on_a_synthetic_span_tree():
    log = tracing.SpanLog(["root", "a", "b", "c", "d"])
    root = log.add("root", -1, 0.0, 10.0)
    a = log.add("a", root, 1.0, 6.0)
    log.add("b", a, 2.0, 3.0)
    log.add("c", a, 4.0, 5.5)
    log.add("b", root, 7.0, 9.0)
    log.add("d", -1, 20.0, 21.0)  # a second root
    per_name, inclusive = log.totals({"ab": ("a", "b"), "c": ("c",)})
    assert per_name["root"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert per_name["a"] == {"calls": 1, "self_s": 2.5, "total_s": 5.0}
    assert per_name["b"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0}
    assert per_name["c"]["self_s"] == 1.5
    assert per_name["d"]["self_s"] == 1.0
    # the b nested in a is inside the group's outer span and is not added again
    assert inclusive == {"ab": 7.0, "c": 1.5}
    assert sum(v["self_s"] for v in per_name.values()) == 11.0


def _small_workload():
    torus = workloads.load_surface("torus")
    x = words.canonical_cyclic(words.parse_word("aab"))
    y = words.canonical_cyclic(words.parse_word("abAB"))
    argv = workloads.audit_argv("torus_to_pants.map", 2)

    def call():
        return goldman.bracket_classes(torus, x, y), workloads.run_cli(argv)

    def check(result):
        return None if result[1][0] == 3 else "flagship audit did not violate"

    return workloads.Workload("tiny", [workloads.Op(call, check)], 1, "op", {})


def test_traced_run_restores_every_binding():
    originals = {
        (mod, attr): getattr(MODULES[mod], attr) for mod, attr in tracing.TRACED
    }
    bindings = [
        (module, key, value)
        for module in MODULES.values()
        for key, value in vars(module).items()
        if any(value is o for o in originals.values())
    ]
    assert len(bindings) > len(originals)  # names imported into other modules
    tracer = tracing.Tracer(MODULES)
    seen_inside = []

    def body():
        seen_inside.extend(getattr(m, k) is v for m, k, v in bindings)
        return _small_workload().ops[0].call()

    tracer.run(body)
    assert seen_inside and not any(seen_inside), "a binding escaped the wrappers"
    assert all(getattr(m, k) is v for m, k, v in bindings)
    assert tracer.bindings_restored()


def test_traced_metrics_add_up_and_match_benchmark_json():
    tally = run.Tally()
    metrics, detail = run.traced(_small_workload(), MODULES, tally, 0.5)
    assert tally.failed == 0 and tally.attempted == 2
    assert set(metrics) == names("per_layer")
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.run_s"])
    assert detail["balance_s"] == pytest.approx(0.0, abs=1e-9)
    assert metrics["goldman.bracket_classes.calls"] > 1
    assert metrics["goldman.terms"] > 0
    assert metrics["cli.main.self_s"] > 0
    assert metrics["trace.overhead_s"] == metrics["trace.run_s"] - 0.5
    assert (run.ROOT / detail["spans_file"]).stat().st_size > 0


def _child_sees_original():
    return hasattr(linking._linked_cells, "cache_info") and hasattr(
        goldman._linked_cells, "cache_info"
    )


def test_forked_workers_run_untraced():
    tracer = tracing.Tracer(MODULES)
    context = multiprocessing.get_context("fork")

    def body():
        assert not hasattr(goldman._linked_cells, "cache_info")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            return pool.submit(_child_sees_original).result(timeout=60)

    assert tracer.run(body) is True
    assert tracer.bindings_restored()


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(k) for k in range(1, 201)]
    value, p = run.tail(samples)
    assert p == 95 and value == 190.0
    assert sum(s > value for s in samples) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_end_to_end_metrics_match_benchmark_json():
    wl = workloads.Workload("tiny", [], 10, "op", {})
    metrics, samples = run.end_to_end(wl, [1.0, 2.0, 3.0], [0.5, 0.25], [0.1, 0.3])
    assert set(metrics) == names("end_to_end")
    assert metrics["run_s"] == 2.0
    assert metrics["work_per_s"] == 5.0
    assert samples["runs"] == 3


def test_pair_selection_is_seeded_and_stratified():
    pool = workloads.load_pool()
    chosen = workloads.select_pairs(pool, 7)
    assert chosen == workloads.select_pairs(pool, 7)
    assert chosen != workloads.select_pairs(pool, 8)
    per_surface = sum(count for *_, count in workloads.RANDOM_STRATA)
    expected = per_surface * len(workloads.BRACKET_SURFACES) + workloads.SLOPE_PAIRS_PER_RUN
    assert len(chosen) == expected
    assert sum(e["slope"] is not None for e in chosen) == workloads.SLOPE_PAIRS_PER_RUN


def test_layer_map_names_exist():
    layer_map = json.loads((run.BENCH / "layer_map.json").read_text())
    workload_names = names("workloads")
    e2e = names("end_to_end")
    assert set(workloads.WORKLOADS) == workload_names
    for row in layer_map["predictions"]:
        assert row["layer_metric"] in names("per_layer")
        for key in ("moves", "no_move"):
            for workload, metrics in row.get(key, {}).items():
                assert workload in workload_names
                assert set(metrics) <= e2e


def test_benchmark_json_contract_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == [Path(run.BENCH).name]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25

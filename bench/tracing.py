"""Spans recorded from outside the library, around calls into its layers.

``Tracer.install`` replaces every module binding of each traced function
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  A function imported by name into several
modules (``canonical_cyclic`` lives in ``words``, ``goldman``,
``auditor``, ``surface``, ``amalgam`` and the package namespace) is
wrapped at every binding, so no call escapes.  ``uninstall`` puts the
original objects back; untraced runs never see a wrapper.

Spans are held in flat arrays (21 bytes each) because the lemma sweep
makes millions of calls into ``reduce``.  A span's self time is its
duration minus the durations of its direct children; calls are nested
and single-threaded, so children never overlap.  The wrapper's own
bookkeeping runs outside the span it records, so tracing overhead shows
up in the caller's self time, and in the root span when the caller is
the benchmark itself.

Worker processes forked while the tracer is installed put the original
functions back before they run anything, so only parent-side spans are
recorded and workers run at untraced speed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

ROOT_SPAN = "bench.run"

#: (module, attribute) of every traced function; the span name is
#: "module.attribute" and the layer is the module.
TRACED = (
    ("words", "canonical_cyclic"),
    ("words", "reduce"),
    ("words", "enumerate_cyclic_classes"),
    ("surface", "parse_surface"),
    ("surface", "is_peripheral"),
    ("linking", "_linked_cells"),
    ("goldman", "bracket_classes"),
    ("goldman", "is_simple"),
    ("goldman", "scc_criterion_audit"),
    ("amalgam", "_normalize_syllables"),
    ("amalgam", "_cyclic_normalize_syllables"),
    ("amalgam", "brute_force_conjugate_into_factor"),
    ("amalgam", "lemma_sweep"),
    ("auditor", "parse_map_file"),
    ("auditor", "apply_map"),
    ("auditor", "enumerate_classes"),
    ("auditor", "audit_bracket"),
    ("cli", "main"),
)

LAYERS = ("words", "surface", "linking", "goldman", "amalgam", "auditor", "cli")

#: Inclusive-time metrics: the summed duration of the outermost spans of
#: the group (a span nested in another span of its own group is skipped).
INCLUSIVE = {
    "words.enumerate_cyclic_classes.s": ("words.enumerate_cyclic_classes",),
    "surface.parse.s": ("surface.parse_surface", "auditor.parse_map_file"),
    "goldman.is_simple.s": ("goldman.is_simple",),
    "amalgam.oracle.s": ("amalgam.brute_force_conjugate_into_factor",),
    "auditor.enumerate_classes.s": ("auditor.enumerate_classes",),
}

#: metric name -> span name, for call counts and self times.
CALLS = {
    "words.canonical_cyclic.calls": "words.canonical_cyclic",
    "words.reduce.calls": "words.reduce",
    "surface.is_peripheral.calls": "surface.is_peripheral",
    "linking.linked_cells.calls": "linking._linked_cells",
    "goldman.bracket_classes.calls": "goldman.bracket_classes",
    "goldman.is_simple.calls": "goldman.is_simple",
    "amalgam.normalize.calls": "amalgam._normalize_syllables",
    "amalgam.cyclic_normalize.calls": "amalgam._cyclic_normalize_syllables",
    "amalgam.oracle.calls": "amalgam.brute_force_conjugate_into_factor",
    "auditor.apply_map.calls": "auditor.apply_map",
}
SELF = {
    "words.canonical_cyclic.self_s": "words.canonical_cyclic",
    "words.reduce.self_s": "words.reduce",
    "linking.linked_cells.self_s": "linking._linked_cells",
    "goldman.bracket_classes.self_s": "goldman.bracket_classes",
    "goldman.scc_criterion_audit.self_s": "goldman.scc_criterion_audit",
    "amalgam.normalize.self_s": "amalgam._normalize_syllables",
    "amalgam.cyclic_normalize.self_s": "amalgam._cyclic_normalize_syllables",
    "auditor.apply_map.self_s": "auditor.apply_map",
    "auditor.audit_bracket.self_s": "auditor.audit_bracket",
    "cli.main.self_s": "cli.main",
}
COUNTERS = (
    "words.canonical_cyclic.letters",
    "linking.linked_cells.grid",
    "linking.linked_cells.cells",
    "goldman.terms",
    "amalgam.instances",
    "auditor.pairs",
)


class SpanLog:
    """Spans in flat arrays: name id, parent index (-1 for a root),
    start and end in perf_counter seconds."""

    def __init__(self, names):
        self.names = list(names)
        self.name_ids = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")

    def __len__(self):
        return len(self.starts)

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append one finished span; returns its index."""
        self.name_ids.append(self.names.index(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.starts) - 1

    def totals(self, groups=None):
        """Per span name: call count, self time and total duration, plus
        the inclusive time of each group in ``groups`` (metric name ->
        span names)."""
        k = len(self.names)
        calls = [0] * k
        dur = [0.0] * k
        child = [0.0] * k
        group_of = [None] * k
        for metric, members in (groups or {}).items():
            for name in members:
                group_of[self.names.index(name)] = metric
        inclusive = dict.fromkeys(groups or {}, 0.0)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        for i in range(len(starts)):
            n = ids[i]
            d = ends[i] - starts[i]
            calls[n] += 1
            dur[n] += d
            p = parents[i]
            group = group_of[n]
            if p >= 0:
                pn = ids[p]
                child[pn] += d
                if group is not None and group_of[pn] != group:
                    inclusive[group] += d
            elif group is not None:
                inclusive[group] += d
        per_name = {
            name: {"calls": calls[n], "self_s": dur[n] - child[n], "total_s": dur[n]}
            for n, name in enumerate(self.names)
        }
        return per_name, inclusive

    def write(self, path: Path) -> None:
        """One JSON header line, then the four arrays as raw machine
        words in the order the header lists them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": [["name_id", "B"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


class Tracer:
    """Installs span-recording wrappers on the library's modules."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported module
        self.log = SpanLog([ROOT_SPAN] + [f"{m}.{a}" for m, a in TRACED])
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals = {(m, a): getattr(modules[m], a) for m, a in TRACED}
        self._patched: list[tuple[object, str, object]] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self._fork_hook = False
        self._stack = [-1]
        self._hooks = {
            ("words", "canonical_cyclic"): self._count_letters,
            ("linking", "_linked_cells"): self._count_cells,
            ("amalgam", "lemma_sweep"): self._count_instances,
            ("auditor", "audit_bracket"): self._count_pairs,
        }
        self._bracket_id = self.log.names.index("goldman.bracket_classes")

    # -- counters, run after the span closes --------------------------------

    def _count_letters(self, args, result, parent):
        self.counters["words.canonical_cyclic.letters"] += len(args[0])

    def _count_cells(self, args, result, parent):
        c = self.counters
        c["linking.linked_cells.grid"] += len(args[1]) * len(args[2])
        c["linking.linked_cells.cells"] += len(result)
        if parent >= 0 and self.log.name_ids[parent] == self._bracket_id:
            c["goldman.terms"] += len(result)

    def _count_instances(self, args, result, parent):
        self.counters["amalgam.instances"] += result.instances_1 + result.instances_2

    def _count_pairs(self, args, result, parent):
        self.counters["auditor.pairs"] += result.pairs_checked

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        log = self.log
        name_id = log.names.index(name)
        ids, parents, starts, ends = log.name_ids, log.parents, log.starts, log.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parent = stack[-1]
            ids.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, parent)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for (mod, attr), original in self.originals.items():
            wrapper = self._wrap(f"{mod}.{attr}", original, self._hooks.get((mod, attr)))
            self._wrappers.append(wrapper)
            for module in self.modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        self._bindings.extend(self._patched)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._restore_in_child)
            self._fork_hook = True

    def _restore_in_child(self) -> None:
        if self._patched:
            self.uninstall()

    def uninstall(self) -> None:
        for module, key, original in self._patched:
            setattr(module, key, original)
        self._patched.clear()

    def run(self, fn):
        """Call fn inside the root span with the wrappers installed."""
        root = self.log.add(ROOT_SPAN, -1, 0.0, 0.0)
        self._stack.append(root)
        self.install()
        try:
            self.log.starts[root] = time.perf_counter()
            return fn()
        finally:
            self.log.ends[root] = time.perf_counter()
            self.uninstall()
            self._stack.pop()

    def bindings_restored(self) -> bool:
        """True when every binding the tracer replaced holds the original
        object again and no module holds a wrapper."""
        wrappers = {id(w) for w in self._wrappers}
        for module in self.modules.values():
            if any(id(value) in wrappers for value in vars(module).values()):
                return False
        return all(getattr(m, k) is o for m, k, o in self._bindings)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, plus the root span's
        duration (trace.run_s) and self time (trace.unattributed_s)."""
        per_name, inclusive = self.log.totals(INCLUSIVE)
        out: dict[str, float] = {}
        for metric, name in CALLS.items():
            out[metric] = per_name[name]["calls"]
        for metric, name in SELF.items():
            out[metric] = per_name[name]["self_s"]
        out.update(inclusive)
        out.update(self.counters)
        grid = out["linking.linked_cells.grid"]
        out["linking.linked_cells.yield"] = out["linking.linked_cells.cells"] / grid if grid else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v["self_s"] for k, v in per_name.items() if k.split(".", 1)[0] == layer
            )
        out["trace.run_s"] = per_name[ROOT_SPAN]["total_s"]
        out["trace.unattributed_s"] = per_name[ROOT_SPAN]["self_s"]
        out["trace.spans"] = len(self.log)
        return out

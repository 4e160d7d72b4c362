"""Per-layer tracing of pairedcrt from outside the package.

``Tracer.install`` wraps every public function of the package's modules (the
layers) and rebinds the wrapper in every pairedcrt module namespace that
binds the original, so ``pair_greedy_nn`` is traced whether it is reached
through ``matching``, ``simulation`` or ``cli``. While an operation is open
(``begin_op`` .. ``end_op``) each call records a span: name, start, end
(process CPU time, as every time the benchmark reports),
parent span and operation index. Spans stay in memory until ``dump``.

In an operation opened with ``peaks=True``, three spans also record a
``tracemalloc`` peak, started on entry and stopped on exit, so it counts only
what the span itself allocates. ``tracemalloc`` slows every allocation, so
those operations give only the peaks; times and counts come from the other
traced operations. Outside an open operation the wrappers call straight
through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "core", "matching", "assignment", "estimation", "inference", "randtest", "simulation")

#: Spans whose time per operation is reported, as ``<name>_s`` (``cli.cmd_x`` as ``cli.x_s``).
TIMED_SPANS = (
    "cli.cmd_match",
    "cli.cmd_assign",
    "cli.cmd_analyze",
    "cli.cmd_randtest",
    "cli.cmd_simulate",
    "core.read_units",
    "core.read_clusters",
    "core.load_dataset",
    "core.build_dataset",
    "core.summarize",
    "matching.pair_greedy_nn",
    "matching.pair_sorted_scalar",
    "matching.order_pairs_for_variance",
    "matching.read_design",
    "matching.write_design",
    "matching.imbalance_report",
    "assignment.assign_within_pairs",
    "estimation.estimate_size_weighted",
    "estimation.estimate_equal_weighted",
    "inference.infer",
    "randtest.randomization_test",
    "randtest.statistic_batch",
    "simulation.generate_trial",
    "simulation.monte_carlo",
)

#: Spans that record their own allocation peak, and the metric reporting it.
PEAK_SPANS = {
    "matching.pair_greedy_nn": "matching.pair_greedy_nn_peak_mib",
    "matching.order_pairs_for_variance": "matching.order_pairs_peak_mib",
    "randtest.randomization_test": "randtest.peak_mib",
}

#: Counts taken from a call's result: units parsed, swap patterns evaluated.
RESULT_COUNTS = {
    "core.read_units": "core.units_loaded",
    "randtest.statistic_batch": "randtest.patterns",
}

#: Counts of calls.
CALL_COUNTS = {
    "matching.order_pairs_for_variance": "matching.order_pairs_calls",
    "simulation.generate_trial": "simulation.trials",
}

MIB = float(1 << 20)


def metric_name(span: str) -> str:
    return span.replace("cli.cmd_", "cli.") + "_s"


METRICS = (
    *(metric_name(s) for s in TIMED_SPANS),
    "cli.self_s",
    *RESULT_COUNTS.values(),
    *CALL_COUNTS.values(),
    "randtest.patterns_per_s",
    *PEAK_SPANS.values(),
    "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict[str, int]] = []
        self.peak_ops: set[int] = set()
        self._op: int | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module("pairedcrt")]
        modules += [importlib.import_module(f"pairedcrt.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, fn in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    def begin_op(self, peaks: bool) -> None:
        self._op = len(self.counts)
        self.counts.append(defaultdict(int))
        if peaks:
            self.peak_ops.add(self._op)

    def end_op(self) -> None:
        self._op = None

    def _wrap(self, name: str, fn):
        peak = name in PEAK_SPANS
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
                "peak_bytes": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure_peak = peak and self._op in self.peak_ops and not tracemalloc.is_tracing()
            if measure_peak:
                tracemalloc.start()
            span["start"] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.process_time()
                if measure_peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if result_count is not None:
                self.counts[span["op"]][result_count] += len(result)
            return result

        return traced

    def metrics(self, traced_op_s: list[float], untraced_op_s: list[float]) -> dict[str, float]:
        """Per-layer metrics: times and counts as means per timed traced operation."""
        ops = len(self.counts) - len(self.peak_ops)
        covered = defaultdict(float)  # time covered by each span's children
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        total = defaultdict(float)
        peak = defaultdict(int)
        for i, span in enumerate(self.spans):
            if span["op"] in self.peak_ops:
                if span["peak_bytes"] is not None:
                    key = PEAK_SPANS[span["name"]]
                    peak[key] = max(peak[key], span["peak_bytes"])
                continue
            duration = span["end"] - span["start"]
            total[span["name"]] += duration
            if span["name"] in CALL_COUNTS:
                total[CALL_COUNTS[span["name"]]] += 1
            if span["name"].startswith("cli."):
                total["cli.self_s"] += duration - covered[i]
        for op, counts in enumerate(self.counts):
            if op not in self.peak_ops:
                for key, value in counts.items():
                    total[key] += value

        out = {metric_name(s): total[s] / ops for s in TIMED_SPANS}
        out["cli.self_s"] = total["cli.self_s"] / ops
        for key in (*RESULT_COUNTS.values(), *CALL_COUNTS.values()):
            out[key] = total[key] / ops
        kernel_s = total["randtest.statistic_batch"]
        out["randtest.patterns_per_s"] = total["randtest.patterns"] / kernel_s if kernel_s else 0.0
        for key in PEAK_SPANS.values():
            out[key] = peak[key] / MIB
        out["trace.overhead_s"] = statistics.fmean(traced_op_s) - statistics.fmean(untraced_op_s)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "peak_ops": sorted(self.peak_ops)}, fh)

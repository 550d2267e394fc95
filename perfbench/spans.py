"""Per-layer tracing of cnets from outside the program.

Tracer wraps the public functions named in SPANNED at every module
attribute that binds them (a function imported with `from .ann import
batch_mse` is bound in both ann and cross), so each call records a span
(name, start, end, parent). A few calls too frequent or too small for a
span are only counted: RngStream draws and meta fitness lookups. Spans
stay in memory until the run ends; self times are computed from them.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Sequence

# every layer module must be loaded before Tracer scans them for bindings
import cnets.aco
import cnets.ann
import cnets.config
import cnets.core
import cnets.cross
import cnets.harness
import cnets.meta
import cnets.pso
import cnets.records
import cnets.rng

SPANNED = {
    "config": ("build_config",),
    "harness": ("execute",),
    "core": ("run", "fast_step", "slow_step"),
    "aco": ("build_aco_network", "construct_solutions", "evaporate", "deposit", "demon_local_search"),
    "pso": ("build_pso_network", "evaluate", "refresh_neighborhoods", "move"),
    "ann": ("build_ann", "forward", "gradients", "train_step", "batch_mse", "set_weight_vector"),
    "cross": ("cross_train",),
    "meta": ("evaluate_genome", "meta_run", "three_scale_run"),
    "records": ("write_run_file",),
}
RNG_DRAWS = ("uniform", "normal", "integers", "permutation")

# name, start, end, index of the parent span or -1
Span = tuple[str, float, float, int]


def _on_return(counts: Counter, name: str, args: tuple, result) -> None:
    """Counters that need a traced call's arguments or result."""
    if name == "aco.construct_solutions":
        counts["aco.tours_built"] += len(result)
        counts["aco.moves"] += sum(len(path) for path, _ in result)
    elif name == "aco.demon_local_search":
        counts["aco.two_opt.calls"] += 1
        # 2-opt only reverses a segment when that strictly shortens the tour
        counts["aco.two_opt.improved"] += result != list(args[0])


class Tracer:
    """Traces one operation: `with Tracer() as tracer:` installs, exit uninstalls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        hooked = name in ("aco.construct_solutions", "aco.demon_local_search")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if hooked:
                _on_return(counts, name, args, result)
            return result

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items()) if key == "cnets" or key.startswith("cnets.")
        ]
        for layer, names in SPANNED.items():
            home = sys.modules[f"cnets.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._span(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        # meta's fitness closure keys its cache through this helper once
        # per lookup; it is the only place a lookup can be counted
        self._patch(cnets.meta, "_genome_key", self._counted("meta.fitness_lookups", cnets.meta._genome_key))
        for method in RNG_DRAWS:
            self._patch(
                cnets.rng.RngStream, method,
                self._counted("rng.draw_calls", getattr(cnets.rng.RngStream, method)),
            )
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path: str, tracers: Sequence[Tracer]) -> None:
    """Every operation's spans as gzipped JSON lines: [operation, name, start, end, parent]."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for operation, tracer in enumerate(tracers):
            for span in tracer.spans:
                handle.write(json.dumps([operation, *span]) + "\n")


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(start, end, children[i])
        for i, (_, start, end, _) in enumerate(spans)
    ]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, p in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(samples: int) -> float:
    """The highest of these percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def operation_metrics(spans: Sequence[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced operation (build_config plus execute)."""
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for span, self_s in zip(spans, selfs):
        name = span[0]
        total[name] += span[2] - span[1]
        own[name] += self_s
        calls[name] += 1
    execute_s = total["harness.execute"]
    lookups = counts["meta.fitness_lookups"]
    two_opt = counts["aco.two_opt.calls"]
    moves = counts["aco.moves"]
    return {
        "config.build_config_s": total["config.build_config"],
        "harness.execute.self_s": own["harness.execute"],
        "aco.build_aco_network_s": total["aco.build_aco_network"],
        "ann.build_ann_s": total["ann.build_ann"],
        "pso.build_pso_network_s": total["pso.build_pso_network"],
        "core.run.calls": calls["core.run"],
        "core.run.self_s": own["core.run"],
        "core.fast_step_s": total["core.fast_step"],
        "core.slow_step_s": total["core.slow_step"],
        "aco.construct_solutions_s": total["aco.construct_solutions"],
        "aco.tours_built": counts["aco.tours_built"],
        "aco.construct_us_per_move": 1e6 * total["aco.construct_solutions"] / moves if moves else 0.0,
        "rng.draw_calls": counts["rng.draw_calls"],
        "aco.demon_local_search_s": total["aco.demon_local_search"],
        "aco.two_opt_improved_ratio": counts["aco.two_opt.improved"] / two_opt if two_opt else 0.0,
        "aco.evaporate_s": total["aco.evaporate"],
        "aco.deposit_s": total["aco.deposit"],
        "aco.build_aco_network.calls": calls["aco.build_aco_network"],
        "meta.evaluate_genome_s": total["meta.evaluate_genome"],
        "meta.evaluate_genome.calls": calls["meta.evaluate_genome"],
        "meta.cache_hit_ratio": (lookups - calls["meta.evaluate_genome"]) / lookups if lookups else 0.0,
        "meta.ga.self_s": own["meta.meta_run"],
        "ann.forward_s": total["ann.forward"],
        "ann.forward.calls": calls["ann.forward"],
        "ann.gradients_s": total["ann.gradients"],
        "ann.train_step.self_s": own["ann.train_step"],
        "ann.set_weight_vector_s": total["ann.set_weight_vector"],
        "ann.set_weight_vector.calls": calls["ann.set_weight_vector"],
        "ann.batch_mse_s": total["ann.batch_mse"],
        "ann.batch_mse.calls": calls["ann.batch_mse"],
        "pso.evaluate.self_s": own["pso.evaluate"],
        "pso.refresh_neighborhoods_s": total["pso.refresh_neighborhoods"],
        "pso.move_s": total["pso.move"],
        "cross.cross_train.self_s": own["cross.cross_train"],
        "records.write_run_file_s": total["records.write_run_file"],
        "trace.coverage": (execute_s - own["harness.execute"]) / execute_s if execute_s else 0.0,
    }


def durations_ms(spans: Sequence[Span], name: str, parent: str | None = None) -> list[float]:
    """Durations of the spans called name, optionally only under a parent of that name."""
    return [
        1e3 * (end - start)
        for span_name, start, end, up in spans
        if span_name == name and (parent is None or (up >= 0 and spans[up][0] == parent))
    ]


def missing_layers(spans: Sequence[Span], counts: Counter, layers: Iterable[str]) -> list[str]:
    """Expected layers that recorded no span (rng: no counted draw)."""
    seen = {name.split(".", 1)[0] for name, *_ in spans}
    if counts["rng.draw_calls"]:
        seen.add("rng")
    return [layer for layer in layers if layer not in seen]

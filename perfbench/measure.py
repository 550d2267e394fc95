"""Measurement of one workload: operations, set-up, checks and the traced run.

Imported by run.py once src/ is on sys.path and the BLAS thread count is set.
"""
from __future__ import annotations

import contextlib
import ctypes
import gc
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

import numpy
from cnets import config, core, harness, records
from cnets.problems import TourGraph

import spans
import workloads

# At least this many operations per run, however long they take: the
# determinism check needs two and a median wants three.
MIN_OPERATIONS = 3
# A shared host switches within seconds between speeds up to 1.8x apart
# (see README.md). Every reported time is therefore
# scaled by a fixed reference computation timed just before and after its
# operation: it reads as measured on a machine where reference_work() takes
# REFERENCE_NOMINAL_S. Changing either re-baselines every reported time.
REFERENCE_NOMINAL_S = 0.00125
REFERENCE_SLICE_SECONDS = 0.03
_REFERENCE_WEIGHTS = [float(i % 7) for i in range(500)]
_REFERENCE_TABLE = dict(enumerate(_REFERENCE_WEIGHTS))

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER = {
    "final_best": "objective",
    "config.build_config_s": "s",
    "harness.execute.self_s": "s",
    "aco.build_aco_network_s": "s",
    "ann.build_ann_s": "s",
    "pso.build_pso_network_s": "s",
    "core.run.calls": "count",
    "core.run.self_s": "s",
    "core.fast_step_s": "s",
    "core.slow_step_s": "s",
    "core.slow_step_ms_p50": "ms",
    "core.slow_step_ms_tail": "ms",
    "aco.construct_solutions_s": "s",
    "aco.tours_built": "count",
    "aco.construct_us_per_move": "us",
    "rng.draw_calls": "count",
    "aco.demon_local_search_s": "s",
    "aco.two_opt_improved_ratio": "ratio",
    "aco.evaporate_s": "s",
    "aco.deposit_s": "s",
    "aco.build_aco_network.calls": "count",
    "meta.evaluate_genome_s": "s",
    "meta.evaluate_genome.calls": "count",
    "meta.cache_hit_ratio": "ratio",
    "meta.inner_run_ms_p50": "ms",
    "meta.inner_run_ms_tail": "ms",
    "meta.ga.self_s": "s",
    "ann.forward_s": "s",
    "ann.forward.calls": "count",
    "ann.gradients_s": "s",
    "ann.train_step.self_s": "s",
    "ann.set_weight_vector_s": "s",
    "ann.set_weight_vector.calls": "count",
    "ann.batch_mse_s": "s",
    "ann.batch_mse.calls": "count",
    "pso.evaluate.self_s": "s",
    "pso.refresh_neighborhoods_s": "s",
    "pso.move_s": "s",
    "cross.cross_train.self_s": "s",
    "records.write_run_file_s": "s",
    "records.bytes": "bytes",
    "records.lines": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None where that cannot be asked."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def reference_work() -> float:
    """Fixed interpreter work, independent of cnets; it allocates no containers."""
    weights, table = _REFERENCE_WEIGHTS, _REFERENCE_TABLE
    total = 0.0
    for _ in range(20):
        for i in range(500):
            total += table[i] ** 1.5 * weights[-i]
    return total


def reference_seconds() -> float:
    """Median time of reference_work over REFERENCE_SLICE_SECONDS."""
    times: list[float] = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < REFERENCE_SLICE_SECONDS:
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def _stamp_first_call(owner: object, attr: str, stamps: list[float]):
    """Append the time of the first call of owner.attr to stamps; that call unhooks it."""
    original = getattr(owner, attr)

    def hook(*args, **kwargs):
        stamps.append(time.perf_counter())
        setattr(owner, attr, original)
        return original(*args, **kwargs)

    setattr(owner, attr, hook)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _time_left(started: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more operation of the usual length still ends within seconds."""
    typical = statistics.median(walls) if walls else 0.0
    return time.perf_counter() - started + typical <= seconds


class Bench:
    """One workload in one temporary directory, run operation by operation."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.work = work
        self.data = workloads.make_inputs(name, seed, work)
        self.steps = workloads.expected_steps(self.data)
        self.out = os.path.join(work, self.data["out"])
        self.graph = (
            TourGraph.from_csv(os.path.join(work, workloads.CITIES_FILE))
            if name == "tsp-colony" else None
        )
        self.first_records: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.final_best: float | None = None

    def operation(self, tracer=None) -> tuple[float, float] | None:
        """One build_config plus execute; None if it fails.

        Returns (set-up, execute) wall seconds. Set-up runs from the start
        of build_config to the first fast_step that core.run calls: every
        build the program does before its first fast step, as it does it.
        """
        gc.collect()
        self.attempted += 1
        first_fast_step: list[float] = []
        try:
            with tracer or contextlib.nullcontext(), _stamp_first_call(core, "fast_step", first_fast_step):
                t0 = time.perf_counter()
                cfg = config.build_config(self.data, self.work)
                t1 = time.perf_counter()
                result = harness.execute(cfg)
                wall = time.perf_counter() - t1
            problems = workloads.check_run_file(self.name, self.out, self.steps, self.graph)
            if not first_fast_step:
                problems.append("no fast step ran")
            content = records.comparable_bytes(self.out)
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            self.failed += 1
            return None
        if self.first_records is None:
            self.first_records = content
        elif content != self.first_records:
            problems.append("record file differs from the first run of the same config and seed")
        if problems:
            print(f"perfbench: {self.name}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        self.final_best = result.records[-1].best_value
        return first_fast_step[0] - t0, wall


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    """Times are scaled by the references around their operation.

    Execute is scaled by the mean of the references before and after it,
    set-up, which comes first in the operation, by the one before it.
    """
    walls: list[float] = []
    rates: list[float] = []
    setup: list[float] = []
    raw_setup: list[float] = []
    references = [reference_seconds()]
    started = time.perf_counter()
    while bench.attempted < MIN_OPERATIONS or _time_left(started, seconds, walls):
        timed = bench.operation()
        references.append(reference_seconds())
        if timed is None:
            continue
        setup_s, wall = timed
        before, after = references[-2:]
        walls.append(wall)
        rates.append(bench.steps / wall * (before + after) / (2 * REFERENCE_NOMINAL_S))
        setup.append(setup_s * REFERENCE_NOMINAL_S / before)
        raw_setup.append(setup_s)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "steps_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_share": 1.0 - bench.failed / bench.attempted,
    }
    return metrics, {
        "operations": len(walls),
        "unscaled_setup_s": statistics.median(raw_setup) if raw_setup else 0.0,
        "unscaled_steps_per_s": statistics.median(bench.steps / w for w in walls) if walls else 0.0,
        "reference_s": statistics.median(references),
    }


def per_layer(bench: Bench, seconds: float, spans_path: str) -> tuple[dict[str, float], dict, list[str]]:
    """Times are scaled by the references around their operation, as end to end."""
    walls: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[tuple[spans.Tracer, float]] = []
    references = [reference_seconds()]
    started = time.perf_counter()
    while bench.attempted < 2 * MIN_OPERATIONS or _time_left(started, seconds, walls):
        # alternate, untraced first, so both kinds see the same machine
        tracer = spans.Tracer() if bench.attempted % 2 else None
        timed = bench.operation(tracer)
        references.append(reference_seconds())
        if timed is None:
            continue
        wall = timed[1]
        walls.append(wall)
        scale = 2 * REFERENCE_NOMINAL_S / (references[-2] + references[-1])
        if tracer is None:
            plain.append(wall * scale)
        else:
            traced.append(wall * scale)
            tracers.append((tracer, scale))
    if not tracers or not plain:
        return {name: 0.0 for name in PER_LAYER}, {}, ["too few operations succeeded"]

    per_op = []
    for tracer, scale in tracers:
        op = spans.operation_metrics(tracer.spans, tracer.counts)
        per_op.append({k: v * scale if PER_LAYER[k] in ("s", "us") else v for k, v in op.items()})
    metrics = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    all_spans = [span for tracer, _ in tracers for span in tracer.spans]
    slow_ms = [ms * scale for tracer, scale in tracers for ms in spans.durations_ms(tracer.spans, "core.slow_step")]
    inner_ms = [
        ms * scale
        for tracer, scale in tracers
        for ms in spans.durations_ms(tracer.spans, "core.run", parent="meta.evaluate_genome")
    ]
    for key, samples in (("core.slow_step_ms", slow_ms), ("meta.inner_run_ms", inner_ms)):
        tail = spans.tail_percentile(len(samples))
        metrics[f"{key}_p50"] = spans.percentile(samples, 50) if samples else 0.0
        metrics[f"{key}_tail"] = spans.percentile(samples, tail) if samples else 0.0
    with open(bench.out, "rb") as handle:
        content = handle.read()
    metrics["records.bytes"] = len(content)
    metrics["records.lines"] = content.count(b"\n")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["final_best"] = bench.final_best

    errors = []
    counts = sum((tracer.counts for tracer, _ in tracers), start=Counter())
    layers = workloads.WORKLOADS[bench.name].layers
    missing = spans.missing_layers(all_spans, counts, layers)
    if missing:
        errors.append(f"layers expected but not traced: {missing}")
    if "meta" in layers and not counts["meta.fitness_lookups"] >= metrics["meta.evaluate_genome.calls"] > 0:
        errors.append("meta fitness lookups were not counted")

    spans.write_spans(spans_path, [tracer for tracer, _ in tracers])
    samples = {
        "traced_operations": len(tracers),
        "untraced_operations": len(plain),
        "core.slow_step_samples": len(slow_ms),
        "core.slow_step_tail_percentile": spans.tail_percentile(len(slow_ms)),
        "meta.inner_run_samples": len(inner_ms),
        "meta.inner_run_tail_percentile": spans.tail_percentile(len(inner_ms)),
    }
    return metrics, samples, errors


def run(root: str, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the info line and the result line.

    Inputs and record files live in a temporary directory under root;
    a traced run also writes its spans to root/.perfbench-spans/.
    """
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as work:
        bench = Bench(name, seed, work)
        if trace:
            spans_dir = os.path.join(root, ".perfbench-spans")
            os.makedirs(spans_dir, exist_ok=True)
            metrics, samples, errors = per_layer(
                bench, seconds, os.path.join(spans_dir, f"{name}-seed{seed}.jsonl.gz")
            )
            units = PER_LAYER
        else:
            metrics, samples = end_to_end(bench, seconds)
            units = END_TO_END
    for error in errors:
        print(f"perfbench: self-check: {error}", file=sys.stderr)
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        **samples,
    }
    result = {
        "correct": bench.failed == 0 and not errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return info, result

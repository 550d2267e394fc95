"""The benchmark's own checks pass on the two workloads that run colonies.

perfbench/measure.py fails an operation whose record file is wrong,
whose records differ between operations or that never calls
core.fast_step through the module attribute; its traced run reports an
error when a layer records no span or the meta fitness lookups are not
counted. This runs those checks here, at seed 1, traced and untraced
operations alternating, on meta-colony (many colonies joined in
lockstep) and tsp-colony (one colony, on its own), so a colony path that
trips one fails tier-1, as does a construct_solutions result that the
tracer cannot count tours and moves from.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402


@pytest.mark.parametrize(
    "workload, final_best, tours",
    [
        # every ant of every inner run still walks: 140 inner runs x 30 steps x 10 ants
        ("meta-colony", 800.0, 42_000),
        # 16 slow steps x 10 ants
        ("tsp-colony", 812.705053010514, 160),
    ],
    ids=["meta-colony", "tsp-colony"],
)
def test_colony_workload_passes_the_benchmark_checks(tmp_path, workload, final_best, tours):
    bench = measure.Bench(workload, 1, str(tmp_path))
    metrics, _, errors = measure.per_layer(bench, 0.0, str(tmp_path / "spans.jsonl.gz"))
    assert errors == []
    assert bench.failed == 0 and bench.attempted >= 2 * measure.MIN_OPERATIONS
    assert metrics["final_best"] == final_best
    assert metrics["aco.tours_built"] == tours
    # the tracer counts moves by iterating construct_solutions' (path, length) pairs
    assert metrics["aco.construct_us_per_move"] > 0

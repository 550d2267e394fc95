"""The benchmark's own checks pass on the meta-colony workload.

perfbench/measure.py fails an operation whose record file is wrong,
whose records differ between operations or that never calls
core.fast_step through the module attribute; its traced run reports an
error when a layer records no span or the meta fitness lookups are not
counted. This runs those checks here, at seed 1, traced and untraced
operations alternating, so a lockstep path that trips one fails tier-1.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402


def test_meta_colony_passes_the_benchmark_checks(tmp_path):
    bench = measure.Bench("meta-colony", 1, str(tmp_path))
    metrics, _, errors = measure.per_layer(bench, 0.0, str(tmp_path / "spans.jsonl.gz"))
    assert errors == []
    assert bench.failed == 0 and bench.attempted >= 2 * measure.MIN_OPERATIONS
    assert metrics["final_best"] == 800.0
    # every ant of every inner run still walks: 140 inner runs x 30 steps x 10 ants
    assert metrics["aco.tours_built"] == 42_000

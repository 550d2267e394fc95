"""Tests of the benchmark itself: python -m pytest perfbench (from the repository root)."""
import json
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cnets import core, cross, harness  # noqa: E402
from cnets.records import read_run_file, write_run_file  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(tmp_path, name):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    data = workloads.make_inputs(name, 7, str(first))
    assert workloads.make_inputs(name, 7, str(second)) == data
    assert _files(first) == _files(second)
    workloads.make_inputs(name, 8, str(other))
    assert _files(other) != _files(first)


def _short_tsp(tmp_path, steps=2):
    data = workloads.make_inputs("tsp-colony", 5, str(tmp_path))
    data["schedule"]["slow_steps"] = steps
    return data


def _tampering_execute(tamper):
    real = harness.execute

    def execute(cfg):
        result = real(cfg)
        header, recs = read_run_file(cfg.out)
        tamper(recs)
        write_run_file(cfg.out, header, recs)
        return result

    return execute


def _repeat_a_city(recs):
    recs[-1].network_output[:2] = [recs[-1].network_output[0]] * 2


def _raise_best_value(recs):
    recs[-1].best_value = recs[-2].best_value + 1.0


def _change_a_parameter(recs):
    # passes every per-file check; only the comparison with the first run sees it
    recs[-1].parameter_snapshot["alpha"] += 1.0


@pytest.mark.parametrize("tamper", [_repeat_a_city, _raise_best_value, _change_a_parameter])
def test_tampered_record_file_is_a_failed_operation(tmp_path, monkeypatch, tamper):
    bench = measure.Bench("tsp-colony", 5, str(tmp_path))
    bench.data = _short_tsp(tmp_path)
    bench.steps = 2
    assert bench.operation() is not None
    monkeypatch.setattr(harness, "execute", _tampering_execute(tamper))
    assert bench.operation() is None
    assert (bench.attempted, bench.failed) == (2, 1)


def _lower_best_value(recs):
    recs[-1].best_value -= 1.0


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (None, None),
        (_repeat_a_city, "not a permutation"),
        (_raise_best_value, "best_value increased"),
        (_lower_best_value, "tour length differs"),
    ],
)
def test_check_names_what_is_wrong_with_a_record_file(tmp_path, tamper, problem):
    bench = measure.Bench("tsp-colony", 5, str(tmp_path))
    bench.data, bench.steps = _short_tsp(tmp_path), 2
    assert bench.operation() is not None
    if tamper is not None:
        header, recs = read_run_file(bench.out)
        tamper(recs)
        write_run_file(bench.out, header, recs)
    problems = workloads.check_run_file("tsp-colony", bench.out, 2, bench.graph)
    if tamper is None:
        assert problems == []
    else:
        assert any(problem in p for p in problems), problems
    assert workloads.check_run_file("tsp-colony", bench.out, 3, bench.graph) != []


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ("harness.execute", 0.0, 10.0, -1),
        ("core.run", 1.0, 4.0, 0),
        ("core.fast_step", 2.0, 3.0, 1),
        ("records.write_run_file", 5.0, 9.0, 0),
        ("core.slow_step", 6.0, 7.0, 3),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 1.0]
    assert spans.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == 6.0
    metrics = spans.operation_metrics(tree, Counter())
    assert metrics["harness.execute.self_s"] == 3.0
    assert metrics["core.run.self_s"] == 2.0
    assert metrics["core.run.calls"] == 1
    assert metrics["trace.coverage"] == 0.7


def test_percentiles():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 90) == 90
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(5) == 50.0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from cnets import config

    data = _short_tsp(tmp_path, steps=1)
    with spans.Tracer() as tracer:
        assert cross.run is core.run is harness.run
        assert core.run.__wrapped__ is not None
        harness.execute(config.build_config(data, str(tmp_path)))
    assert not hasattr(core.run, "__wrapped__") and cross.run is core.run
    by_name = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[by_name["core.run"]][0] == "harness.execute"
    assert tracer.counts["rng.draw_calls"] > 0
    assert tracer.counts["aco.tours_built"] == 10
    assert spans.missing_layers(tracer.spans, tracer.counts, ("harness", "core", "aco", "records", "rng")) == []
    assert spans.missing_layers(tracer.spans, tracer.counts, ("meta",)) == ["meta"]


def test_benchmark_json_matches_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER


def test_set_up_ends_at_the_first_fast_step_and_unhooks_it(tmp_path, monkeypatch):
    bench = measure.Bench("tsp-colony", 5, str(tmp_path))
    bench.data, bench.steps = _short_tsp(tmp_path), 2
    fast_step = core.fast_step
    calls = []

    def execute(cfg):
        # the hook is installed for the first fast step only
        assert core.fast_step is not fast_step
        result = real(cfg)
        calls.append(core.fast_step is fast_step)
        return result

    real = harness.execute
    monkeypatch.setattr(harness, "execute", execute)
    setup, wall = bench.operation()
    assert calls == [True] and core.fast_step is fast_step
    assert setup > 0 and wall > 0

    def fail(cfg):
        raise RuntimeError("no run")

    monkeypatch.setattr(harness, "execute", fail)
    assert bench.operation() is None
    assert core.fast_step is fast_step


class _FixedBench:
    """Stands in for Bench: every operation takes 0.01 s of set-up and 0.5 s of execute."""

    steps, attempted, failed, final_best = 10, 0, 0, 1.0

    def operation(self):
        self.attempted += 1
        return 0.01, 0.5


def test_end_to_end_times_are_scaled_by_the_reference(monkeypatch):
    monkeypatch.setattr(measure, "reference_seconds", lambda: 2 * measure.REFERENCE_NOMINAL_S)
    metrics, info = measure.end_to_end(_FixedBench(), 0.0)
    # the machine ran at half the nominal speed, so nominal figures are twice as good
    assert metrics["steps_per_s"] == pytest.approx(2 * 10 / 0.5)
    assert metrics["setup_s"] == pytest.approx(0.01 / 2)
    assert info["unscaled_steps_per_s"] == pytest.approx(10 / 0.5)
    assert metrics["ok_share"] == 1.0

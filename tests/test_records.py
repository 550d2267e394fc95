import json
import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import records_oracle as oracle
from cnets.core import RunRecord
from cnets.errors import RecordIoError
from cnets.records import (
    SUMMARY_COLUMNS,
    comparable_bytes,
    read_run_file,
    record_from_dict,
    record_to_dict,
    summarize,
    summary_csv,
    write_run_file,
)


def sample_records():
    return [
        RunRecord(
            slow_step=0,
            best_value=None,
            network_output=[0.0, 1.0],
            parameter_snapshot={"alpha": 1.0},
            wall_clock_ms=0.0,
        ),
        RunRecord(
            slow_step=1,
            best_value=12.5,
            network_output=[1.0, 0.0],
            parameter_snapshot={"alpha": 1.5},
            wall_clock_ms=3.25,
        ),
    ]


def sample_config(out=None):
    config = {"architecture": "aco", "seed": 7}
    if out is not None:
        config["out"] = out
    return config


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(out=path), sample_records())
        config, records = read_run_file(path)
        assert config == sample_config(out=path)
        assert records == sample_records()

    def test_missing_parents_are_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "run.jsonl")
        write_run_file(path, sample_config(), sample_records())
        _, records = read_run_file(path)
        assert len(records) == 2

    def test_header_is_first_line_and_compact(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(), sample_records())
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert lines[0] == '{"config":{"architecture":"aco","seed":7}}'
        assert len(lines) == 3

    def test_null_best_value_survives(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(), sample_records())
        first = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[1])
        assert first["best_value"] is None
        _, records = read_run_file(path)
        assert records[0].best_value is None

    def test_non_finite_values_refused(self, tmp_path):
        bad = sample_records()
        bad[1] = RunRecord(
            slow_step=1,
            best_value=math.inf,
            network_output=[],
            parameter_snapshot={},
            wall_clock_ms=0.0,
        )
        with pytest.raises(RecordIoError):
            write_run_file(str(tmp_path / "run.jsonl"), sample_config(), bad)

    def test_a_rewrite_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, {"architecture": "eca"}, [])
        write_run_file(path, sample_config(), sample_records())
        assert read_run_file(path) == (sample_config(), sample_records())
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_a_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(), sample_records())
        earlier = (tmp_path / "run.jsonl").read_bytes()

        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(RecordIoError, match="disk full"):
            write_run_file(path, {"architecture": "eca"}, sample_records()[:1])
        assert (tmp_path / "run.jsonl").read_bytes() == earlier
        assert os.listdir(tmp_path) == ["run.jsonl"]  # no run.jsonl.tmp left behind


# zeros and ones of each kind are equal under == but print differently
ALIKE = st.sampled_from([0.0, -0.0, 0, False, 1.0, 1, True, -1.0, -1])
NUMBERS = st.one_of(
    ALIKE, st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70)
)
# a nested list is no record's value, but the writer must not reuse text across one
ATOMS = st.one_of(NUMBERS, st.lists(ALIKE, min_size=1, max_size=2))
OUTPUTS = st.lists(ATOMS, max_size=5)
SNAPSHOTS = st.dictionaries(st.sampled_from(["alpha", "beta", "particles"]), ATOMS, max_size=3)


def _flip(value):
    if type(value) is list:
        return [_flip(v) for v in value]
    return -value if type(value) is float and value == 0 else value


def _recast(value):
    """An equal value of another kind, where one exists."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return float(value) if abs(value) < 2**53 else value
    return bool(value) if value in (0.0, 1.0) else value


def _next_output(draw, previous):
    """Mostly the previous output, as it was or changed where == cannot see it."""
    how = draw(st.sampled_from(["repeat", "repeat", "flip", "recast", "fresh"]))
    if how == "fresh":
        return draw(OUTPUTS)
    change = {"repeat": lambda v: v, "flip": _flip, "recast": _recast}[how]
    return [change(v) for v in previous]


@st.composite
def record_runs(draw):
    output = draw(OUTPUTS)
    runs = []
    for step in range(draw(st.integers(0, 12))):
        runs.append(
            RunRecord(
                slow_step=step,
                best_value=draw(st.one_of(st.none(), NUMBERS)),
                network_output=output,
                parameter_snapshot=draw(SNAPSHOTS),
                wall_clock_ms=draw(NUMBERS),
            )
        )
        output = _next_output(draw, output)
    return runs


class TestWriterAgainstTheOracle:
    @given(records=record_runs())
    @settings(max_examples=300, deadline=None)
    def test_file_bytes_equal_plain_dumps(self, records):
        config = sample_config()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "run.jsonl")
            write_run_file(path, config, records)
            with open(path) as handle:
                assert handle.read() == oracle.run_file_text(config, records)

    @given(
        records=record_runs().filter(bool),
        where=st.sampled_from(["network_output", "parameter_snapshot", "best_value", "wall_clock_ms"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_non_finite_value_leaves_no_file(self, records, where, value, data):
        k = data.draw(st.integers(0, len(records) - 1))
        bad = records[k]
        if where == "network_output":
            bad.network_output = [*bad.network_output, value]
        elif where == "parameter_snapshot":
            bad.parameter_snapshot = {**bad.parameter_snapshot, "bad": value}
        else:
            setattr(bad, where, value)
        with tempfile.TemporaryDirectory() as directory:
            with pytest.raises(RecordIoError, match="not strict-JSON serializable"):
                write_run_file(os.path.join(directory, "run.jsonl"), sample_config(), records)
            assert os.listdir(directory) == []


class TestRecordDicts:
    def test_round_trip(self):
        for record in sample_records():
            assert record_from_dict(record_to_dict(record)) == record

    def test_missing_key_rejected(self):
        data = record_to_dict(sample_records()[1])
        del data["network_output"]
        with pytest.raises(RecordIoError, match="missing"):
            record_from_dict(data)

    def test_unknown_key_rejected(self):
        data = record_to_dict(sample_records()[1])
        data["surprise"] = 1
        with pytest.raises(RecordIoError, match="unknown"):
            record_from_dict(data)


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordIoError):
            read_run_file(str(tmp_path / "absent.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(RecordIoError, match="empty"):
            read_run_file(str(path))

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"config":{}}\nnot json\n')
        with pytest.raises(RecordIoError, match=":2"):
            read_run_file(str(path))

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record_line = json.dumps(record_to_dict(sample_records()[1]))
        path.write_text(record_line + "\n")
        with pytest.raises(RecordIoError, match="header"):
            read_run_file(str(path))

    @pytest.mark.parametrize(
        "header, change, where",
        [
            ({"config": {}}, 5, ":3: record line is not an object"),
            ({"config": {}}, {"slow_step": "x"}, r":3: .*wrong kind for \['slow_step'\]"),
            ({"config": {}}, {"network_output": 5}, r":3: .*wrong kind for \['network_output'\]"),
            ({"config": {}}, {"best_value": True}, r":3: .*wrong kind for \['best_value'\]"),
            ({"config": {}}, {"parameter_snapshot": {"a": "1"}}, r":3: .*wrong kind"),
            ({"config": 5}, {}, ":1: expected a header line with a config object"),
        ],
        ids=["number-line", "string-slow-step", "number-output", "bool-best", "string-param", "number-config"],
    )
    def test_malformed_line_names_its_place(self, tmp_path, header, change, where):
        """A record line that is not an object, a field of the wrong kind, or a
        header whose config is not an object is a RecordIoError at path:line."""
        good = record_to_dict(sample_records()[1])
        bad = {**good, **change} if isinstance(change, dict) else change
        path = tmp_path / "malformed.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in (header, good, bad)))
        with pytest.raises(RecordIoError, match=f"malformed.jsonl{where}"):
            read_run_file(str(path))

    @pytest.mark.parametrize("line", [1, 2])
    @pytest.mark.parametrize(
        "constant", ["NaN", "Infinity", "-Infinity", "1" + "0" * 5000, "1" * 401, "1e400"],
        ids=["NaN", "Infinity", "-Infinity", "5001-digits", "401-digits", "1e400"],
    )
    def test_non_strict_number_names_its_line(self, tmp_path, line, constant):
        """Python's json reads NaN, Infinity and -Infinity, which write_run_file
        refuses to write; they, and a number that overflows a float, are a
        RecordIoError at path:line, in the header as in a record."""
        lines = [{"config": {"seed": 1}}, record_to_dict(sample_records()[1])]
        if line == 1:
            lines[0]["config"]["seed"] = "MARK"
        else:
            lines[1]["best_value"] = "MARK"
        path = tmp_path / "constant.jsonl"
        path.write_text("".join(json.dumps(data) + "\n" for data in lines).replace('"MARK"', constant))
        with pytest.raises(RecordIoError, match=f"constant.jsonl:{line}: invalid JSON"):
            read_run_file(str(path))


class TestComparableBytes:
    def test_strips_wall_clock_and_out(self, tmp_path):
        here = str(tmp_path / "a" / "run.jsonl")
        there = str(tmp_path / "b" / "copy.jsonl")
        records = sample_records()
        slower = [
            RunRecord(
                slow_step=r.slow_step,
                best_value=r.best_value,
                network_output=r.network_output,
                parameter_snapshot=r.parameter_snapshot,
                wall_clock_ms=r.wall_clock_ms + 100.0,
            )
            for r in records
        ]
        write_run_file(here, sample_config(out=here), records)
        write_run_file(there, sample_config(out=there), slower)
        assert comparable_bytes(here) == comparable_bytes(there)

    def test_detects_differing_payloads(self, tmp_path):
        here = str(tmp_path / "run1.jsonl")
        there = str(tmp_path / "run2.jsonl")
        records = sample_records()
        changed = list(records)
        changed[1] = RunRecord(
            slow_step=1,
            best_value=99.0,
            network_output=[1.0, 0.0],
            parameter_snapshot={"alpha": 1.5},
            wall_clock_ms=3.25,
        )
        write_run_file(here, sample_config(), records)
        write_run_file(there, sample_config(), changed)
        assert comparable_bytes(here) != comparable_bytes(there)


class TestSummaries:
    def write_sample(self, tmp_path, name, seed, best):
        path = str(tmp_path / name)
        config = {"architecture": "pso", "seed": seed}
        records = [
            RunRecord(
                slow_step=0,
                best_value=None,
                network_output=[],
                parameter_snapshot={},
                wall_clock_ms=1.0,
            ),
            RunRecord(
                slow_step=3,
                best_value=best,
                network_output=[],
                parameter_snapshot={},
                wall_clock_ms=2.5,
            ),
        ]
        write_run_file(path, config, records)
        return path

    def test_rows_are_sorted_by_path(self, tmp_path):
        b = self.write_sample(tmp_path, "b.jsonl", seed=2, best=4.0)
        a = self.write_sample(tmp_path, "a.jsonl", seed=1, best=8.0)
        rows = summarize([b, a])
        assert [r["file"] for r in rows] == [a, b]
        assert [r["seed"] for r in rows] == [1, 2]
        assert [r["final_best"] for r in rows] == [8.0, 4.0]
        assert [r["iterations"] for r in rows] == [3, 3]
        assert [r["wall_clock_ms"] for r in rows] == [3.5, 3.5]

    def test_architecture_detection_prefers_the_explicit_field(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, {"architecture": "eca", "seed": 0}, sample_records())
        assert summarize([path])[0]["architecture"] == "eca"

    def test_csv_shape_and_empty_none(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        records = [sample_records()[0]]
        write_run_file(path, sample_config(), records)
        text = summary_csv(summarize([path]))
        lines = text.splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        fields = lines[1].split(",")
        assert fields[3] == ""  # a run with no objective leaves final_best blank
        assert len(lines) == 2

    def test_overflowing_wall_clock_total_is_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        records = [replace(r, wall_clock_ms=1e308) for r in sample_records()]
        write_run_file(path, sample_config(), records)
        with pytest.raises(RecordIoError, match=f"^record file {path}: wall_clock_ms total overflows"):
            summarize([path])

    def test_recordless_file_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(), [])
        with pytest.raises(RecordIoError, match="no records"):
            summarize([path])

import json
import math
import os

import pytest

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

    def test_recordless_file_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_run_file(path, sample_config(), [])
        with pytest.raises(RecordIoError, match="no records"):
            summarize([path])

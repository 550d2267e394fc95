import json

import pytest

from cnets.config import load_config
from cnets.errors import ConfigurationError
from cnets.harness import _meta_search, execute
from cnets.meta import evaluate_genome, three_scale_run
from cnets.records import read_run_file
from cnets.rng import RngStream


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "xor.csv").write_text(
        "in0,in1,out0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"
    )
    (tmp_path / "cities.csv").write_text("x,y\n0,0\n10,0\n10,10\n0,10\n5,15\n")
    return tmp_path


def run_config(workdir, data, name="run.json"):
    path = workdir / name
    path.write_text(json.dumps(data))
    return execute(load_config(str(path)))


class TestExecute:
    def test_eca_run_writes_records(self, workdir):
        result = run_config(
            workdir,
            {
                "eca": {"rule": 110, "width": 9, "steps": 4},
                "seed": 1,
                "out": "runs/eca.jsonl",
            },
        )
        assert result.out_path == str(workdir / "runs" / "eca.jsonl")
        config, records = read_run_file(result.out_path)
        assert config == result.config
        assert len(records) == 5
        assert records == result.records

    def test_header_echoes_the_resolved_config(self, workdir):
        result = run_config(
            workdir,
            {
                "eca": {"rule": 110, "width": 9, "steps": 2},
                "seed": 1,
                "out": "eca.jsonl",
            },
        )
        config, _ = read_run_file(result.out_path)
        assert config["architecture"] == "eca"
        assert config["schedule"]["slow_steps"] == 2
        assert config["eca"]["boundary"] == "fixed-zero"  # defaults echoed
        assert config["seed"] == 1

    def test_no_out_path_skips_the_file(self, workdir):
        result = run_config(
            workdir, {"eca": {"rule": 110, "width": 9, "steps": 2}, "seed": 1}
        )
        assert result.out_path is None
        assert len(result.records) == 3
        assert not any(p.suffix == ".jsonl" for p in workdir.iterdir())

    def test_missing_seed_rejected(self, workdir):
        path = workdir / "run.json"
        path.write_text(json.dumps({"eca": {"rule": 110, "width": 9, "steps": 2}}))
        with pytest.raises(ConfigurationError, match="seed"):
            execute(load_config(str(path)))

    def test_ann_run(self, workdir):
        result = run_config(
            workdir,
            {
                "ann": {"layers": [2, 2, 1], "dataset": "xor.csv", "learning_rate": 0.5},
                "schedule": {"fast_steps_per_slow": 4, "slow_steps": 10},
                "seed": 1,
            },
        )
        assert len(result.records) == 11
        assert result.records[-1].best_value is not None
        assert result.records[-1].best_value < result.records[0].best_value * 2

    def test_aco_run(self, workdir):
        result = run_config(
            workdir,
            {
                "aco": {"graph": "cities.csv", "ants": 8},
                "schedule": {"slow_steps": 10},
                "seed": 9,
            },
        )
        tour = result.records[-1].network_output
        assert sorted(int(v) for v in tour) == [0, 1, 2, 3, 4]
        assert result.records[-1].best_value == pytest.approx(44.142135623730951)

    def test_pso_run(self, workdir):
        result = run_config(
            workdir,
            {
                "pso": {"objective": "sphere", "dimension": 2, "particles": 10},
                "schedule": {"slow_steps": 30},
                "seed": 2,
            },
        )
        values = [r.best_value for r in result.records]
        assert values[-1] <= values[0]
        assert values[-1] < 1.0

    def test_cross_run(self, workdir):
        result = run_config(
            workdir,
            {
                "cross": {
                    "ann": {"layers": [2, 2, 1], "dataset": "xor.csv"},
                    "pso": {"particles": 8},
                },
                "schedule": {"slow_steps": 20},
                "seed": 3,
                "out": "cross.jsonl",
            },
        )
        assert len(result.records) == 21
        config, records = read_run_file(result.out_path)
        assert config["architecture"] == "cross"
        assert records[-1].best_value == result.records[-1].best_value

    def test_meta_run_records_generations(self, workdir):
        result = run_config(
            workdir,
            {
                "aco": {"graph": "cities.csv", "ants": 4},
                "meta": {
                    "parameters": {"alpha": [0.5, 2.0]},
                    "eval_seeds": [1],
                    "generations": 2,
                    "population_size": 3,
                    "inner_slow_steps": 3,
                },
                "seed": 5,
            },
        )
        assert [r.slow_step for r in result.records] == [0, 1, 2]
        for record in result.records:
            assert set(record.parameter_snapshot) == {"alpha"}
            assert 0.5 <= record.parameter_snapshot["alpha"] <= 2.0

    def test_meta_seeded_defaults_never_lose(self, workdir):
        # the config's own alpha joins the initial population, so the
        # searched fitness can only match or improve the default run
        data = {
            "aco": {"graph": "cities.csv", "ants": 4},
            "meta": {
                "parameters": {"alpha": [0.5, 2.0]},
                "eval_seeds": [1, 2],
                "generations": 2,
                "population_size": 3,
                "inner_slow_steps": 3,
            },
            "seed": 5,
        }
        result = run_config(workdir, data)
        path = workdir / "again.json"
        path.write_text(json.dumps(data))
        config = load_config(str(path))
        search = _meta_search(config, config.section.problem())
        [default_fitness] = evaluate_genome(
            [{"alpha": 1.0}], search.rebuild, 3, (1, 2)
        )
        assert result.records[-1].best_value <= default_fitness + 1e-12

    @pytest.mark.parametrize(
        "section, parameters",
        [
            ({"aco": {"graph": "cities.csv", "ants": 4}}, {"alpha": [0.5, 2.0]}),
            (
                {"pso": {"objective": "sphere", "dimension": 2, "particles": 5}},
                {"inertia": [0.4, 0.9]},
            ),
        ],
        ids=["meta-aco", "meta-pso"],
    )
    def test_meta_run_draws_nothing_before_the_search(self, workdir, section, parameters):
        # the outer stream goes to the GA alone: no network is built first
        data = {
            **section,
            "meta": {
                "parameters": parameters,
                "eval_seeds": [1],
                "generations": 2,
                "population_size": 3,
                "inner_slow_steps": 3,
            },
            "seed": 5,
        }
        result = run_config(workdir, data)
        config = load_config(str(workdir / "run.json"))
        expected = three_scale_run(_meta_search(config, config.section.problem()), RngStream(5))

        def comparable(records):
            return [(r.slow_step, r.best_value, r.parameter_snapshot) for r in records]

        assert comparable(result.records) == comparable(expected)

    def test_execute_is_deterministic(self, workdir):
        data = {
            "pso": {"objective": "sphere", "dimension": 2, "particles": 6},
            "schedule": {"slow_steps": 10},
            "seed": 4,
        }
        a = run_config(workdir, data, name="a.json")
        b = run_config(workdir, data, name="b.json")
        assert [r.best_value for r in a.records] == [r.best_value for r in b.records]
        assert [r.network_output for r in a.records] == [
            r.network_output for r in b.records
        ]

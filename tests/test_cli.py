import json
import time
import warnings

import numpy as np
import pytest

from cnets.cli import main
from cnets.eca import evolve, grid_to_text
from cnets.problems import Tape
from cnets.records import read_run_file


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("CN_SEED", raising=False)
    (tmp_path / "xor.csv").write_text(
        "in0,in1,out0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"
    )
    (tmp_path / "cities.csv").write_text("x,y\n0,0\n10,0\n10,10\n0,10\n5,15\n")
    return tmp_path


def write_json(workdir, data, name="run.json"):
    path = workdir / name
    path.write_text(json.dumps(data))
    return str(path)


def eca_config(workdir, name="run.json", **extra):
    data = {"eca": {"rule": 110, "width": 9, "steps": 5}, "seed": 1}
    data.update(extra)
    return write_json(workdir, data, name=name)


class TestRunCommand:
    def test_happy_path(self, workdir, capsys):
        path = eca_config(workdir, out="runs/eca.jsonl")
        assert main(["run", path]) == 0
        out_path = str(workdir / "runs" / "eca.jsonl")
        stdout = capsys.readouterr().out
        assert stdout == f"{out_path}: 6 records\n"
        config, records = read_run_file(out_path)
        assert config["seed"] == 1
        assert len(records) == 6

    def test_best_value_is_printed_when_present(self, workdir, capsys):
        path = write_json(
            workdir,
            {
                "pso": {"objective": "sphere", "dimension": 2, "particles": 6},
                "schedule": {"slow_steps": 5},
                "seed": 2,
                "out": "pso.jsonl",
            },
        )
        assert main(["run", path]) == 0
        assert " best=" in capsys.readouterr().out

    def test_missing_out_is_a_config_error(self, workdir, capsys):
        path = eca_config(workdir)
        assert main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config-empty", "flag-empty", "flag-directory"])
    def test_empty_or_directory_out_is_refused_before_the_run(
        self, workdir, capsys, monkeypatch, where
    ):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr("cnets.harness.run", no_run)
        flag = {"config-empty": [], "flag-empty": ["--out", ""], "flag-directory": ["--out", str(workdir)]}
        path = eca_config(workdir, out="" if where == "config-empty" else "run.jsonl")
        assert main(["run", path, *flag[where]]) == 1
        err = capsys.readouterr().err
        if where == "config-empty":  # named as written, not as the config's directory
            assert err == "config error: config.out: must name a file, got ''\n"
        else:
            assert err.startswith("config error: output path must name a file, got ")

    def test_out_flag_overrides_config(self, workdir, capsys):
        path = eca_config(workdir, out="ignored.jsonl")
        target = str(workdir / "explicit.jsonl")
        assert main(["run", path, "--out", target]) == 0
        assert (workdir / "explicit.jsonl").exists()
        assert not (workdir / "ignored.jsonl").exists()

    def test_seed_flag_overrides_config(self, workdir):
        path = write_json(
            workdir,
            {
                "pso": {"objective": "sphere", "dimension": 2, "particles": 6},
                "schedule": {"slow_steps": 3},
                "seed": 2,
                "out": "pso.jsonl",
            },
        )
        assert main(["run", path, "--seed", "9"]) == 0
        config, _ = read_run_file(str(workdir / "pso.jsonl"))
        assert config["seed"] == 9

    def test_env_seed_is_the_last_resort(self, workdir, monkeypatch):
        path = eca_config(workdir, seed=None, out="eca.jsonl")
        monkeypatch.setenv("CN_SEED", "5")
        assert main(["run", path]) == 0
        config, _ = read_run_file(str(workdir / "eca.jsonl"))
        assert config["seed"] == 5

    def test_config_seed_beats_env(self, workdir, monkeypatch):
        path = eca_config(workdir, out="eca.jsonl")
        monkeypatch.setenv("CN_SEED", "5")
        assert main(["run", path]) == 0
        config, _ = read_run_file(str(workdir / "eca.jsonl"))
        assert config["seed"] == 1

    def test_bad_env_seed_is_a_config_error(self, workdir, monkeypatch, capsys):
        path = eca_config(workdir, seed=None, out="eca.jsonl")
        monkeypatch.setenv("CN_SEED", "many")
        assert main(["run", path]) == 1
        assert "CN_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, seed", [("--seed", "-1"), ("CN_SEED", "-1"), ("--seed", str(2**64))]
    )
    def test_out_of_range_seed_fails_before_the_run_naming_its_source(
        self, workdir, monkeypatch, capsys, source, seed
    ):
        path = eca_config(workdir, seed=None, out="eca.jsonl")

        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.setattr("cnets.cli.execute", no_run)
        args = ["run", path]
        if source == "CN_SEED":
            monkeypatch.setenv("CN_SEED", seed)
        else:
            args += ["--seed", seed]
        assert main(args) == 1
        assert f"{source}: must be in [0, 2**64)" in capsys.readouterr().err

    def test_no_seed_anywhere_is_a_config_error(self, workdir, capsys):
        path = eca_config(workdir, seed=None, out="eca.jsonl")
        assert main(["run", path]) == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_config_file(self, workdir, capsys):
        assert main(["run", str(workdir / "absent.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, workdir, capsys):
        path = workdir / "broken.json"
        path.write_text("{")
        assert main(["run", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err


# each end is finite, but high - low overflows to inf
WIDE = [-1e308, 1e308]


class TestExitCodes:
    def test_numeric_divergence_exits_2(self, workdir, capsys):
        path = write_json(
            workdir,
            {
                "ann": {
                    "layers": [2, 2, 1],
                    "dataset": "xor.csv",
                    "learning_rate": 1e15,
                    "hidden_activation": "identity",
                    "output_activation": "identity",
                },
                "schedule": {"fast_steps_per_slow": 1, "slow_steps": 60},
                "seed": 1,
                "out": "diverge.jsonl",
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "numeric error" in err
        assert "(slow, fast)=" in err

    def test_overflowing_pheromone_exits_2(self, workdir, capsys):
        # 1e308 over a tour of length 0.004 overflows every share on the
        # first deposit; infinite trails would force every later move
        (workdir / "tiny.csv").write_text("0,0\n0.001,0\n0,0.001\n0.001,0.001\n")
        path = write_json(
            workdir,
            {
                "aco": {"graph": "tiny.csv", "ants": 3, "deposit": 1e308},
                "schedule": {"fast_steps_per_slow": 1, "slow_steps": 4},
                "seed": 1,
                "out": "overflow.jsonl",
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", path]) == 2
        assert capsys.readouterr().err == "numeric error: pheromone overflows at (slow, fast)=(1, None)\n"

    def test_position_is_printed_for_every_error_raised_mid_run(self, workdir, capsys):
        # trails of 1/cost**400 underflow to zero, so an ant finds no move
        path = write_json(
            workdir,
            {
                "aco": {"graph": "cities.csv", "alpha": 400, "beta": 400},
                "schedule": {"slow_steps": 3},
                "seed": 1,
                "out": "dead.jsonl",
            },
        )
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == (
            "config error: an ant still found no positive trail after 10 restarts"
            " at (slow, fast)=(1, 0)\n"
        )

    @pytest.mark.parametrize("objective", ["sphere", "rosenbrock", "rastrigin"])
    def test_overflowing_objective_prints_only_the_error_line(self, workdir, capsys, objective):
        path = write_json(
            workdir,
            {
                "pso": {"objective": objective, "dimension": 2, "inertia": 1e300},
                "schedule": {"slow_steps": 5},
                "seed": 1,
                "out": "pso.jsonl",
            },
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", path]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numeric error: particle 0 produced non-finite value inf at (slow, fast)=(2, 0)\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_dataset_value_is_a_config_error(self, workdir, capsys, value):
        (workdir / "xor.csv").write_text(f"in0,in1,out0\n0,0,0\n{value},1,1\n1,0,1\n1,1,0\n")
        path = write_json(
            workdir,
            {"ann": {"layers": [2, 2, 1], "dataset": "xor.csv"}, "seed": 1, "out": "ann.jsonl"},
        )
        assert main(["run", path]) == 1
        csv_path = workdir / "xor.csv"
        assert capsys.readouterr().err == (
            f"config error: {csv_path}:3: not a finite number: '{value}'\n"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("10,nan", "{path}:3: not a finite number: 'nan'"),
            ("10", "{path}:3: expected 2 fields, got 1"),
            ("1_0,0", "{path}:3: not a finite number: '1_0'"),
            ("0,0", "graph file {path}: cost[0][1] must be positive, got 0.0"),
        ],
    )
    def test_bad_city_file_is_a_config_error_naming_the_file(self, workdir, capsys, row, message):
        (workdir / "cities.csv").write_text(f"x,y\n0,0\n{row}\n10,10\n0,10\n")
        path = write_json(workdir, {"aco": {"graph": "cities.csv"}, "seed": 1, "out": "aco.jsonl"})
        assert main(["run", path]) == 1
        expected = message.format(path=workdir / "cities.csv")
        assert capsys.readouterr().err == f"config error: {expected}\n"

    @pytest.mark.parametrize(
        "command, name, content, message, code",
        [
            ("run", "run.json", b'{"seed": 1\xff}', "config error: cannot read config {path}: ", 1),
            (
                "run",
                "cities.csv",
                b"x,y\n0,0\n\xff\xfe,1\n10,10\n",
                "config error: cannot read graph file {path}: ",
                1,
            ),
            ("run", "xor.csv", b"in0,out0\n\xff,1\n", "config error: cannot read dataset file {path}: ", 1),
            (
                "summarize",
                "runs.jsonl",
                b'{"config": {}}\n{"slow_step": 0\xff}\n',
                "io error: cannot read record file {path}: ",
                3,
            ),
        ],
        ids=["config", "graph", "dataset", "record"],
    )
    def test_a_file_that_is_not_utf8_is_refused_naming_it(
        self, workdir, capsys, command, name, content, message, code
    ):
        configs = {
            "cities.csv": {"aco": {"graph": "cities.csv"}, "seed": 1, "out": "aco.jsonl"},
            "xor.csv": {"ann": {"layers": [1, 1], "dataset": "xor.csv"}, "seed": 1, "out": "a.jsonl"},
        }
        if name in configs:
            write_json(workdir, configs[name])
        (workdir / name).write_bytes(content)
        target = workdir / ("run.json" if command == "run" else name)
        assert main([command, str(target)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=workdir / name))
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "config, where",
        [
            ({"pso": {"objective": "sphere", "dimension": 2, "bounds": WIDE}}, "pso.bounds"),
            (
                {"cross": {"ann": {"layers": [2, 1], "dataset": "xor.csv"}, "weight_bounds": WIDE}},
                "cross.weight_bounds",
            ),
            (
                {
                    "pso": {"objective": "sphere", "dimension": 2},
                    "meta": {"parameters": {"inertia": WIDE}, "eval_seeds": [1]},
                },
                "meta.parameters.inertia",
            ),
        ],
        ids=["pso.bounds", "cross.weight_bounds", "meta.parameters.inertia"],
    )
    def test_box_too_wide_to_draw_in_is_a_config_error(self, workdir, capsys, config, where):
        path = write_json(workdir, {**config, "seed": 1, "out": "wide.jsonl"})
        assert main(["run", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config.{where}: high - low must be finite")

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"pso": {"objective": "sphere", "dimension": 2, "bounds": [2, 1]}},
                "pso.bounds: must have lower < upper, got [2.0, 1.0]",
            ),
            (
                {"pso": {"objective": "rosenbrock", "dimension": 1}},
                "pso.dimension: must be >= 2 for rosenbrock, got 1",
            ),
            ({"eca": {"rule": 110, "width": -3}}, "eca.width: must be >= 3, got -3"),
            (
                {"eca": {"rule": 110, "width": 9}, "schedule": {"fast_steps_per_slow": 0}},
                "schedule.fast_steps_per_slow: must be >= 1, got 0",
            ),
            (
                {
                    "cross": {"ann": {"layers": [2, 1], "dataset": "xor.csv"}},
                    "schedule": {"fast_steps_per_slow": 4},
                },
                "schedule.fast_steps_per_slow: must be 1, a cross run",
            ),
            (
                {
                    "aco": {"graph": "cities.csv"},
                    "meta": {"parameters": {"alpha": [0.0, 2.0]}, "eval_seeds": [1]},
                    "schedule": {"slow_steps": 500},
                },
                "schedule.slow_steps: must be 0, a meta run's inner runs take meta.inner_slow_steps",
            ),
            (
                {
                    "aco": {"graph": "cities.csv"},
                    "meta": {"parameters": {"alpha": [0.0, 2.0]}, "eval_seeds": [1]},
                    "schedule": {"fast_steps_per_slow": 7},
                },
                "schedule.fast_steps_per_slow: must be 1, a meta run's inner runs take",
            ),
            (
                {"ann": {"layers": [3, 1], "dataset": "xor.csv"}},
                "ann.layers: dataset input arity 2 does not match input layer size 3",
            ),
            (
                {"cross": {"ann": {"layers": [2, 2], "dataset": "xor.csv"}}},
                "cross.ann.layers: dataset target arity 1 does not match output layer size 2",
            ),
            (
                {"cross": {"ann": {"layers": [2, 1], "dataset": "xor.csv"}, "dimension": 7}},
                "cross.dimension: must equal the network's 3 trainable parameters, got 7",
            ),
            (
                {
                    "aco": {"graph": "cities.csv"},
                    "meta": {"parameters": {"alpha": [0.0, 2.0]}, "eval_seeds": [1], "population_size": 2},
                },
                "meta.tournament_size: must be between 1 and population_size (2), got 3",
            ),
            (
                {"aco": {"graph": "cities.csv", "evaporation": 1.5}},
                "aco.evaporation: must be in [0, 1], got 1.5",
            ),
            (
                {
                    "pso": {
                        "dimension": 2,
                        "particles": 3,
                        "topology": "custom",
                        "neighborhoods": [[0, 1], [1, 7], [2, 0]],
                    }
                },
                "pso.neighborhoods: neighborhood of particle 1 has unknown members [7]",
            ),
            (
                {"pso": {"dimension": 2, "particles": 2, "neighborhoods": [[0, 1], [0, 1]]}},
                "pso.neighborhoods: explicit neighborhoods require the custom topology",
            ),
            (
                {"cross": {"ann": {"layers": [2, 1], "dataset": "xor.csv"}, "weight_bounds": [1, 1]}},
                "cross.weight_bounds: must have low < high, got [1.0, 1.0]",
            ),
        ],
        ids=[
            "pso.bounds-inverted",
            "pso.dimension-rosenbrock",
            "eca.width-negative",
            "schedule.fast_steps_per_slow-zero",
            "cross.fast_steps_per_slow",
            "meta.slow_steps",
            "meta.fast_steps_per_slow",
            "ann.layers-arity",
            "cross.ann.layers-arity",
            "cross.dimension",
            "meta.tournament_size",
            "aco.evaporation",
            "pso.neighborhoods-unknown-member",
            "pso.neighborhoods-not-custom",
            "cross.weight_bounds-empty",
        ],
    )
    def test_refused_value_is_named_by_its_config_path(self, workdir, capsys, config, message):
        path = write_json(workdir, {**config, "seed": 1, "out": "refused.jsonl"})
        assert main(["run", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config.{message}")
        assert not (workdir / "refused.jsonl").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"aco": True}, "config.aco: expected an object, got True"),
            # null means an absent key, so the section it names is missing
            ({"ann": None}, "config: missing required key 'ann'"),
            ({"eca": 5}, "config.eca: expected an object, got 5"),
            ({"aco": {"graph": "cities.csv"}, "meta": 3}, "config.meta: expected an object, got 3"),
            ({"cross": []}, "config.cross: expected an object, got []"),
        ],
        ids=["aco-bool", "ann-null", "eca-number", "meta-number", "cross-list"],
    )
    def test_a_section_of_the_wrong_kind_is_a_config_error(self, workdir, capsys, config, message):
        path = write_json(workdir, {**config, "seed": 1, "out": "refused.jsonl"})
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (workdir / "refused.jsonl").exists()

    @pytest.mark.parametrize("meta", [None, {"parameters": {"alpha": [0.0, 2.0]}, "eval_seeds": [1]}])
    def test_too_many_ants_are_refused_before_any_network_is_built(
        self, workdir, capsys, monkeypatch, meta
    ):
        def no_network(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr("cnets.aco.build_aco_network", no_network)
        data = {"aco": {"graph": "cities.csv", "ants": 100_000_000}, "seed": 1, "out": "aco.jsonl"}
        if meta:
            data["meta"] = meta
        assert main(["run", write_json(workdir, data)]) == 1
        assert "config error: config.aco.ants: 100000000 ants on 5 locations" in capsys.readouterr().err

    def test_a_graph_too_large_for_its_cost_array_is_refused_at_once(self, workdir, capsys):
        # 4,097**2 doubles is the first count over ARRAY_DOUBLES, 4,096**2
        lines = [f"{i % 64},{i // 64}" for i in range(4097)]
        (workdir / "big.csv").write_text("x,y\n" + "\n".join(lines) + "\n")
        data = {"aco": {"graph": "big.csv"}, "seed": 1, "out": "aco.jsonl"}
        started = time.perf_counter()
        assert main(["run", write_json(workdir, data)]) == 1
        assert time.perf_counter() - started < 0.5
        assert capsys.readouterr().err == (
            "config error: config.aco.graph: 4097 cities need 16785409 doubles in one array, "
            "over the limit of 16777216\n"
        )

    def test_record_io_error_exits_3(self, workdir, capsys):
        blocker = workdir / "blocker.txt"
        blocker.write_text("plain file\n")
        path = eca_config(workdir, out=str(blocker / "sub" / "run.jsonl"))
        assert main(["run", path]) == 3
        assert "io error" in capsys.readouterr().err

    def test_usage_error_exits_1_not_2(self, workdir, capsys):
        assert main(["run"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["conjure"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestSummarizeCommand:
    def make_runs(self, workdir):
        for seed in (1, 2):
            path = eca_config(workdir, name=f"cfg{seed}.json", seed=seed, out=f"run{seed}.jsonl")
            assert main(["run", path]) == 0

    def test_stdout_csv(self, workdir, capsys):
        self.make_runs(workdir)
        capsys.readouterr()
        pattern = str(workdir / "*.jsonl")
        assert main(["summarize", pattern]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("file,architecture,seed,")
        assert len(lines) == 3
        assert "eca" in lines[1]

    def test_csv_to_file(self, workdir, capsys):
        self.make_runs(workdir)
        target = workdir / "summary.csv"
        assert main(["summarize", str(workdir / "run1.jsonl"), "--out", str(target)]) == 0
        assert target.read_text().splitlines()[0].startswith("file,")

    def test_no_matches_is_a_config_error(self, workdir, capsys):
        assert main(["summarize", str(workdir / "nothing-*.jsonl")]) == 1
        assert "no record files" in capsys.readouterr().err

    def test_malformed_record_line_exits_3(self, workdir, capsys):
        self.make_runs(workdir)
        capsys.readouterr()
        with open(workdir / "run1.jsonl", "a") as handle:
            handle.write("5\n")
        assert main(["summarize", str(workdir / "run1.jsonl")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_non_finite_best_value_exits_3(self, workdir, capsys):
        self.make_runs(workdir)
        capsys.readouterr()
        path = workdir / "run1.jsonl"
        header, *records = path.read_text().splitlines()
        record = json.loads(records[-1])
        record["best_value"] = "MARK"
        path.write_text("\n".join([header, *records, json.dumps(record).replace('"MARK"', "NaN")]) + "\n")
        assert main(["summarize", str(path)]) == 3
        assert "io error" in capsys.readouterr().err

    def test_summary_write_failure_exits_3(self, workdir, capsys):
        self.make_runs(workdir)
        capsys.readouterr()
        blocker = workdir / "blocker.txt"
        blocker.write_text("plain file\n")
        bad_out = str(blocker / "summary.csv")
        assert main(["summarize", str(workdir / "run1.jsonl"), "--out", bad_out]) == 3
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["empty", "directory"])
    def test_empty_or_directory_out_is_refused_before_reading(self, workdir, capsys, monkeypatch, where):
        def no_summary(*args):
            raise AssertionError("the record files were read")

        monkeypatch.setattr("cnets.cli.summarize", no_summary)
        out = "" if where == "empty" else str(workdir)
        assert main(["summarize", str(workdir / "*.jsonl"), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error: output path must name a file, got ")


class TestRenderCommand:
    def test_text_render_matches_direct_evolution(self, workdir, capsys):
        path = eca_config(workdir)
        assert main(["eca-render", path]) == 0
        expected = grid_to_text(evolve(Tape.single_one(9), 110, 5))
        assert capsys.readouterr().out == expected

    def test_pbm_render_to_file(self, workdir):
        path = eca_config(workdir)
        target = workdir / "grid.pbm"
        assert main(["eca-render", path, "--format", "pbm", "--out", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "9 6"

    def test_render_needs_an_eca_config(self, workdir, capsys):
        path = write_json(
            workdir,
            {
                "pso": {"objective": "sphere", "dimension": 2},
                "schedule": {"slow_steps": 3},
                "seed": 1,
            },
        )
        assert main(["eca-render", path]) == 1
        assert "eca" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config-empty", "flag-empty", "flag-directory"])
    def test_empty_or_directory_out_is_refused_before_the_run(
        self, workdir, capsys, monkeypatch, where
    ):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr("cnets.harness.run", no_run)
        flag = {"config-empty": [], "flag-empty": ["--out", ""], "flag-directory": ["--out", str(workdir)]}
        path = eca_config(workdir, out="" if where == "config-empty" else "grid.txt")
        assert main(["eca-render", path, *flag[where]]) == 1
        err = capsys.readouterr().err
        if where == "config-empty":  # named as written, not as the config's directory
            assert err == "config error: config.out: must name a file, got ''\n"
        else:
            assert err.startswith("config error: output path must name a file, got ")

    def test_unseeded_render_defaults_to_zero(self, workdir, capsys):
        path = eca_config(workdir, seed=None)
        assert main(["eca-render", path]) == 0
        assert capsys.readouterr().out  # grid rendered, nothing written
        assert not list(workdir.glob("*.jsonl"))

import json
import re
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import pytest

from instances import write_config
from cnets import problems
from cnets.ann import AnnParams
from cnets.config import build_config, load_config
from cnets.eca import EcaParams
from cnets.errors import ConfigurationError
from cnets.meta import ParamBox

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# a size no config may ask for, far past what numpy can index
HUGE = 2**70


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "xor.csv").write_text(
        "in0,in1,out0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n"
    )
    (tmp_path / "cities.csv").write_text("x,y\n0,0\n10,0\n10,10\n0,10\n5,15\n")
    return tmp_path


def write_json(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def minimal_eca(**extra):
    data = {"eca": {"rule": 110, "width": 9, "steps": 5}, "seed": 1}
    data.update(extra)
    return data


def minimal_cross(**pso):
    return {"cross": {"ann": {"layers": [2, 2, 1], "dataset": "xor.csv"}, "pso": pso}, "seed": 1}


def minimal_meta_aco(**meta):
    meta = {"parameters": {"alpha": [0, 4]}, "eval_seeds": [1], **meta}
    return {"aco": {"graph": "cities.csv"}, "meta": meta, "seed": 1}


class TestArchitectureSelection:
    def test_minimal_eca_config(self, workdir):
        config = load_config(write_json(workdir, minimal_eca()))
        assert config.architecture == "eca"
        assert config.schedule.slow_steps == 5
        assert config.schedule.fast_steps_per_slow == 1
        assert config.seed == 1
        assert config.section.params.rule == 110

    def test_architecture_field_is_optional_but_checked(self, workdir):
        config = load_config(write_json(workdir, minimal_eca(architecture="eca")))
        assert config.architecture == "eca"
        with pytest.raises(ConfigurationError, match="declared"):
            load_config(write_json(workdir, minimal_eca(architecture="pso")))

    def test_no_architecture_section_rejected(self, workdir):
        with pytest.raises(ConfigurationError, match="no architecture"):
            load_config(write_json(workdir, {"seed": 1}))

    def test_two_architecture_sections_rejected(self, workdir):
        data = minimal_eca()
        data["pso"] = {"objective": "sphere", "dimension": 2}
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_config(write_json(workdir, data))

    def test_cross_excludes_other_sections(self, workdir):
        data = {
            "cross": {"ann": {"layers": [2, 2, 1], "dataset": "xor.csv"}},
            "eca": {"rule": 110, "width": 9},
            "seed": 1,
        }
        with pytest.raises(ConfigurationError, match="cross"):
            load_config(write_json(workdir, data))

    def test_cross_alone_is_fine(self, workdir):
        data = {
            "cross": {"ann": {"layers": [2, 2, 1], "dataset": "xor.csv"}},
            "seed": 1,
            "schedule": {"slow_steps": 10},
        }
        config = load_config(write_json(workdir, data))
        assert config.architecture == "cross"
        assert config.section.ann.layers == (2, 2, 1)
        assert config.section.weight_bounds == (-2.0, 2.0)


class TestStrictKeys:
    def test_unknown_top_level_key(self, workdir):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            load_config(write_json(workdir, minimal_eca(typo=1)))

    def test_unknown_section_key(self, workdir):
        data = {"eca": {"rule": 110, "width": 9, "speed": 3}, "seed": 1}
        with pytest.raises(ConfigurationError, match="config.eca"):
            load_config(write_json(workdir, data))

    def test_unknown_schedule_key(self, workdir):
        data = minimal_eca(schedule={"slow": 5})
        del data["eca"]["steps"]
        with pytest.raises(ConfigurationError, match="config.schedule"):
            load_config(write_json(workdir, data))

    def test_unknown_nested_cross_key(self, workdir):
        data = {
            "cross": {
                "ann": {"layers": [2, 1], "dataset": "xor.csv"},
                "pso": {"particles": 10, "warp": 1},
            },
            "seed": 1,
        }
        with pytest.raises(ConfigurationError, match="config.cross.pso"):
            load_config(write_json(workdir, data))

    def test_explicit_null_reads_as_absent(self, workdir):
        data = minimal_eca(out=None, architecture=None)
        config = load_config(write_json(workdir, data))
        assert config.out is None
        assert config.architecture == "eca"

    def test_explicit_null_initial_reads_as_single_one(self, workdir):
        data = {"eca": {"rule": 110, "width": 9, "initial": None}, "seed": 1}
        assert load_config(write_json(workdir, data)).section.params.initial == "single-one"


class TestValues:
    def test_negative_seed_rejected(self, workdir):
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(write_json(workdir, minimal_eca(seed=-1)))

    def test_boolean_is_not_an_integer(self, workdir):
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(write_json(workdir, minimal_eca(seed=True)))

    @pytest.mark.parametrize("seed", [-1, 2**64, True])
    @pytest.mark.parametrize(
        "data, path",
        [
            (lambda seed: minimal_eca(seed=seed), r"config\.seed"),
            (lambda seed: minimal_meta_aco(eval_seeds=[1, seed]), r"config\.meta\.eval_seeds"),
        ],
        ids=["seed", "eval_seeds"],
    )
    def test_seeds_checked_at_load(self, workdir, seed, data, path):
        with pytest.raises(ConfigurationError, match=rf"^{path}: "):
            build_config(data(seed), base_dir=str(workdir))

    def test_eca_rule_range(self, workdir):
        data = {"eca": {"rule": 300, "width": 9}, "seed": 1}
        with pytest.raises(ConfigurationError, match="rule"):
            load_config(write_json(workdir, data))

    def test_eca_boundary_checked_at_load(self, workdir):
        data = {"eca": {"rule": 110, "width": 9, "boundary": "mirror"}, "seed": 1}
        with pytest.raises(ConfigurationError, match=r"config\.eca\.boundary: .*'mirror'"):
            load_config(write_json(workdir, data))

    def test_eca_initial_cells_must_match_width(self, workdir):
        data = {"eca": {"rule": 110, "width": 5, "initial": [0, 1, 0]}, "seed": 1}
        with pytest.raises(ConfigurationError, match="initial"):
            load_config(write_json(workdir, data))

    def test_eca_steps_schedule_disagreement(self, workdir):
        data = minimal_eca(schedule={"slow_steps": 7})
        with pytest.raises(ConfigurationError, match="disagrees"):
            load_config(write_json(workdir, data))

    def test_eca_steps_schedule_agreement(self, workdir):
        config = load_config(write_json(workdir, minimal_eca(schedule={"slow_steps": 5})))
        assert config.schedule.slow_steps == 5

    def test_pso_dimension_zero_rejected(self, workdir):
        data = {"pso": {"objective": "sphere", "dimension": 0}, "seed": 1}
        with pytest.raises(ConfigurationError, match="dimension"):
            load_config(write_json(workdir, data))

    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "deposit", "initial_pheromone", "min_pheromone"]
    )
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_aco_non_finite_weight_rejected(self, workdir, field, value):
        data = json.loads('{"aco": {"graph": "cities.csv", "%s": %s}, "seed": 1}' % (field, value))
        with pytest.raises(ConfigurationError, match=f"config.aco.{field}: must be finite"):
            build_config(data, base_dir=str(workdir))

    @pytest.mark.parametrize(
        "value, text",
        [("NaN", "must be finite, got nan"), ("Infinity", "must be finite, got inf"), ("0", "must be positive, got 0.0")],
        ids=["NaN", "Infinity", "0"],
    )
    def test_ann_learning_rate_must_be_positive_and_finite(self, workdir, value, text):
        data = json.loads(
            '{"ann": {"layers": [2, 1], "dataset": "xor.csv", "learning_rate": %s}, "seed": 1}'
            % value
        )
        with pytest.raises(ConfigurationError, match=f"^config.ann.learning_rate: {text}$"):
            build_config(data, base_dir=str(workdir))

    @pytest.mark.parametrize(
        "data, match",
        [
            (minimal_cross(particles=1), "particles"),
            (minimal_cross(cognitive=float("nan")), "cross.pso.cognitive: must be finite"),
            (minimal_meta_aco(population_size=1), "meta.population_size: must be >= 2"),
            (minimal_meta_aco(crossover_rate=2.0), "meta.crossover_rate: must be in"),
            (minimal_meta_aco(tournament_size=50), "meta.tournament_size: must be between"),
            (minimal_meta_aco(inner_slow_steps=0), "meta.inner_slow_steps: must be >= 1"),
            (minimal_meta_aco(mutation_stddev=-1), "meta.mutation_stddev: must be >= 0"),
            (minimal_meta_aco(mutation_stddev=float("nan")), "meta.mutation_stddev: must be finite"),
            (minimal_meta_aco(mutation_stddev=float("inf")), "meta.mutation_stddev: must be finite"),
        ],
        ids=[
            "cross-particles",
            "cross-cognitive-nan",
            "meta-population",
            "meta-crossover",
            "meta-tournament",
            "meta-inner-steps",
            "meta-mutation",
            "meta-mutation-nan",
            "meta-mutation-inf",
        ],
    )
    def test_params_value_errors_surface_at_load(self, workdir, data, match):
        with pytest.raises(ConfigurationError, match=match):
            build_config(data, base_dir=str(workdir))

    @pytest.mark.parametrize("field", ["inertia", "cognitive", "social", "velocity_clamp"])
    def test_pso_non_finite_weight_rejected(self, field):
        # Python's json reads NaN, so a config file can carry one
        data = json.loads(
            '{"pso": {"objective": "sphere", "dimension": 2, "%s": NaN}, "seed": 1}' % field
        )
        with pytest.raises(ConfigurationError, match=f"config.pso.{field}: must be finite"):
            build_config(data)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("ann", "learning_rate", 0),
            ("ann", "hidden_activation", "relu"),
            ("cross.ann", "learning_rate", 0),
            ("cross.ann", "output_activation", "relu"),
            ("eca", "rule", 300),
            ("eca", "boundary", "mirror"),
            ("eca", "width", 2),
            ("pso", "dimension", 1),
            ("pso", "bounds", [2, 1]),
            ("aco", "graph_format", "polar"),
        ],
    )
    def test_params_value_errors_name_their_config_path(self, workdir, section, key, value):
        data = {
            "aco": {"aco": {"graph": "cities.csv"}, "seed": 1},
            "ann": {"ann": {"layers": [2, 1], "dataset": "xor.csv"}, "seed": 1},
            "cross.ann": minimal_cross(),
            "eca": minimal_eca(),
            "pso": {"pso": {"objective": "rosenbrock", "dimension": 2}, "seed": 1},
        }[section]
        target = data
        for name in section.split("."):
            target = target[name]
        target[key] = value
        with pytest.raises(ConfigurationError, match=rf"^config\.{re.escape(section)}\.{key}: "):
            build_config(data, base_dir=str(workdir))

    def test_minimal_sections_echo_their_params_defaults(self, workdir):
        data = {"ann": {"layers": [2, 1], "dataset": "xor.csv"}, "seed": 1}
        ann = build_config(data, base_dir=str(workdir)).to_dict()["ann"]
        assert ann == {"layers": [2, 1], "dataset": str(workdir / "xor.csv"), **asdict(AnnParams())}
        data = {"eca": {"rule": 110, "width": 9}, "seed": 1}
        eca = build_config(data, base_dir=str(workdir)).to_dict()["eca"]
        defaults = {f.name: f.default for f in fields(EcaParams) if f.default is not MISSING}
        assert eca == {"rule": 110, "width": 9, "steps": 0, **defaults}
        assert list(eca) == ["rule", "width", "steps", "boundary", "initial", "updating"]

    def test_pso_bounds_filled_from_objective(self, workdir):
        data = {"pso": {"objective": "rastrigin", "dimension": 3}, "seed": 1}
        config = load_config(write_json(workdir, data))
        assert (config.section.objective.lower, config.section.objective.upper) == (-5.12, 5.12)

    def test_pso_explicit_bounds_win(self, workdir):
        data = {
            "pso": {"objective": "sphere", "dimension": 2, "bounds": [-1, 1]},
            "seed": 1,
        }
        config = load_config(write_json(workdir, data))
        assert (config.section.objective.lower, config.section.objective.upper) == (-1.0, 1.0)

    @pytest.mark.parametrize("end", [float("-inf"), float("nan")], ids=["-Infinity", "NaN"])
    @pytest.mark.parametrize("path", ["pso.bounds", "cross.weight_bounds"])
    def test_non_finite_pair_end_rejected_at_load(self, workdir, path, end):
        # json.dumps writes -Infinity and NaN, and Python's json reads them back
        swarm = {"pso": {"objective": "sphere", "dimension": 2}, "seed": 1}
        data = minimal_cross() if path == "cross.weight_bounds" else swarm
        section, key = path.split(".")
        data[section][key] = [end, 1.0]
        with pytest.raises(ConfigurationError, match=rf"^config\.{re.escape(path)}: .*finite"):
            load_config(write_json(workdir, data))

    @pytest.mark.parametrize("path", ["pso.inertia", "pso.bounds"])
    def test_integer_too_large_for_a_float_rejected_at_load(self, workdir, path):
        huge = 10**400  # json.dumps writes all 401 digits, and json reads them back as an int
        data = {"pso": {"objective": "sphere", "dimension": 2}, "seed": 1}
        data["pso"][path.split(".")[1]] = [huge, 1.0] if path == "pso.bounds" else huge
        with pytest.raises(ConfigurationError, match=rf"^config\.{re.escape(path)}: "):
            load_config(write_json(workdir, data))

    def test_integer_with_too_many_digits_to_read_rejected_at_load(self, workdir):
        path = workdir / "run.json"
        path.write_text('{"seed": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(str(path))

    def test_ann_missing_dataset_file(self, workdir):
        data = {"ann": {"layers": [2, 1], "dataset": "absent.csv"}, "seed": 1}
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_config(write_json(workdir, data))

    def test_ann_bad_activation(self, workdir):
        data = {
            "ann": {"layers": [2, 1], "dataset": "xor.csv", "hidden_activation": "relu"},
            "seed": 1,
        }
        text = r"must be one of \('tanh', 'logistic', 'identity'\), got 'relu'"
        with pytest.raises(ConfigurationError, match=rf"^config\.ann\.hidden_activation: {text}$"):
            load_config(write_json(workdir, data))

    def test_aco_section_value_error_surfaces_at_load(self, workdir):
        data = {"aco": {"graph": "cities.csv", "evaporation": 2.0}, "seed": 1}
        with pytest.raises(ConfigurationError, match="evaporation"):
            load_config(write_json(workdir, data))


class TestPaths:
    def test_inputs_resolve_against_the_config_directory(self, workdir):
        nested = workdir / "configs"
        nested.mkdir()
        data = {"ann": {"layers": [2, 2, 1], "dataset": "../xor.csv"}, "seed": 1}
        config = load_config(write_json(nested, data))
        assert config.section.dataset == str(workdir / "xor.csv")

    def test_out_resolves_against_the_config_directory(self, workdir):
        data = minimal_eca(out="runs/out.jsonl")
        config = load_config(write_json(workdir, data))
        assert config.out == str(workdir / "runs" / "out.jsonl")

    def test_empty_out_is_refused_before_it_resolves(self, workdir):
        with pytest.raises(ConfigurationError, match=r"^config\.out: must name a file, got ''$"):
            build_config(minimal_eca(out=""), str(workdir))

    def test_absolute_out_is_kept(self, workdir):
        target = str(workdir / "elsewhere.jsonl")
        config = load_config(write_json(workdir, minimal_eca(out=target)))
        assert config.out == target

    def test_json_syntax_error_names_position(self, workdir):
        path = workdir / "broken.json"
        path.write_text('{"eca": }')
        with pytest.raises(ConfigurationError, match="1:9"):
            load_config(str(path))


class TestMetaValidation:
    def meta_aco(self, **meta_extra):
        meta = {
            "parameters": {"alpha": [0, 4], "beta": [0, 6]},
            "eval_seeds": [1, 2],
            "generations": 3,
        }
        meta.update(meta_extra)
        return {"aco": {"graph": "cities.csv"}, "meta": meta, "seed": 1}

    def test_meta_aco_accepted(self, workdir):
        config = load_config(write_json(workdir, self.meta_aco()))
        assert config.meta.boxes == {"alpha": ParamBox(0.0, 4.0), "beta": ParamBox(0.0, 6.0)}
        assert config.to_dict()["schedule"]["meta_generations"] == 3

    def test_meta_key_must_be_searchable(self, workdir):
        data = self.meta_aco(parameters={"ants": [1, 20]})
        with pytest.raises(ConfigurationError, match="not searchable"):
            load_config(write_json(workdir, data))

    def test_meta_for_eca_rejected(self, workdir):
        data = minimal_eca(
            meta={"parameters": {"alpha": [0, 1]}, "eval_seeds": [1]}
        )
        with pytest.raises(ConfigurationError, match="meta"):
            load_config(write_json(workdir, data))

    def test_meta_generations_consistency(self, workdir):
        data = self.meta_aco()
        data["schedule"] = {"meta_generations": 9}
        with pytest.raises(ConfigurationError, match="disagrees"):
            load_config(write_json(workdir, data))

    def test_meta_generations_agreement(self, workdir):
        data = self.meta_aco()
        data["schedule"] = {"meta_generations": 3}
        config = load_config(write_json(workdir, data))
        assert config.to_dict()["schedule"]["meta_generations"] == 3

    def test_meta_generations_without_section_rejected(self, workdir):
        data = minimal_eca(schedule={"slow_steps": 5, "meta_generations": 4})
        with pytest.raises(ConfigurationError, match="requires a meta section"):
            load_config(write_json(workdir, data))

    @pytest.mark.parametrize(
        "architecture, key, box, match",
        [
            ("aco", "alpha", "[0.0, 1e400]", "finite"),
            ("aco", "alpha", "[NaN, 4.0]", "finite"),
            ("aco", "beta", "[-Infinity, 6.0]", "finite"),
            # each id names the rule the box breaks
            pytest.param(
                "aco", "alpha", "[-1, 4]", "must be >= 0",
                id="aco-alpha-[-1, 4]-alpha and beta must be >= 0",
            ),
            pytest.param(
                "aco", "evaporation", "[0.5, 1.5]", "must be in",
                id="aco-evaporation-[0.5, 1.5]-evaporation must be in",
            ),
            pytest.param(
                "aco", "deposit", "[0, 2]", "must be positive",
                id="aco-deposit-[0, 2]-deposit must be positive",
            ),
            ("aco", "alpha", "[4, 0]", "empty search box"),
            pytest.param(
                "pso", "cognitive", "[-1, 2]", "must be >= 0",
                id="pso-cognitive-[-1, 2]-cognitive must be >= 0",
            ),
            ("pso", "inertia", "[0.4, Infinity]", "finite"),
        ],
    )
    def test_search_boxes_checked_at_load(self, workdir, architecture, key, box, match):
        section = (
            '"aco": {"graph": "cities.csv"}'
            if architecture == "aco"
            else '"pso": {"objective": "sphere", "dimension": 2}'
        )
        data = json.loads(
            '{%s, "meta": {"parameters": {"%s": %s}, "eval_seeds": [1]}, "seed": 1}'
            % (section, key, box)
        )
        with pytest.raises(ConfigurationError, match=rf"config\.meta\.parameters\.{key}: .*{match}"):
            build_config(data, base_dir=str(workdir))

    def test_single_point_search_box_is_legal(self, workdir):
        config = load_config(write_json(workdir, self.meta_aco(parameters={"alpha": [2.0, 2.0]})))
        assert config.meta.boxes == {"alpha": ParamBox(2.0, 2.0)}

    def test_empty_parameters_rejected(self, workdir):
        data = self.meta_aco(parameters={})
        with pytest.raises(ConfigurationError, match="parameters"):
            load_config(write_json(workdir, data))

    def test_eval_seeds_required(self, workdir):
        data = self.meta_aco(eval_seeds=[])
        with pytest.raises(ConfigurationError, match="eval_seeds"):
            load_config(write_json(workdir, data))


class TestSizes:
    """The largest array each section asks for is estimated at load, never allocated."""

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"pso": {"dimension": 2, "particles": HUGE}}, "pso"),
            ({"pso": {"dimension": HUGE}}, "pso"),
            (minimal_cross(particles=HUGE), "cross.pso"),
            ({"ann": {"layers": [2, HUGE, HUGE, 1], "dataset": "xor.csv"}}, "ann.layers"),
            ({"cross": {"ann": {"layers": [2, HUGE, 1], "dataset": "xor.csv"}}}, "cross.ann.layers"),
            ({"eca": {"rule": 110, "width": HUGE}}, "eca.width"),
            (minimal_meta_aco(population_size=HUGE), "meta.population_size"),
        ],
        ids=[
            "pso.particles",
            "pso.dimension",
            "cross.pso.particles",
            "ann.layers",
            "cross.ann.layers",
            "eca.width",
            "meta.population_size",
        ],
    )
    def test_oversized_setting_is_refused_at_load(self, workdir, data, where):
        message = rf"^config\.{re.escape(where)}: .* doubles in one array, over the limit of \d+$"
        with pytest.raises(ConfigurationError, match=message):
            build_config(data, str(workdir))

    @pytest.mark.parametrize("limit, refused", [(25, False), (24, True)])
    @pytest.mark.parametrize("fmt", ["coords", "matrix"])
    def test_a_graph_is_refused_by_its_cost_array(self, workdir, monkeypatch, fmt, limit, refused):
        if fmt == "matrix":
            rows = [",".join(str(abs(i - j)) for j in range(5)) for i in range(5)]
            (workdir / "cities.csv").write_text("\n".join(rows) + "\n")
        config = build_config({"aco": {"graph": "cities.csv", "graph_format": fmt}}, str(workdir))
        monkeypatch.setattr(problems, "ARRAY_DOUBLES", limit)
        message = r"^config\.aco\.graph: 5 cities need 25 doubles in one array, over the limit of 24$"
        if refused:
            with pytest.raises(ConfigurationError, match=message):
                config.section.problem()
        else:
            assert config.section.problem().n == 5

    def test_a_cross_stack_is_refused_when_its_dataset_loads(self, workdir):
        rows = [f"{i % 2},{i // 2 % 2},{(i ^ i // 2) % 2}" for i in range(300)]
        (workdir / "wide.csv").write_text("in0,in1,out0\n" + "\n".join(rows) + "\n")
        data = {"cross": {"ann": {"layers": [2, 64, 1], "dataset": "wide.csv"}, "pso": {"particles": 1000}}}
        config = build_config(data, str(workdir))  # each setting alone is small
        message = (
            r"^config\.cross\.ann\.dataset: 1000 particles on 300 samples through 64 units "
            r"need 19200000 doubles in one array, over the limit of 16777216$"
        )
        with pytest.raises(ConfigurationError, match=message):
            config.section.problem()

    def test_committed_configs_and_workloads_sit_far_below_the_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(problems, "ARRAY_DOUBLES", problems.ARRAY_DOUBLES // 100)
        for path in sorted((ROOT / "configs").glob("*.json")):
            load_config(str(path)).section.problem()
        for name in sorted(workloads.WORKLOADS):
            (tmp_path / name).mkdir()
            data = workloads.make_inputs(name, 1, str(tmp_path / name))
            build_config(data, str(tmp_path / name)).section.problem()


class TestRoundTrips:
    def roundtrip(self, workdir, data):
        first = load_config(write_json(workdir, data))
        echoed = workdir / "resolved.json"
        write_config(first, str(echoed))
        second = load_config(str(echoed))
        assert first == second
        return first

    def test_eca_round_trip(self, workdir):
        self.roundtrip(workdir, minimal_eca(out="runs/eca.jsonl"))

    def test_ann_round_trip(self, workdir):
        self.roundtrip(
            workdir,
            {
                "ann": {"layers": [2, 2, 1], "dataset": "xor.csv", "learning_rate": 0.5},
                "schedule": {"fast_steps_per_slow": 4, "slow_steps": 20},
                "seed": 3,
            },
        )

    def test_aco_round_trip(self, workdir):
        self.roundtrip(
            workdir,
            {
                "aco": {"graph": "cities.csv", "ants": 5, "demon": "two-opt"},
                "schedule": {"slow_steps": 10},
                "seed": 4,
            },
        )

    def test_pso_round_trip(self, workdir):
        self.roundtrip(
            workdir,
            {
                "pso": {"objective": "sphere", "dimension": 2, "topology": "global"},
                "schedule": {"slow_steps": 15},
                "seed": 5,
            },
        )

    def test_meta_round_trip(self, workdir):
        self.roundtrip(
            workdir,
            {
                "aco": {"graph": "cities.csv"},
                "meta": {
                    "parameters": {"alpha": [0, 4]},
                    "eval_seeds": [1, 2, 3],
                    "generations": 2,
                    "inner_slow_steps": 5,
                },
                "seed": 6,
            },
        )

    def test_cross_round_trip(self, workdir):
        self.roundtrip(
            workdir,
            {
                "cross": {
                    "ann": {"layers": [2, 2, 1], "dataset": "xor.csv"},
                    "pso": {"particles": 12, "topology": "global"},
                    "weight_bounds": [-3, 3],
                },
                "schedule": {"slow_steps": 25},
                "seed": 7,
            },
        )

    def test_custom_pso_neighborhoods_round_trip(self, workdir):
        config = self.roundtrip(
            workdir,
            {
                "pso": {
                    "objective": "sphere",
                    "dimension": 2,
                    "particles": 4,
                    "topology": "custom",
                    "neighborhoods": [[0, 1], [0, 1], [2, 3], [2, 3]],
                },
                "schedule": {"slow_steps": 5},
                "seed": 8,
            },
        )
        assert config.section.params.neighborhoods == ((0, 1), (0, 1), (2, 3), (2, 3))

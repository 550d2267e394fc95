"""Each params field's declared rule: read from its field metadata, held to
the field's plain predicate at its edges, and fed into the committed
configs, where an edge value, like a value of the wrong JSON kind or a
deleted key, must end a run cleanly."""
import json
import math
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cnets.aco import AcoParams
from cnets.ann import AnnParams
from cnets.cli import main
from cnets.core import ScaleSchedule
from cnets.errors import ConfigurationError
from cnets.meta import MetaConfig
from cnets.pso import PsoParams
from cnets.records import read_run_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CAPPED = (("schedule", "slow_steps"), ("eca", "steps"), ("meta", "generations"), ("meta", "inner_slow_steps"))

# each scalar field's plain predicate, and the text that names its bound;
# a float must be finite as well, or its refusal reads "must be finite"
ONE_OF = "one of ('tanh', 'logistic', 'identity')"
PREDICATES = {
    (AcoParams, "alpha"): (lambda v: v >= 0, ">= 0"),
    (AcoParams, "beta"): (lambda v: v >= 0, ">= 0"),
    (AcoParams, "evaporation"): (lambda v: 0 <= v <= 1, "in [0, 1]"),
    (AcoParams, "deposit"): (lambda v: v > 0, "positive"),
    (AcoParams, "ants"): (lambda v: v >= 1, ">= 1"),
    (AcoParams, "initial_pheromone"): (lambda v: v > 0, "positive"),
    (AcoParams, "min_pheromone"): (lambda v: v > 0, "positive"),
    (AcoParams, "demon"): (lambda v: v in ("off", "two-opt"), "one of ('off', 'two-opt')"),
    (PsoParams, "particles"): (lambda v: v >= 2, ">= 2"),
    (PsoParams, "inertia"): (lambda v: True, None),
    (PsoParams, "cognitive"): (lambda v: v >= 0, ">= 0"),
    (PsoParams, "social"): (lambda v: v >= 0, ">= 0"),
    (PsoParams, "velocity_clamp"): (lambda v: v >= 0, ">= 0"),
    (PsoParams, "topology"): (lambda v: v in ("ring", "global", "custom"), "one of ('ring', 'global', 'custom')"),
    (AnnParams, "learning_rate"): (lambda v: v > 0, "positive"),
    (AnnParams, "hidden_activation"): (lambda v: v in ("tanh", "logistic", "identity"), ONE_OF),
    (AnnParams, "output_activation"): (lambda v: v in ("tanh", "logistic", "identity"), ONE_OF),
    (MetaConfig, "population_size"): (lambda v: v >= 2, ">= 2"),
    (MetaConfig, "generations"): (lambda v: v >= 0, ">= 0"),
    (MetaConfig, "crossover_rate"): (lambda v: 0 <= v <= 1, "in [0, 1]"),
    (MetaConfig, "mutation_stddev"): (lambda v: v >= 0, ">= 0"),
    (MetaConfig, "inner_slow_steps"): (lambda v: v >= 1, ">= 1"),
    (ScaleSchedule, "fast_steps_per_slow"): (lambda v: v >= 1, ">= 1"),
    (ScaleSchedule, "slow_steps"): (lambda v: v >= 0, ">= 0"),
}
# scalar fields checked against other fields by hand, so they declare no rule
ACROSS_FIELDS = {(MetaConfig, "tournament_size")}

SCALAR_FIELDS = [
    (cls, f)
    for cls in (AcoParams, PsoParams, AnnParams, MetaConfig, ScaleSchedule)
    for f in fields(cls)
    if isinstance(f.default, (float, int, str))
]


def edge_values(rule, default):
    """The values at a rule's edges: each choice and one outside them; an
    int bound and its neighbours; a float bound, the next float on either
    side, and the non-finite floats. The default is always among them."""
    if rule.choices:
        return [*rule.choices, "none of these"]
    bounds = [b for b in (rule.low, rule.high) if b is not None]
    if isinstance(default, int):
        return [default, *(b + step for b in bounds for step in (-1, 0, 1))]
    near = [v for b in bounds for v in (math.nextafter(b, -math.inf), float(b), math.nextafter(b, math.inf))]
    return [default, *near, math.inf, -math.inf, math.nan]


def _others(cls, value):
    """What cls is built with besides the field under test, so that no
    check across fields refuses a value its own rule accepts."""
    if cls is MetaConfig:
        return {"tournament_size": 1}
    if value == "custom":
        return {"particles": 2, "neighborhoods": ((0, 1), (0, 1))}
    return {}


def test_every_scalar_field_is_declared_or_checked_across_fields():
    named = {(cls, f.name) for cls, f in SCALAR_FIELDS}
    declared = {(cls, f.name) for cls, f in SCALAR_FIELDS if "rule" in f.metadata}
    assert declared == set(PREDICATES)
    assert named - declared == ACROSS_FIELDS


@pytest.mark.parametrize(
    "cls, field", [(cls, f) for cls, f in SCALAR_FIELDS if "rule" in f.metadata],
    ids=lambda v: v.__name__ if isinstance(v, type) else v.name,
)
def test_a_declared_rule_accepts_exactly_what_its_predicate_holds(cls, field):
    keeps, bound = PREDICATES[cls, field.name]
    # an int too large for a float lies past every float bound, yet keeps a rule with no high
    huge = [2**1100] if isinstance(field.default, int) else []
    for value in edge_values(field.metadata["rule"], field.default) + huge:
        finite = not isinstance(value, float) or math.isfinite(value)
        kwargs = {**_others(cls, value), field.name: value}
        if finite and keeps(value):
            assert getattr(cls(**kwargs), field.name) == value
        else:
            with pytest.raises(ConfigurationError) as refused:
                cls(**kwargs)
            assert refused.value.key == field.name, value
            broken = bound if finite else "finite"
            assert str(refused.value) == f"{field.name}: must be {broken}, got {value!r}"


def _sections(data):
    """(path, params class) of each params section of a config."""
    found = [(("schedule",), ScaleSchedule)]
    for name, cls in (("aco", AcoParams), ("ann", AnnParams), ("pso", PsoParams), ("meta", MetaConfig)):
        if name in data:
            found.append(((name,), cls))
    if "cross" in data:
        found += [(("cross", "ann"), AnnParams), (("cross", "pso"), PsoParams)]
    return found


def _capped(data):
    """data with at most 2 slow steps, meta generations and inner slow steps."""
    for section, key in CAPPED:
        if key in data.get(section, {}):
            data[section][key] = min(data[section][key], 2)
    return data


@pytest.fixture
def configs(tmp_path):
    """A copy of configs/, whose inputs a config there names by file name."""
    shutil.copytree(CONFIGS, tmp_path, dirs_exist_ok=True)
    return tmp_path


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_an_edge_value_in_a_committed_config_ends_the_run_cleanly(configs, capsys, name, choice):
    data = _capped(json.loads((CONFIGS / name).read_text()))
    path, cls = choice.draw(st.sampled_from(_sections(data)), label="section")
    field = choice.draw(st.sampled_from([f for f in fields(cls) if "rule" in f.metadata]), label="key")
    value = choice.draw(st.sampled_from(edge_values(field.metadata["rule"], field.default)), label="value")
    section = data
    for part in path:
        section = section.setdefault(part, {})
    section[field.name] = value
    data["out"] = "edge.jsonl"
    (configs / "edge.jsonl").unlink(missing_ok=True)
    (configs / "edge.json").write_text(json.dumps(data))
    status = main(["run", str(configs / "edge.json")])
    err = capsys.readouterr().err
    assert status in (0, 1), err
    if status == 0:
        read_run_file(str(configs / "edge.jsonl"))
    else:
        assert err.startswith("config error: "), err


# a value of each JSON kind but number: no mutation writes a number, so a
# schedule key holds what _capped left in it or, once deleted, its default
OTHER_KINDS = (None, True, "x", [], {}, [1], {"a": 1})
DELETED = "deleted"


def _json_kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _paths(node, prefix=()):
    """The path of every value under node: each section, leaf and list element."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_a_wrong_kind_or_a_deleted_key_in_a_committed_config_ends_the_run_cleanly(
    configs, capsys, monkeypatch, name, choice
):
    monkeypatch.delenv("CN_SEED", raising=False)
    data = _capped(json.loads((CONFIGS / name).read_text()))
    data["out"] = "mutated.jsonl"
    *parents, key = choice.draw(st.sampled_from(list(_paths(data))), label="path")
    section = data
    for part in parents:
        section = section[part]
    kinds = [v for v in OTHER_KINDS if _json_kind(v) != _json_kind(section[key])]
    value = choice.draw(st.sampled_from([*kinds, DELETED]), label="value")
    if value == DELETED:
        del section[key]
    else:
        section[key] = value
    for written in configs.glob("*.jsonl"):
        written.unlink()
    (configs / "mutated.json").write_text(json.dumps(data))
    status = main(["run", str(configs / "mutated.json")])
    err = capsys.readouterr().err
    assert status in (0, 1, 2, 3), err
    if status == 0:
        read_run_file(str(configs / data["out"]))

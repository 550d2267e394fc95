"""Run configuration: a strict JSON schema with full default echoing.

Every run is described by one JSON object. Exactly one architecture
section (ann / aco / pso / eca) may be present for a plain run, or a
cross section alone for the swarm-trains-network composition. Unknown
keys anywhere are hard errors, file references are checked at load
time, and load_config fills every default so the config echoed into a
record header is complete. Relative paths are resolved against the
config file's directory.

Every section holds the library's own params object (AnnParams,
AcoParams, PsoParams, EcaParams, MetaConfig): its keys, kinds and
defaults are that dataclass's fields, so each default is written once,
and the objects are built at load, so their value errors surface there,
named by config path. A RunConfig holds its run's one section, and the
section is where the run's problem and network come from: problem()
loads the instance and draws nothing, and network(problem, rng, genome)
makes the build draws, with a meta genome overriding the aco or pso
params it names. A meta section holds its search boxes, built at load.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Mapping, Sequence

from . import aco, ann, eca, pso
from .aco import AcoParams
from .ann import AnnParams
from .core import ComputingNetwork, ScaleSchedule
from .cross import WEIGHT_BOUNDS
from .eca import EcaParams
from .errors import ConfigurationError
from .meta import Genome, MetaConfig, ParamBox
from .problems import Dataset, Objective, Tape, TourGraph, named_objective
from .pso import PsoParams
from .rng import RngStream, check_seed

# Real-valued parameters the meta scale may search over: the float fields
# of each architecture's params class.
META_SEARCHABLE = {
    arch: tuple(f.name for f in fields(cls) if isinstance(f.default, float))
    for arch, cls in (("aco", AcoParams), ("pso", PsoParams))
}


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {unknown}")


def _get(data: Mapping[str, Any], key: str, where: str, kind, default=None, required=False):
    # an explicit JSON null means the same as an absent key
    if key not in data or data[key] is None:
        if required:
            raise ConfigurationError(f"{where}: missing required key {key!r}")
        return default
    value = data[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{where}.{key}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigurationError(f"{where}.{key}: integer too large for a float") from None
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{where}.{key}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{where}.{key}: expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}.{key}: expected a list, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where}.{key}: expected an object, got {value!r}")
        return value
    if kind is object:  # any JSON value; the caller checks its shape
        return value
    raise AssertionError(f"unhandled kind {kind}")


def _finite_number(value: Any) -> bool:
    """Whether value is a JSON number, not a bool, whose float is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _number_pair(value: Any, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2 or not all(map(_finite_number, value)):
        raise ConfigurationError(f"{where}: expected a [low, high] pair of finite numbers, got {value!r}")
    low, high = float(value[0]), float(value[1])
    if not math.isfinite(high - low):  # a random draw inside the box needs its width
        raise ConfigurationError(f"{where}: high - low must be finite, got {value!r}")
    return low, high


def _resolve_path(path: str, base_dir: str, where: str) -> str:
    resolved = path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))
    if not os.path.isfile(resolved):
        raise ConfigurationError(f"{where}: referenced file does not exist: {resolved}")
    return resolved


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _at(where: str, build, *args: Any, **kwargs: Any):
    """build(*args, **kwargs), its ConfigurationError named by the config path
    where: where.key when the error names the key at fault."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}{'.' if exc.key else ': '}{exc}") from None


def _read(cls, data: Mapping[str, Any], where: str, **parsed: Any):
    """A params object built from data's keys, so its value errors surface at load.

    Each scalar field of cls that parsed does not supply is read with its
    default's kind, and an absent field keeps its default.
    """
    kwargs = {
        f.name: _get(data, f.name, where, type(f.default))
        for f in fields(cls)
        if isinstance(f.default, (float, int, str))
        and f.name not in parsed
        and data.get(f.name) is not None
    }
    return _at(where, cls, **kwargs, **parsed)


def _plain(value: Any) -> Any:
    """value as JSON echoes it: a dataclass as a dict in field order, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _echo(params: Any) -> dict[str, Any]:
    """A params object's keys in field order, leaving out optional fields left unset."""
    return {key: value for key, value in _plain(params).items() if value is not None}


def _with(params: Any, genome: Genome) -> Any:
    """params with the values genome names; constructed, so __post_init__
    checks them: dataclasses.replace does the same at twice the cost, once
    per meta rebuild."""
    return type(params)(**vars(params) | genome)


def _check_swarm(particles: int, dimension: int, where: str) -> None:
    """A swarm's largest array is its build's (particles, 2, dimension) draws."""
    aco.check_size(particles * 2 * dimension, where, f"{particles} particles in {dimension} dimensions")


@dataclass
class AnnSection:
    layers: tuple[int, ...]
    dataset: str
    params: AnnParams

    def to_dict(self) -> dict[str, Any]:
        return {"layers": list(self.layers), "dataset": self.dataset, **_echo(self.params)}

    @classmethod
    def parse(cls, data: Mapping[str, Any], base_dir: str, where: str) -> "AnnSection":
        _check_keys(data, ("layers", "dataset") + _names(AnnParams), where)
        layers = _get(data, "layers", where, list, required=True)
        if len(layers) < 2 or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in layers):
            raise ConfigurationError(f"{where}.layers: expected >= 2 positive integers, got {layers!r}")
        count = ann.LayeredTopology(tuple(layers)).parameter_count
        aco.check_size(count, f"{where}.layers", f"{count} parameters")
        dataset = _resolve_path(_get(data, "dataset", where, str, required=True), base_dir, f"{where}.dataset")
        return cls(layers=tuple(layers), dataset=dataset, params=_read(AnnParams, data, where))

    def problem(self, where: str = "config.ann") -> Dataset:
        dataset = Dataset.from_csv(self.dataset)
        _at(f"{where}.layers", ann._check_arities, ann.LayeredTopology(self.layers), dataset)
        return dataset

    def network(self, problem: Dataset, rng: RngStream, genome: Genome) -> ComputingNetwork:
        return ann.build_ann(self.layers, problem, rng, self.params)


@dataclass
class AcoSection:
    graph: str
    graph_format: str
    params: AcoParams

    def to_dict(self) -> dict[str, Any]:
        return {"graph": self.graph, "graph_format": self.graph_format, **_echo(self.params)}

    @classmethod
    def parse(cls, data: Mapping[str, Any], base_dir: str, where: str) -> "AcoSection":
        _check_keys(data, ("graph", "graph_format") + _names(AcoParams), where)
        graph_format = _get(data, "graph_format", where, str, default="coords")
        if graph_format not in ("coords", "matrix"):
            raise ConfigurationError(f"{where}.graph_format: expected coords or matrix")
        return cls(
            graph=_resolve_path(_get(data, "graph", where, str, required=True), base_dir, f"{where}.graph"),
            graph_format=graph_format,
            params=_read(AcoParams, data, where),
        )

    def problem(self) -> TourGraph:
        graph = TourGraph.from_csv(self.graph, fmt=self.graph_format)
        aco.check_walk_size(self.params.ants, graph.n, "config.aco.ants")
        return graph

    def network(self, problem: TourGraph, rng: RngStream, genome: Genome) -> ComputingNetwork:
        return aco.build_aco_network(problem, _with(self.params, genome))


@dataclass
class PsoSection:
    objective: Objective
    params: PsoParams

    def to_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective.name,
            "dimension": self.objective.dimension,
            "bounds": [self.objective.lower, self.objective.upper],
            **_echo(self.params),
        }

    @classmethod
    def parse(cls, data: Mapping[str, Any], base_dir: str, where: str) -> "PsoSection":
        _check_keys(data, ("objective", "dimension", "bounds") + _names(PsoParams), where)
        dimension = _get(data, "dimension", where, int, required=True)
        bounds = None
        if data.get("bounds") is not None:
            bounds = _number_pair(data["bounds"], f"{where}.bounds")
        name = _get(data, "objective", where, str, default="sphere")
        neighborhoods = None
        if data.get("neighborhoods") is not None:
            raw = _get(data, "neighborhoods", where, list)
            for i, members in enumerate(raw):
                if not isinstance(members, list) or any(
                    isinstance(m, bool) or not isinstance(m, int) for m in members
                ):
                    raise ConfigurationError(
                        f"{where}.neighborhoods[{i}]: expected a list of particle ids"
                    )
            neighborhoods = tuple(tuple(members) for members in raw)
        objective = _at(where, named_objective, name, dimension, bounds)
        params = _read(PsoParams, data, where, neighborhoods=neighborhoods)
        _check_swarm(params.particles, dimension, where)
        return cls(objective=objective, params=params)

    def problem(self) -> Objective:
        return self.objective

    def network(self, problem: Objective, rng: RngStream, genome: Genome) -> ComputingNetwork:
        return pso.build_pso_network(problem, rng, _with(self.params, genome))


@dataclass
class EcaSection:
    steps: int | None
    params: EcaParams

    def to_dict(self) -> dict[str, Any]:
        echo = _plain(self.params)
        # the header keeps steps between the tape's width and its boundary
        return {"rule": echo.pop("rule"), "width": echo.pop("width"), "steps": self.steps, **echo}

    @classmethod
    def parse(cls, data: Mapping[str, Any], base_dir: str, where: str) -> "EcaSection":
        _check_keys(data, ("steps",) + _names(EcaParams), where)
        initial = _get(data, "initial", where, object, default=EcaParams.initial)
        if isinstance(initial, list):
            if any(isinstance(v, bool) or v not in (0, 1) for v in initial):
                raise ConfigurationError(f"{where}.initial: cells must all be 0 or 1")
            initial = tuple(initial)
        steps = _get(data, "steps", where, int)
        if steps is not None and steps < 0:
            raise ConfigurationError(f"{where}.steps: must be >= 0, got {steps}")
        rule = _get(data, "rule", where, int, required=True)
        width = _get(data, "width", where, int, required=True)
        aco.check_size(width, f"{where}.width", f"{width} cells")
        params = _read(EcaParams, data, where, rule=rule, width=width, initial=initial)
        return cls(steps=steps, params=params)

    def problem(self) -> Tape:
        return self.params.tape()

    def network(self, problem: Tape, rng: RngStream, genome: Genome) -> ComputingNetwork:
        return eca.build_eca_network(problem, self.params.rule, eca.UpdateMode(self.params.updating))


@dataclass
class MetaSection:
    boxes: dict[str, ParamBox]
    config: MetaConfig

    def to_dict(self) -> dict[str, Any]:
        return {
            "parameters": {key: [box.low, box.high] for key, box in self.boxes.items()},
            **_echo(self.config),
        }

    @classmethod
    def parse(
        cls, data: Mapping[str, Any], where: str, architecture: str, params: Any
    ) -> "MetaSection":
        """params is the searched section's params object: each box must be
        a finite, nonempty interval whose ends it accepts."""
        _check_keys(data, ("parameters",) + _names(MetaConfig), where)
        raw_params = _get(data, "parameters", where, dict, required=True)
        if not raw_params:
            raise ConfigurationError(f"{where}.parameters: need at least one search box")
        allowed = META_SEARCHABLE[architecture]
        bad = sorted(set(raw_params) - set(allowed))
        if bad:
            raise ConfigurationError(
                f"{where}.parameters: {bad} not searchable for {architecture} "
                f"(allowed: {list(allowed)})"
            )
        boxes = {
            key: _at(f"{where}.parameters.{key}", ParamBox, *_number_pair(box, f"{where}.parameters.{key}"))
            for key, box in raw_params.items()
        }
        # every end must be a value params accepts; it checks field by field and
        # names the key at fault, so one object holds all the lows and one all the highs
        for end in ("low", "high"):
            ends = {key: getattr(box, end) for key, box in boxes.items()}
            _at(f"{where}.parameters", replace, params, **ends)
        eval_seeds = tuple(_get(data, "eval_seeds", where, list, required=True))
        config = _read(MetaConfig, data, where, eval_seeds=eval_seeds)
        size, keys = config.population_size, len(boxes)
        aco.check_size(size * keys, f"{where}.population_size", f"{size} genomes of {keys} values")
        return cls(boxes=boxes, config=config)


@dataclass
class CrossSection:
    """Outer swarm settings plus the inner network it trains."""

    ann: AnnSection
    pso: PsoParams
    weight_bounds: tuple[float, float]
    dimension: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "ann": self.ann.to_dict(),
            "pso": _echo(self.pso),
            "weight_bounds": list(self.weight_bounds),
            "dimension": self.dimension,
        }

    @classmethod
    def parse(cls, data: Mapping[str, Any], base_dir: str, where: str) -> "CrossSection":
        _check_keys(data, ("ann", "pso", "weight_bounds", "dimension"), where)
        inner = AnnSection.parse(_get(data, "ann", where, dict, required=True), base_dir, f"{where}.ann")
        pso_raw = _get(data, "pso", where, dict, default={})
        _check_keys(pso_raw, tuple(k for k in _names(PsoParams) if k != "neighborhoods"), f"{where}.pso")
        weight_bounds = WEIGHT_BOUNDS
        if data.get("weight_bounds") is not None:
            weight_bounds = _number_pair(data["weight_bounds"], f"{where}.weight_bounds")
        if not weight_bounds[0] < weight_bounds[1]:
            raise ConfigurationError(
                f"{where}.weight_bounds: must have low < high, got {list(weight_bounds)}"
            )
        dimension = _get(data, "dimension", where, int)
        count = ann.LayeredTopology(inner.layers).parameter_count
        if dimension is not None and dimension != count:
            raise ConfigurationError(
                f"{where}.dimension: must equal the network's {count} trainable parameters, "
                f"got {dimension}"
            )
        topology = _get(pso_raw, "topology", f"{where}.pso", str)
        if topology not in (None, "ring", "global"):
            raise ConfigurationError(
                f"{where}.pso.topology: cross runs support ring or global, got {topology!r}"
            )
        params = _read(PsoParams, pso_raw, f"{where}.pso")
        _check_swarm(params.particles, count, f"{where}.pso")
        return cls(ann=inner, pso=params, weight_bounds=weight_bounds, dimension=dimension)

    def problem(self) -> Dataset:
        return self.ann.problem("config.cross.ann")


_SECTIONS = {
    "ann": AnnSection, "aco": AcoSection, "pso": PsoSection, "eca": EcaSection, "cross": CrossSection
}


@dataclass
class RunConfig:
    """A validated run: its one section, its schedule and an optional meta search."""

    architecture: str
    schedule: ScaleSchedule
    section: AnnSection | AcoSection | PsoSection | EcaSection | CrossSection
    seed: int | None = None
    out: str | None = None
    meta: MetaSection | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "architecture": self.architecture,
            "seed": self.seed,
            "out": self.out,
            "schedule": {
                "fast_steps_per_slow": self.schedule.fast_steps_per_slow,
                "slow_steps": self.schedule.slow_steps,
                "meta_generations": 0 if self.meta is None else self.meta.config.generations,
            },
            self.architecture: self.section.to_dict(),
        }
        if self.meta is not None:
            out["meta"] = self.meta.to_dict()
        return out


_TOP_KEYS = ("architecture", "seed", "out", "schedule", "meta") + tuple(_SECTIONS)


def build_config(data: Mapping[str, Any], base_dir: str = ".") -> RunConfig:
    """Validate a parsed JSON object and fill every default."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config must be a JSON object, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS, "config")

    present = [name for name in _SECTIONS if name in data]  # cross comes last
    if not present:
        raise ConfigurationError("config: no architecture section present")
    if present[-1] == "cross" and len(present) > 1:
        raise ConfigurationError(f"config: cross runs take no architecture section, found {present[:-1]}")
    if len(present) > 1:
        raise ConfigurationError(f"config: exactly one architecture section allowed, found {present}")

    declared = _get(data, "architecture", "config", str)
    architecture = present[0]
    if declared is not None and declared != architecture:
        raise ConfigurationError(
            f"config.architecture: declared {declared!r} but the config describes {architecture!r}"
        )

    seed = _get(data, "seed", "config", int)
    if seed is not None:
        _at("config", check_seed, seed)
    out = _get(data, "out", "config", str)
    if out is not None and not os.path.isabs(out):
        # outputs resolve like inputs: against the config's directory
        out = os.path.normpath(os.path.join(base_dir, out))

    sched_raw = _get(data, "schedule", "config", dict, default={})
    _check_keys(sched_raw, ("fast_steps_per_slow", "slow_steps", "meta_generations"), "config.schedule")
    fast = _get(sched_raw, "fast_steps_per_slow", "config.schedule", int, default=1)
    slow = _get(sched_raw, "slow_steps", "config.schedule", int)
    meta_gens = _get(sched_raw, "meta_generations", "config.schedule", int)

    section = _SECTIONS[architecture].parse(data[architecture], base_dir, f"config.{architecture}")
    if architecture == "eca" and section.steps is not None:
        if slow is not None and slow != section.steps:
            raise ConfigurationError(
                f"config: eca.steps ({section.steps}) disagrees with "
                f"schedule.slow_steps ({slow})"
            )
        slow = section.steps
    # the schedule is echoed into the header, so a value the run ignores is refused
    if architecture == "cross" and fast != 1:
        raise ConfigurationError(
            f"config.schedule.fast_steps_per_slow: must be 1, a cross run moves its swarm "
            f"once per slow step, got {fast}"
        )

    meta = None
    if "meta" in data:
        if architecture not in META_SEARCHABLE:
            raise ConfigurationError(
                f"config.meta: meta search supports {sorted(META_SEARCHABLE)}, not {architecture!r}"
            )
        meta = MetaSection.parse(data["meta"], "config.meta", architecture, section.params)
        if meta_gens is not None and meta_gens != meta.config.generations:
            raise ConfigurationError(
                f"config: schedule.meta_generations ({meta_gens}) disagrees with "
                f"meta.generations ({meta.config.generations})"
            )
        if slow:
            raise ConfigurationError(
                f"config.schedule.slow_steps: must be 0, a meta run's inner runs take "
                f"meta.inner_slow_steps, got {slow}"
            )
        if fast != 1:
            raise ConfigurationError(
                f"config.schedule.fast_steps_per_slow: must be 1, a meta run's inner runs take "
                f"one fast step per slow step, meta.inner_slow_steps of them, got {fast}"
            )
    elif meta_gens:
        raise ConfigurationError(
            "config: schedule.meta_generations > 0 requires a meta section"
        )

    schedule = _at("config.schedule", ScaleSchedule, fast, 0 if slow is None else slow)
    if architecture == "eca":
        section.steps = schedule.slow_steps
    return RunConfig(architecture, schedule, section, seed=seed, out=out, meta=meta)


def load_config(path: str) -> RunConfig:
    """Read, parse, and validate one JSON config file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal with more digits than Python converts
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    return build_config(data, base_dir=os.path.dirname(os.path.abspath(path)))

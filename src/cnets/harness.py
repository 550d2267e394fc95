"""Config-driven run orchestration across every architecture.

execute() is the single entry point the CLI wraps: it builds the
problem and network a validated RunConfig describes, drives the
schedule (two-scale, three-scale, or cross composition), and writes the
record file with the resolved config echoed as its header.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from . import aco, ann, eca, pso
from .config import RunConfig
from .core import ComputingNetwork, RunRecord, ScaleSchedule, UpdateMode, run
from .cross import cross_train
from .errors import ConfigurationError
from .meta import MetaConfig, MetaSearch, ParamBox
from .problems import Dataset, Tape, TourGraph, named_objective
from .records import write_run_file
from .rng import RngStream


@dataclass
class ExecuteResult:
    config: dict[str, Any]
    records: list[RunRecord] = field(default_factory=list)
    out_path: str | None = None


def _eca_tape(config: RunConfig) -> Tape:
    section = config.eca
    if isinstance(section.initial, str):
        return Tape.single_one(section.width, boundary=section.boundary)
    return Tape.from_cells(section.initial, boundary=section.boundary)


def _build_two_scale(config: RunConfig, rng: RngStream) -> tuple[ComputingNetwork, Any]:
    """Build (network, problem) for a plain run; consumes build draws."""
    if config.architecture == "ann":
        section = config.ann
        dataset = Dataset.from_csv(section.dataset)
        net = ann.build_ann(
            section.layers,
            dataset,
            rng,
            learning_rate=section.learning_rate,
            hidden_activation=section.hidden_activation,
            output_activation=section.output_activation,
        )
        return net, dataset
    if config.architecture == "aco":
        section = config.aco
        graph = TourGraph.from_csv(section.graph, fmt=section.graph_format)
        return aco.build_aco_network(graph, section.to_params()), graph
    if config.architecture == "pso":
        section = config.pso
        objective = named_objective(section.objective, section.dimension, section.bounds)
        return pso.build_pso_network(objective, rng, section.to_params()), objective
    if config.architecture == "eca":
        tape = _eca_tape(config)
        net = eca.build_eca_network(
            tape, config.eca.rule, updating=UpdateMode(config.eca.updating)
        )
        return net, tape
    raise ConfigurationError(f"cannot build architecture {config.architecture!r}")


def _meta_search(config: RunConfig, problem: Any) -> MetaSearch:
    """Turn the meta section into a search over rebuilt inner runs.

    problem is the instance _build_two_scale already loaded. The
    config's own parameter values seed the initial population (clipped
    to the boxes), so the search result can only match or improve on
    them.
    """
    section = config.meta
    boxes = {key: ParamBox(low=lo, high=hi) for key, (lo, hi) in section.parameters.items()}
    base_params = config.section().to_params()
    seed_genome = {key: float(getattr(base_params, key)) for key in boxes}

    if config.architecture == "aco":
        def rebuild(genome, rng):
            merged = replace(base_params, **genome)
            return aco.build_aco_network(problem, merged), problem

    else:
        def rebuild(genome, rng):
            merged = replace(base_params, **genome)
            return pso.build_pso_network(problem, rng, merged), problem

    meta_config = MetaConfig(
        population_size=section.population_size,
        generations=section.generations,
        tournament_size=section.tournament_size,
        crossover_rate=section.crossover_rate,
        mutation_stddev=section.mutation_stddev,
        inner_slow_steps=section.inner_slow_steps,
        eval_seeds=section.eval_seeds,
    )
    return MetaSearch(
        config=meta_config, boxes=boxes, rebuild=rebuild, seed_genome=seed_genome
    )


def execute(config: RunConfig) -> ExecuteResult:
    """Run one resolved config end to end.

    The config must carry a seed by now (the CLI resolves precedence);
    the record file is only written when an output path is set.
    """
    if config.seed is None:
        raise ConfigurationError(
            "no seed: set config.seed, pass --seed, or export CN_SEED"
        )
    rng = RngStream(config.seed)

    if config.architecture == "cross":
        section = config.cross
        result = cross_train(
            Dataset.from_csv(section.ann.dataset),
            section.ann.layers,
            rng,
            iterations=config.schedule.slow_steps,
            pso_params=pso.PsoParams(
                inertia=section.pso_inertia,
                cognitive=section.pso_cognitive,
                social=section.pso_social,
                velocity_clamp=section.pso_velocity_clamp,
                particles=section.pso_particles,
                topology=section.pso_topology,
            ),
            weight_bounds=section.weight_bounds,
            hidden_activation=section.ann.hidden_activation,
            output_activation=section.ann.output_activation,
            dimension=section.dimension,
        )
        records = result.records
    elif config.schedule.meta_generations > 0:
        net, problem = _build_two_scale(config, rng)
        records = run(
            net, config.schedule, problem, rng, meta_search=_meta_search(config, problem)
        )
    else:
        net, problem = _build_two_scale(config, rng)
        records = run(net, config.schedule, problem, rng)

    resolved = config.to_dict()
    if config.out is not None:
        write_run_file(config.out, resolved, records)
    return ExecuteResult(config=resolved, records=records, out_path=config.out)

"""Config-driven run orchestration across every architecture.

execute() is the single entry point the CLI wraps: it loads the problem
a validated RunConfig describes, drives it (a two-scale run of the
network built over it, a meta search that rebuilds that network per
genome, or the cross composition), and writes the record file with the
resolved config echoed as its header.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import aco, ann, eca, pso
from .config import RunConfig
from .core import ComputingNetwork, RunRecord, run
from .cross import cross_train
from .errors import ConfigurationError
from .meta import Genome, MetaSearch, ParamBox, three_scale_run
from .problems import Dataset, Tape, TourGraph, named_objective
from .records import write_run_file
from .rng import RngStream


@dataclass
class ExecuteResult:
    config: dict[str, Any]
    records: list[RunRecord] = field(default_factory=list)
    out_path: str | None = None


def _load_problem(config: RunConfig) -> Any:
    """The problem instance of a plain or meta run; draws nothing."""
    section = config.section()
    if config.architecture == "ann":
        return Dataset.from_csv(section.dataset)
    if config.architecture == "aco":
        return TourGraph.from_csv(section.graph, fmt=section.graph_format)
    if config.architecture == "pso":
        return named_objective(section.objective, section.dimension, section.bounds)
    if config.architecture == "eca":
        if isinstance(section.initial, str):
            return Tape.single_one(section.width, boundary=section.boundary)
        return Tape.from_cells(section.initial, boundary=section.boundary)
    raise ConfigurationError(f"cannot build architecture {config.architecture!r}")


def _build_network(
    config: RunConfig, problem: Any, rng: RngStream, genome: Genome
) -> ComputingNetwork:
    """The network the config describes over problem; consumes build draws.

    genome overrides the aco or pso params it names: empty for a plain
    run, one meta genome per rebuild.
    """
    section = config.section()
    if config.architecture == "ann":
        return ann.build_ann(
            section.layers,
            problem,
            rng,
            learning_rate=section.learning_rate,
            hidden_activation=section.hidden_activation,
            output_activation=section.output_activation,
        )
    if config.architecture == "eca":
        return eca.build_eca_network(
            problem, section.rule, updating=eca.UpdateMode(section.updating)
        )
    # constructed, so __post_init__ checks the genome; dataclasses.replace
    # does the same at twice the cost, once per meta rebuild
    params = type(section.params)(**vars(section.params) | genome)
    if config.architecture == "aco":
        return aco.build_aco_network(problem, params)
    return pso.build_pso_network(problem, rng, params)


def _meta_search(config: RunConfig, problem: Any) -> MetaSearch:
    """Turn the meta section into a search over rebuilt inner runs.

    problem is the instance _load_problem loaded; every genome's network
    is rebuilt over it. The config's own parameter values seed the
    initial population (clipped to the boxes), so the search result can
    only match or improve on them.
    """
    section = config.meta
    boxes = {key: ParamBox(low=lo, high=hi) for key, (lo, hi) in section.parameters.items()}
    base_params = config.section().params
    seed_genome = {key: float(getattr(base_params, key)) for key in boxes}

    def rebuild(genome: Genome, rng: RngStream) -> tuple[ComputingNetwork, Any]:
        return _build_network(config, problem, rng, genome), problem

    return MetaSearch(
        config=section.config, boxes=boxes, rebuild=rebuild, seed_genome=seed_genome
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
        records = cross_train(
            Dataset.from_csv(section.ann.dataset),
            section.ann.layers,
            rng,
            iterations=config.schedule.slow_steps,
            pso_params=section.pso,
            weight_bounds=section.weight_bounds,
            hidden_activation=section.ann.hidden_activation,
            output_activation=section.ann.output_activation,
            dimension=section.dimension,
        ).records
    elif config.meta is not None:
        records = three_scale_run(_meta_search(config, _load_problem(config)), rng)
    else:
        problem = _load_problem(config)
        records = run(_build_network(config, problem, rng, {}), config.schedule, problem, rng)

    resolved = config.to_dict()
    if config.out is not None:
        write_run_file(config.out, resolved, records)
    return ExecuteResult(config=resolved, records=records, out_path=config.out)

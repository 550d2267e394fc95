"""Config-driven run orchestration across every architecture.

execute() is the single entry point the CLI wraps. The problem and the
network come from the config's one section (config.py): problem() loads
the instance, network() builds the network over it. execute drives them
(a two-scale run of that network, a meta search that rebuilds it per
genome, or the cross composition over the loaded dataset) and writes
the record file with the resolved config echoed as its header.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .config import RunConfig
from .core import ComputingNetwork, RunRecord, run
from .cross import cross_train
from .errors import ConfigurationError
from .meta import Genome, MetaSearch, three_scale_run
from .records import write_run_file
from .rng import RngStream


@dataclass
class ExecuteResult:
    config: dict[str, Any]
    records: list[RunRecord] = field(default_factory=list)
    out_path: str | None = None


def _meta_search(config: RunConfig, problem: Any) -> MetaSearch:
    """Turn the meta section into a search over rebuilt inner runs.

    problem is the instance the section loaded; every genome's network
    is rebuilt over it. The config's own parameter values seed the
    initial population (clipped to the boxes), so the search result can
    only match or improve on them.
    """
    section, boxes = config.section, config.meta.boxes
    seed_genome = {key: float(getattr(section.params, key)) for key in boxes}

    def rebuild(genome: Genome, rng: RngStream) -> ComputingNetwork:
        return section.network(problem, rng, genome)

    return MetaSearch(
        config=config.meta.config, boxes=boxes, rebuild=rebuild, seed_genome=seed_genome
    )


def check_out_path(path: str | None) -> None:
    """Refuse an empty or directory output path, before any work is done."""
    if path is not None and (not path or os.path.isdir(path)):
        raise ConfigurationError(f"output path must name a file, got {path!r}")


def execute(config: RunConfig) -> ExecuteResult:
    """Run one resolved config end to end.

    The config must carry a seed by now (the CLI resolves precedence);
    the record file is only written when an output path is set, and an
    empty or directory path is refused before the run starts.
    """
    if config.seed is None:
        raise ConfigurationError(
            "no seed: set config.seed, pass --seed, or export CN_SEED"
        )
    check_out_path(config.out)
    rng = RngStream(config.seed)
    section = config.section
    problem = section.problem()

    if config.architecture == "cross":
        records = cross_train(
            problem,
            section.ann.layers,
            rng,
            iterations=config.schedule.slow_steps,
            pso_params=section.pso,
            weight_bounds=section.weight_bounds,
            ann_params=section.ann.params,
        ).records
    elif config.meta is not None:
        records = three_scale_run(_meta_search(config, problem), rng)
    else:
        records = run(section.network(problem, rng, {}), config.schedule, rng)

    resolved = config.to_dict()
    if config.out is not None:
        write_run_file(config.out, resolved, records)
    return ExecuteResult(config=resolved, records=records, out_path=config.out)

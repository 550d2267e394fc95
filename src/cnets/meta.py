"""Third dynamical scale: a genetic algorithm over architecture parameters.

Each genome is a key-to-value map over declared search boxes (a subset
of AcoParams or PsoParams fields). Fitness is the mean final best value
of full inner runs, one per evaluation seed, rebuilt from scratch so a
genome's fitness is a pure function of the genome. Lower is better.
Each inner run is a plain two-scale ``core.run``; the core knows
nothing of this scale.

A generation's uncached genomes are evaluated together. An inner run's
draws depend only on its seed wherever the rebuild draws alike for
every genome, so when the architecture class offers a lockstep hook,
the inner runs of every seed that shares a problem go as one stacked
network, instead of one run per genome and seed. The hook is the
class's ``lockstep(nets)``, a new network over all of nets or None when
they do not stack; the architecture's ``lockstep_limit()``, the most
members one stack may hold; and the stack's ``best_values(net)``, each
member's best value in member order (aco's colonies stack this way).
Each seed keeps its own stream: the stack draws from a StreamGroup of
them, one row per seed, and each seed's colonies walk on that seed's
row.

The GA is deliberately minimal: tournament selection (k=3), uniform
per-gene crossover (p=0.5), Gaussian mutation with stddev a fixed
fraction of the box width (clipped back to the box), and elitism of one.
Because fitness is cached by genome value, the carried-over elite keeps
its exact fitness and the generation-best trace is non-increasing.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Sequence

from .core import ComputingNetwork, RunRecord, ScaleSchedule, run
from .errors import CnError, ConfigurationError
from .rng import RngStream, StreamGroup, check_seed

Genome = dict[str, float]
# rebuild(genome, rng) -> (fresh network, its problem); consumes rng draws
# exactly like the plain two-scale builder so fitnesses are comparable.
Rebuild = Callable[[Genome, RngStream], tuple[ComputingNetwork, Any]]


@dataclass(frozen=True)
class ParamBox:
    """Closed interval a genome value must stay inside."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigurationError(
                f"search box ends must be finite, got [{self.low}, {self.high}]"
            )
        if self.low > self.high:
            raise ConfigurationError(
                f"empty search box [{self.low}, {self.high}]"
            )

    @property
    def width(self) -> float:
        return self.high - self.low

    def clip(self, value: float) -> float:
        return min(self.high, max(self.low, value))


@dataclass(frozen=True)
class MetaConfig:
    """Genetic-algorithm settings for the meta scale."""

    population_size: int = 10
    generations: int = 10
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_stddev: float = 0.1
    inner_slow_steps: int = 50
    eval_seeds: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigurationError(
                f"must be >= 2, got {self.population_size}", key="population_size"
            )
        if self.generations < 0:
            raise ConfigurationError(f"must be >= 0, got {self.generations}", key="generations")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError(
                f"must be between 1 and population_size ({self.population_size}), "
                f"got {self.tournament_size}",
                key="tournament_size",
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError(
                f"must be in [0, 1], got {self.crossover_rate}", key="crossover_rate"
            )
        if self.mutation_stddev < 0.0:
            raise ConfigurationError(
                f"must be >= 0, got {self.mutation_stddev}", key="mutation_stddev"
            )
        if self.inner_slow_steps < 1:
            raise ConfigurationError(
                f"must be >= 1, got {self.inner_slow_steps}", key="inner_slow_steps"
            )
        if not self.eval_seeds:
            raise ConfigurationError("need at least one evaluation seed", key="eval_seeds")
        for seed in self.eval_seeds:
            check_seed(seed, key="eval_seeds")


@dataclass
class MetaSearch:
    """Everything meta_run needs beyond the GA settings.

    seed_genome, when given, joins the initial population (clipped to
    the boxes), so its fitness is a floor the search can only improve on.
    """

    config: MetaConfig
    boxes: dict[str, ParamBox]
    rebuild: Rebuild
    seed_genome: Genome | None = None


@dataclass
class MetaResult:
    best_genome: Genome
    best_fitness: float
    records: list[RunRecord] = field(default_factory=list)


def evaluate_genome(
    genomes: list[Genome],
    rebuild: Rebuild,
    inner_slow_steps: int,
    eval_seeds: tuple[int, ...],
) -> list[float]:
    """Each genome's mean final best value over one full inner run per seed.

    Several genomes run in lockstep where their networks stack. If they
    cannot, or the lockstep attempt raises a CnError anywhere (a dead
    end, an overflow, a genome the params reject), every genome runs
    alone, in order: fitness is a pure function of the genome, so each
    then gives exactly the value, or raises exactly the error, it would
    have on its own.
    """
    schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=inner_slow_steps)
    if len(genomes) > 1:
        try:
            totals = _lockstep_totals(genomes, rebuild, schedule, eval_seeds)
        except CnError:  # the plain path below reproduces the exact outcome
            totals = None
        if totals is not None:
            return [total / len(eval_seeds) for total in totals]
    return [_mean_final_best(genome, rebuild, schedule, eval_seeds) for genome in genomes]


def _mean_final_best(
    genome: Genome, rebuild: Rebuild, schedule: ScaleSchedule, eval_seeds: tuple[int, ...]
) -> float:
    total = 0.0
    for seed in eval_seeds:
        rng = RngStream(seed)
        net, problem = rebuild(genome, rng)
        total += _final_best(run(net, schedule, problem, rng)[-1].best_value)
    return total / len(eval_seeds)


def _final_best(value: float | None) -> float:
    if value is None:
        raise ConfigurationError(
            "inner run produced no objective value to score the genome with"
        )
    return value


def _chunks(items: Sequence, size: int) -> list[Sequence]:
    return [items[k : k + size] for k in range(0, len(items), size)]


def _same(a: Any, b: Any) -> bool:
    """a == b, without comparing field by field when a is b."""
    return a is b or a == b


def _lockstep_totals(
    genomes: list[Genome], rebuild: Rebuild, schedule: ScaleSchedule, eval_seeds: tuple[int, ...]
) -> list[float] | None:
    """Each genome's final best values summed over the seeds, or None when
    the networks do not stack.

    Every (seed, genome) network is rebuilt from its seed's fresh
    position; each rebuild of a seed must leave that seed's stream at
    one same position and return an equal problem. Seeds whose rebuilds
    returned equal problems run together: their colonies, seed by seed,
    form one stack that runs on a StreamGroup of their streams (a lone
    seed's stack on its stream), so each colony draws from its own
    seed's stream. The architecture bounds a stack's size, counted over
    the colonies of all its seeds; larger batches run as consecutive
    stacks, each over a block of seeds and a block of genomes. The
    values are summed seed by seed, in the order the plain path adds
    them.
    """
    streams = [RngStream(seed) for seed in eval_seeds]
    starts = [stream.snapshot() for stream in streams]
    # each seed's first rebuild: its network, its problem and where it left
    # the stream; the network runs in its seed's first stack
    firsts = []
    for stream in streams:
        net, problem = rebuild(genomes[0], stream)
        lockstep = getattr(type(net.arch), "lockstep", None)
        if lockstep is None:
            return None
        firsts.append((net, problem, stream.snapshot()))
    groups: list[list[int]] = []  # seeds whose problems are equal
    for seed, (_, problem, _) in enumerate(firsts):
        group = next((g for g in groups if _same(firsts[g[0]][1], problem)), None)
        if group is None:
            groups.append([seed])
        else:
            group.append(seed)
    values = [[0.0] * len(genomes) for _ in streams]
    for group in groups:
        limit = firsts[group[0]][0].arch.lockstep_limit()
        seed_step = min(len(group), limit)
        genome_step = max(1, limit // seed_step)
        for block, indices in product(
            _chunks(group, seed_step), _chunks(range(len(genomes)), genome_step)
        ):
            nets = []
            for seed in block:
                stream, start, (net, problem, built) = streams[seed], starts[seed], firsts[seed]
                for index in indices:
                    if index > 0:  # genome 0's network is the seed's first rebuild
                        stream.restore(start)
                        net, rebuilt = rebuild(genomes[index], stream)
                        if not (_same(rebuilt, problem) and _same(stream.snapshot(), built)):
                            return None
                    nets.append(net)
            stack = lockstep(nets)
            if stack is None:
                return None
            # a lone seed's stack draws from its stream, without a group's stream axis
            rng = streams[block[0]] if len(block) == 1 else StreamGroup([streams[s] for s in block])
            run(stack, schedule, firsts[block[0]][1], rng)
            for value, (seed, index) in zip(stack.arch.best_values(stack), product(block, indices)):
                values[seed][index] = _final_best(value)
    totals = [0.0] * len(genomes)
    for row in values:
        for index, value in enumerate(row):
            totals[index] += value
    return totals


def _genome_key(keys: tuple[str, ...], genome: Genome) -> tuple[float, ...]:
    return tuple(genome[k] for k in keys)


def meta_run(search: MetaSearch, rng: RngStream) -> MetaResult:
    """Evolve genomes for config.generations, emitting one record each.

    Records: slow_step is the generation index (0 is the evaluated
    initial population), best_value the generation-best fitness, and
    parameter_snapshot the generation-best genome.
    """
    config = search.config
    if not search.boxes:
        raise ConfigurationError("meta search needs at least one parameter box")
    keys = tuple(search.boxes)
    boxes = search.boxes

    def clipped(genome: Genome) -> Genome:
        missing = [k for k in keys if k not in genome]
        if missing:
            raise ConfigurationError(f"seed genome is missing keys {missing}")
        extra = [k for k in genome if k not in boxes]
        if extra:
            raise ConfigurationError(f"seed genome has keys outside the boxes: {extra}")
        return {k: boxes[k].clip(float(genome[k])) for k in keys}

    population: list[Genome] = []
    if search.seed_genome is not None:
        population.append(clipped(search.seed_genome))
    # one draw per missing genome and key, genome by genome
    draws = rng.uniform(
        [boxes[k].low for k in keys],
        [boxes[k].high for k in keys],
        size=(config.population_size - len(population), len(keys)),
    )
    population.extend(dict(zip(keys, row)) for row in draws.tolist())

    cache: dict[tuple[float, ...], float] = {}

    def fitnesses(genomes: list[Genome]) -> list[float]:
        """Every genome's fitness; the uncached ones are evaluated together, once each."""
        lookup = [_genome_key(keys, genome) for genome in genomes]
        fresh: dict[tuple[float, ...], Genome] = {}
        for key, genome in zip(lookup, genomes):
            if key not in cache:
                fresh.setdefault(key, genome)
        if fresh:
            values = evaluate_genome(
                list(fresh.values()), search.rebuild, config.inner_slow_steps, config.eval_seeds
            )
            cache.update(zip(fresh, values))
        return [cache[key] for key in lookup]

    def tournament(fits: list[float]) -> int:
        contenders = [
            int(rng.integers(0, config.population_size))
            for _ in range(config.tournament_size)
        ]
        return min(contenders, key=lambda i: (fits[i], i))

    started = time.perf_counter()
    records: list[RunRecord] = []
    best_genome: Genome = {}
    best_fitness = float("inf")
    for generation in range(config.generations + 1):
        if generation > 0:
            fits = fitnesses(population)
            elite = min(range(len(population)), key=lambda i: (fits[i], i))
            offspring = [dict(population[elite])]
            while len(offspring) < config.population_size:
                p1 = population[tournament(fits)]
                p2 = population[tournament(fits)]
                if float(rng.uniform()) < config.crossover_rate:
                    child = {
                        k: (p1[k] if float(rng.uniform()) < 0.5 else p2[k])
                        for k in keys
                    }
                else:
                    child = dict(p1)
                for k in keys:
                    shift = float(
                        rng.normal(0.0, config.mutation_stddev * boxes[k].width)
                    )
                    child[k] = boxes[k].clip(child[k] + shift)
                offspring.append(child)
            population = offspring
        gen_fits = fitnesses(population)
        gen_best = min(range(len(population)), key=lambda i: (gen_fits[i], i))
        if gen_fits[gen_best] < best_fitness:
            best_fitness = gen_fits[gen_best]
            best_genome = dict(population[gen_best])
        records.append(
            RunRecord(
                slow_step=generation,
                best_value=gen_fits[gen_best],
                network_output=[],
                parameter_snapshot={
                    k: float(population[gen_best][k]) for k in keys
                },
                wall_clock_ms=(time.perf_counter() - started) * 1000.0,
            )
        )
        started = time.perf_counter()
    return MetaResult(
        best_genome=best_genome, best_fitness=best_fitness, records=records
    )


def three_scale_run(search: MetaSearch, rng: RngStream) -> list[RunRecord]:
    """A meta run's generation records: the harness's one entry into this scale."""
    return meta_run(search, rng).records

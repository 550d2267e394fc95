"""Third dynamical scale: a genetic algorithm over architecture parameters.

Each genome is a key-to-value map over declared search boxes (a subset
of AcoParams or PsoParams fields). Fitness is the mean final best value
of full inner runs, one per evaluation seed, rebuilt from scratch so a
genome's fitness is a pure function of the genome. Lower is better.
Each inner run is a plain two-scale ``core.run``; the core knows
nothing of this scale.

A generation's uncached genomes are evaluated together. An inner run's
draws depend only on its seed wherever the rebuild draws alike for
every genome, so when the architecture class offers a ``lockstep`` hook
(aco's stacks colonies), one seed's inner runs go as one stacked
network on that seed's single stream, instead of one run per genome.

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
from typing import Any, Callable

from .core import ComputingNetwork, RunRecord, ScaleSchedule, run
from .errors import CnError, ConfigurationError
from .rng import RngStream

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
                f"population must be >= 2, got {self.population_size}"
            )
        if self.generations < 0:
            raise ConfigurationError(f"generations must be >= 0, got {self.generations}")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError(
                f"tournament size must be in [1, {self.population_size}], "
                f"got {self.tournament_size}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError(
                f"crossover rate must be in [0, 1], got {self.crossover_rate}"
            )
        if self.mutation_stddev < 0.0:
            raise ConfigurationError(
                f"mutation stddev must be >= 0, got {self.mutation_stddev}"
            )
        if self.inner_slow_steps < 1:
            raise ConfigurationError(
                f"inner run budget must be >= 1 slow step, got {self.inner_slow_steps}"
            )
        if not self.eval_seeds:
            raise ConfigurationError("need at least one evaluation seed")


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


def _lockstep_totals(
    genomes: list[Genome], rebuild: Rebuild, schedule: ScaleSchedule, eval_seeds: tuple[int, ...]
) -> list[float] | None:
    """Each genome's final best values summed over the seeds, or None when
    the networks do not stack.

    Per seed, every member of a stack is rebuilt from the fresh stream's
    position, each rebuild must leave the stream at one same position
    and return an equal problem, and the stack then runs on that stream.
    The architecture bounds a stack's size; larger batches run as
    consecutive stacks.
    """
    totals = [0.0] * len(genomes)
    for seed in eval_seeds:
        rng = RngStream(seed)
        start = rng.snapshot()
        done = 0
        while done < len(genomes):
            rng.restore(start)
            net, problem = rebuild(genomes[done], rng)
            lockstep = getattr(type(net.arch), "lockstep", None)
            if lockstep is None:
                return None
            built = rng.snapshot()
            nets = [net]
            for genome in genomes[done + 1 : done + net.arch.lockstep_limit()]:
                rng.restore(start)
                member, member_problem = rebuild(genome, rng)
                if member_problem != problem or rng.snapshot() != built:
                    return None
                nets.append(member)
            stack = lockstep(nets)
            if stack is None:
                return None
            run(stack, schedule, problem, rng)
            for index, member in enumerate(nets, start=done):
                totals[index] += _final_best(member.arch.best_value(member))
            done += len(nets)
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

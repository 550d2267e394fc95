import pytest

from cnets.core import ComputingNetwork
from cnets.eca import build_eca_network
from cnets.errors import ConfigurationError
from cnets.meta import (
    MetaConfig,
    MetaSearch,
    ParamBox,
    evaluate_genome,
    meta_run,
    three_scale_run,
)
from cnets.problems import Tape
from cnets.rng import RngStream

PROBE_PROBLEM = "quadratic-probe"


class QuadraticProbe:
    """Throwaway architecture whose best value is a pure genome function.

    The bowl bottoms out at x = 0.3, y = -0.1 with value 0, so a search
    that works drives the fitness toward zero.
    """

    kind = "quadratic-probe"
    allow_hyperedges = False
    problem = PROBE_PROBLEM

    def __init__(self, genome):
        self.genome = dict(genome)

    def fast(self, net, rng):
        pass

    def readout(self, net):
        return []

    def slow(self, net, rng):
        pass

    def best_value(self, net):
        x, y = self.genome["x"], self.genome["y"]
        return (x - 0.3) ** 2 + 2.0 * (y + 0.1) ** 2

    def parameters(self, net):
        return dict(self.genome)


def probe_value(genome):
    return (genome["x"] - 0.3) ** 2 + 2.0 * (genome["y"] + 0.1) ** 2


def probe_rebuild(genome, rng):
    rng.uniform()  # a builder always consumes its stream
    return ComputingNetwork(QuadraticProbe(genome)), PROBE_PROBLEM


def probe_boxes():
    return {"x": ParamBox(-1.0, 1.0), "y": ParamBox(-1.0, 1.0)}


def probe_search(**kwargs):
    config = MetaConfig(
        population_size=kwargs.pop("population_size", 10),
        generations=kwargs.pop("generations", 10),
        inner_slow_steps=kwargs.pop("inner_slow_steps", 1),
        eval_seeds=kwargs.pop("eval_seeds", (1,)),
    )
    return MetaSearch(
        config=config, boxes=probe_boxes(), rebuild=probe_rebuild, **kwargs
    )


class TestParamBox:
    def test_width_and_clip(self):
        box = ParamBox(-2.0, 3.0)
        assert box.width == 5.0
        assert box.clip(-7.0) == -2.0
        assert box.clip(4.5) == 3.0
        assert box.clip(0.25) == 0.25

    def test_single_point_box_is_legal(self):
        assert ParamBox(1.5, 1.5).clip(99.0) == 1.5

    def test_inverted_box_rejected(self):
        with pytest.raises(ConfigurationError):
            ParamBox(1.0, 0.0)

    @pytest.mark.parametrize("ends", [(0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0)])
    def test_non_finite_box_rejected(self, ends):
        with pytest.raises(ConfigurationError, match="finite"):
            ParamBox(*ends)


class TestMetaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": -1},
            {"tournament_size": 0},
            {"tournament_size": 11},
            {"crossover_rate": 1.5},
            {"mutation_stddev": -0.1},
            {"inner_slow_steps": 0},
            {"eval_seeds": ()},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MetaConfig(**kwargs)

    def test_defaults_are_valid(self):
        MetaConfig()


class TestEvaluateGenome:
    def test_fitness_is_the_mean_final_best(self):
        genome = {"x": 0.5, "y": 0.0}
        [fitness] = evaluate_genome([genome], probe_rebuild, 3, (1, 2, 3))
        assert fitness == pytest.approx(probe_value(genome))

    def test_architecture_without_best_value_cannot_be_scored(self):
        tape = Tape.single_one(5)

        def eca_rebuild(genome, rng):
            return build_eca_network(tape, 110), tape

        with pytest.raises(ConfigurationError):
            evaluate_genome([{"x": 0.0}], eca_rebuild, 1, (1,))


class TestMetaRun:
    def test_minimizes_the_probe_bowl(self):
        result = meta_run(probe_search(generations=15, population_size=12), RngStream(5))
        assert result.best_fitness < 0.02
        assert abs(result.best_genome["x"] - 0.3) < 0.3
        assert abs(result.best_genome["y"] + 0.1) < 0.3
        assert result.best_fitness == pytest.approx(probe_value(result.best_genome))

    def test_generation_best_trace_is_non_increasing(self):
        result = meta_run(probe_search(generations=12), RngStream(7))
        values = [r.best_value for r in result.records]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_record_shape(self):
        result = meta_run(probe_search(generations=4), RngStream(9))
        assert [r.slow_step for r in result.records] == [0, 1, 2, 3, 4]
        for record in result.records:
            assert set(record.parameter_snapshot) == {"x", "y"}
            assert record.network_output == []
            assert record.wall_clock_ms >= 0.0

    def test_zero_generations_scores_only_the_initial_population(self):
        result = meta_run(probe_search(generations=0), RngStream(3))
        assert len(result.records) == 1
        assert result.records[0].slow_step == 0

    def test_seeded_optimum_is_never_lost(self):
        search = probe_search(generations=8, seed_genome={"x": 0.3, "y": -0.1})
        result = meta_run(search, RngStream(11))
        assert result.best_fitness == 0.0
        assert result.best_genome == {"x": 0.3, "y": -0.1}
        assert result.records[0].best_value == 0.0

    def test_seed_genome_is_clipped_into_the_boxes(self):
        search = MetaSearch(
            config=MetaConfig(population_size=4, generations=2, inner_slow_steps=1),
            boxes={"x": ParamBox(0.2, 0.2), "y": ParamBox(0.4, 0.4)},
            rebuild=probe_rebuild,
            seed_genome={"x": 5.0, "y": -5.0},
        )
        result = meta_run(search, RngStream(1))
        assert result.best_genome == {"x": 0.2, "y": 0.4}
        assert result.best_fitness == pytest.approx(probe_value(result.best_genome))

    def test_seed_genome_keys_must_match_the_boxes(self):
        with pytest.raises(ConfigurationError, match="missing"):
            meta_run(probe_search(seed_genome={"x": 0.0}), RngStream(1))
        with pytest.raises(ConfigurationError, match="outside"):
            meta_run(
                probe_search(seed_genome={"x": 0.0, "y": 0.0, "z": 1.0}), RngStream(1)
            )

    def test_empty_boxes_rejected(self):
        search = MetaSearch(config=MetaConfig(), boxes={}, rebuild=probe_rebuild)
        with pytest.raises(ConfigurationError):
            meta_run(search, RngStream(1))

    def test_identical_genomes_evaluate_once_per_seed(self):
        calls = []

        def counting_rebuild(genome, rng):
            calls.append(dict(genome))
            return probe_rebuild(genome, rng)

        search = MetaSearch(
            config=MetaConfig(
                population_size=6,
                generations=3,
                inner_slow_steps=1,
                eval_seeds=(1, 2),
            ),
            boxes={"x": ParamBox(0.3, 0.3), "y": ParamBox(-0.1, -0.1)},
            rebuild=counting_rebuild,
        )
        meta_run(search, RngStream(2))
        # one distinct genome, two seeds: exactly two inner runs in total
        assert len(calls) == 2

    def test_is_seed_deterministic(self):
        a = meta_run(probe_search(generations=6), RngStream(13))
        b = meta_run(probe_search(generations=6), RngStream(13))
        assert a.best_genome == b.best_genome
        assert [r.best_value for r in a.records] == [r.best_value for r in b.records]


class TestThreeScaleRun:
    def test_runs_the_configured_generations(self):
        records = three_scale_run(probe_search(generations=4), RngStream(3))
        assert [r.slow_step for r in records] == [0, 1, 2, 3, 4]

    def test_records_are_the_meta_run_records(self):
        records = three_scale_run(probe_search(generations=3), RngStream(3))
        expected = meta_run(probe_search(generations=3), RngStream(3)).records
        assert [(r.best_value, r.parameter_snapshot) for r in records] == [
            (r.best_value, r.parameter_snapshot) for r in expected
        ]

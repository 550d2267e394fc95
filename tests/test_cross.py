from pathlib import Path

import numpy as np
import pytest

from instances import xor_dataset
from cnets.ann import batch_mse, weight_vector
from cnets.ann import AnnParams
from cnets.config import build_config
from cnets.cross import cross_train
from cnets.errors import ConfigurationError
from cnets.harness import execute
from cnets.problems import Dataset
from cnets.pso import PsoParams
from cnets.rng import RngStream


CONFIGS = str(Path(__file__).resolve().parent.parent / "configs")


def xor_cross_config(dimension: int) -> dict:
    """A cross config over configs/xor.csv: a 2-2-1 network has 9 parameters."""
    return {
        "cross": {
            "ann": {"layers": [2, 2, 1], "dataset": "xor.csv"},
            "pso": {"particles": 5},
            "dimension": dimension,
        },
        "schedule": {"slow_steps": 5},
        "seed": 1,
    }


class TestCrossTrain:
    def test_linear_identity_is_solved_exactly(self):
        # one weight and one bias suffice: the swarm should find
        # parameters mapping 2 -> 1 to numerical precision
        dataset = Dataset(inputs=[(2.0,)], targets=[(1.0,)])
        result = cross_train(
            dataset,
            (1, 1),
            RngStream(4),
            iterations=120,
            ann_params=AnnParams(output_activation="identity"),
            pso_params=PsoParams(particles=15),
        )
        assert result.mse < 1e-6

    def test_reported_mse_matches_the_returned_network(self):
        dataset = xor_dataset()
        result = cross_train(
            dataset,
            (2, 2, 1),
            RngStream(1),
            iterations=40,
            pso_params=PsoParams(particles=10),
        )
        assert batch_mse(result.network, dataset) == pytest.approx(result.mse, abs=1e-12)

    def test_best_weights_are_installed(self):
        dataset = xor_dataset()
        result = cross_train(
            dataset,
            (2, 2, 1),
            RngStream(2),
            iterations=20,
            pso_params=PsoParams(particles=8),
        )
        assert np.array_equal(weight_vector(result.network), result.weights)
        assert result.weights.shape == (9,)

    def test_record_trace_shape(self):
        dataset = xor_dataset()
        result = cross_train(
            dataset,
            (2, 2, 1),
            RngStream(3),
            iterations=25,
            pso_params=PsoParams(particles=8),
        )
        assert len(result.records) == 26
        values = [r.best_value for r in result.records]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(result.mse)

    def test_swarm_beats_the_untrained_network(self):
        dataset = xor_dataset()
        result = cross_train(
            dataset,
            (2, 2, 1),
            RngStream(5),
            iterations=60,
            pso_params=PsoParams(particles=12),
        )
        assert result.mse < result.records[0].best_value

    def test_dimension_must_match_parameter_count(self):
        with pytest.raises(
            ConfigurationError,
            match=r"^config\.cross\.dimension: must equal the network's 9 trainable parameters, got 7$",
        ):
            build_config(xor_cross_config(dimension=7), base_dir=CONFIGS)

    def test_matching_dimension_accepted(self):
        config = build_config(xor_cross_config(dimension=9), base_dir=CONFIGS)
        records = execute(config).records
        assert config.to_dict()["cross"]["dimension"] == 9
        assert len(records[-1].network_output) == 9

    def test_degenerate_weight_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            cross_train(
                xor_dataset(),
                (2, 2, 1),
                RngStream(1),
                iterations=5,
                weight_bounds=(1.0, 1.0),
            )

    def test_is_seed_deterministic(self):
        def final(seed):
            result = cross_train(
                xor_dataset(),
                (2, 2, 1),
                RngStream(seed),
                iterations=15,
                pso_params=PsoParams(particles=6),
            )
            return result.mse, tuple(result.weights)

        assert final(11) == final(11)

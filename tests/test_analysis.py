import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import analysis_oracle as oracle
from cnets.analysis import (
    StateTrace,
    interaction_excess,
    network_scale_info,
    node_scale_info,
    trace_from_continuous,
    trace_from_discrete,
    trace_from_records,
)
from cnets.core import RunRecord
from cnets.errors import ConfigurationError
from cnets.rng import RngStream


def record_with_output(step, output):
    return RunRecord(
        slow_step=step,
        best_value=None,
        network_output=list(output),
        parameter_snapshot={},
        wall_clock_ms=0.0,
    )


class TestStateTrace:
    def test_shape_accessors(self):
        trace = trace_from_discrete([(0, 1), (1, 0), (1, 1)])
        assert trace.steps == 3
        assert trace.node_count == 2
        assert trace.column(0).tolist() == [0, 1, 1]
        assert trace.column(1).tolist() == [1, 0, 1]

    def test_alphabet_defaults_to_observed_max(self):
        assert trace_from_discrete([(0, 3)]).bins == 4

    def test_symbols_must_fit_the_alphabet(self):
        with pytest.raises(ConfigurationError):
            StateTrace(states=((0, 5),), bins=4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            StateTrace(states=((0, 1), (0,)), bins=2)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            StateTrace(states=(), bins=2)

    def test_states_are_a_read_only_int64_copy(self):
        rows = np.array([[0, 1], [1, 1]])
        trace = StateTrace(states=rows, bins=2)
        rows[0, 0] = 1
        assert trace.states.dtype == np.int64
        assert trace.states.tolist() == [[0, 1], [1, 1]]
        with pytest.raises(ValueError):
            trace.states[0, 0] = 1

    def test_whole_number_floats_and_bools_are_symbols(self):
        trace = StateTrace(states=((1.0, True), (0.0, False)), bins=2)
        assert trace.states.tolist() == [[1, 1], [0, 0]]
        assert trace_from_discrete([(2.0, 1)]).bins == 3

    def test_discrete_rows_are_never_truncated(self):
        with pytest.raises(ConfigurationError, match=r"^symbol 0.5 at step 0, node 0 is not a whole number$"):
            trace_from_discrete([(0.5, 1.7), (2.9, 0.2)])

    @pytest.mark.parametrize(
        "states, bins, match",
        [
            (((0.5, 1),), 2, r"^symbol 0.5 at step 0, node 0 is not a whole number$"),
            (((0, 1), (1, 1.25)), 4, r"^symbol 1.25 at step 1, node 1 is not a whole number$"),
            (((0, math.nan),), 2, r"^symbol nan at step 0, node 1 is not a whole number$"),
            (((math.inf, 0),), 2, r"^symbol inf at step 0, node 0 is not a whole number$"),
            (((0, 5),), 4, r"^symbol 5 at step 0, node 1 outside \[0, 4\) alphabet$"),
            (((0, -1),), 4, r"^symbol -1 at step 0, node 1 outside \[0, 4\) alphabet$"),
            ((("0", 1),), 2, r"^a trace is a non-empty table of numbers"),
            (((0, None),), 2, r"^a trace is a non-empty table of numbers"),
            (((0,),), 0, r"^need 1 to 2\*\*53 bins, got 0$"),
            (((0,),), 2**53 + 1, r"^need 1 to 2\*\*53 bins, got 9007199254740993$"),
        ],
    )
    def test_bad_symbols_are_named(self, states, bins, match):
        with pytest.raises(ConfigurationError, match=match):
            StateTrace(states=states, bins=bins)


class TestDiscretization:
    def test_equal_width_bins_over_observed_range(self):
        rows = [(0.0,), (1.0,), (2.0,), (4.0,)]
        trace = trace_from_continuous(rows, bins=4)
        # range [0, 4], bin width 1: symbols floor(v) with the max clipped
        assert trace.column(0).tolist() == [0, 1, 2, 3]

    def test_constant_node_gets_symbol_zero(self):
        trace = trace_from_continuous([(5.0, 1.0), (5.0, 2.0)], bins=8)
        assert trace.column(0).tolist() == [0, 0]

    def test_top_of_range_lands_in_the_last_bin(self):
        trace = trace_from_continuous([(0.0,), (16.0,)], bins=16)
        assert trace.column(0).tolist() == [0, 15]

    def test_bins_are_per_node(self):
        rows = [(0.0, 100.0), (1.0, 200.0)]
        trace = trace_from_continuous(rows, bins=2)
        assert trace.states.tolist() == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("bins", [0, -3, 2**53 + 1, 2**64])
    def test_bins_out_of_range_rejected(self, bins):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=rf"^need 1 to 2\*\*53 bins, got {bins}$"):
                trace_from_continuous([(0.0,), (1.0,)], bins=bins)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigurationError):
            trace_from_continuous([(0.0,), (math.inf,)])

    def test_records_feed_the_network_output_column(self):
        records = [
            record_with_output(0, [0.0, 10.0]),
            record_with_output(1, [1.0, 20.0]),
        ]
        trace = trace_from_records(records, bins=2)
        assert trace.states.tolist() == [[0, 0], [1, 1]]

    def test_no_records_rejected(self):
        with pytest.raises(ConfigurationError):
            trace_from_records([])


class TestInformation:
    def test_constant_trace_carries_no_information(self):
        trace = trace_from_discrete([(1, 1), (1, 1), (1, 1)], bins=2)
        assert node_scale_info(trace) == 0.0
        assert network_scale_info(trace) == 0.0
        assert interaction_excess(trace) == 0.0

    def test_single_fair_bit_per_node(self):
        trace = trace_from_discrete([(0, 1), (1, 0), (0, 1), (1, 0)])
        assert node_scale_info(trace) == 2.0
        assert network_scale_info(trace) == 1.0

    def test_perfectly_correlated_balanced_pair_wastes_one_bit(self):
        # both nodes copy the same fair coin: the joint alphabet has two
        # equiprobable rows, so the node-scale description is exactly
        # one bit longer than the joint one
        trace = trace_from_discrete([(0, 0), (1, 1), (0, 0), (1, 1)])
        assert interaction_excess(trace) == 1.0

    def test_independent_columns_have_zero_excess(self):
        rows = [(a, b) for a in (0, 1) for b in (0, 1)]
        trace = trace_from_discrete(rows)
        assert interaction_excess(trace) == pytest.approx(0.0, abs=1e-12)

    def test_biased_coin_entropy(self):
        trace = trace_from_discrete([(0,), (0,), (0,), (1,)])
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert node_scale_info(trace) == pytest.approx(expected)

    def test_row_permutation_leaves_the_measures_alone(self):
        rows = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1)]
        shuffled = [rows[i] for i in (4, 2, 0, 1, 3)]
        a = trace_from_discrete(rows)
        b = trace_from_discrete(shuffled)
        assert node_scale_info(a) == pytest.approx(node_scale_info(b))
        assert network_scale_info(a) == pytest.approx(network_scale_info(b))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80)
    def test_excess_is_never_negative(self, rows):
        trace = trace_from_discrete(rows, bins=4)
        assert interaction_excess(trace) >= -1e-9

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80)
    def test_joint_entropy_never_exceeds_the_marginal_sum(self, rows):
        trace = trace_from_discrete(rows, bins=2)
        assert network_scale_info(trace) <= node_scale_info(trace) + 1e-9

    def test_long_independent_trace_has_small_excess(self):
        rng = RngStream(99)
        rows = [
            (float(rng.uniform()), float(rng.uniform())) for _ in range(10000)
        ]
        trace = trace_from_continuous(rows, bins=4)
        assert interaction_excess(trace) < 0.05


class TestArrayFormsMatchTheOracle:
    """The array measures give the bits of the Counter-over-tuples forms."""

    @staticmethod
    def assert_same_bits(trace, rows):
        for measure, plain in (
            (node_scale_info, oracle.node_scale_info),
            (network_scale_info, oracle.network_scale_info),
        ):
            got, expected = measure(trace), plain(rows)
            assert type(got) is float
            assert got.hex() == expected.hex()

    @given(
        data=st.data(),
        steps=st.integers(1, 60),
        nodes=st.integers(1, 8),
        bins=st.integers(1, 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_discrete_traces(self, data, steps, nodes, bins):
        row = st.lists(st.integers(0, bins - 1), min_size=nodes, max_size=nodes)
        rows = data.draw(st.lists(row, min_size=steps, max_size=steps))
        self.assert_same_bits(trace_from_discrete(rows, bins=bins), rows)

    @given(
        steps=st.integers(1, 60),
        nodes=st.integers(1, 8),
        bins=st.integers(1, 16),
        levels=st.integers(1, 20),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_continuous_traces(self, steps, nodes, bins, levels, seed):
        # a few levels per node, so that rows and symbols repeat
        rng = RngStream(seed)
        rows = (rng.integers(0, levels, size=(steps, nodes)) * rng.uniform(-10.0, 10.0)).tolist()
        trace = trace_from_continuous(rows, bins=bins)
        assert trace.states.tolist() == oracle.discretize(rows, bins)
        self.assert_same_bits(trace, trace.states.tolist())

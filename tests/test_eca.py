import pytest
from hypothesis import given, settings, strategies as st

from cnets.core import ScaleSchedule, run
from cnets.eca import (
    UpdateMode,
    build_eca_network,
    evolve,
    grid_to_pbm,
    grid_to_text,
    rule_table,
    step,
    step_in_order,
)
from cnets.errors import ConfigurationError
from cnets.problems import Tape
from cnets.rng import RngStream


def naive_step(cells, rule, boundary):
    """Reference implementation kept deliberately independent of cnets.eca."""
    n = len(cells)
    out = []
    for i in range(n):
        if boundary == "periodic":
            left, right = cells[(i - 1) % n], cells[(i + 1) % n]
        else:
            left = cells[i - 1] if i > 0 else 0
            right = cells[i + 1] if i < n - 1 else 0
        index = 4 * left + 2 * cells[i] + right
        out.append((rule >> index) & 1)
    return tuple(out)


class TestRuleTable:
    def test_rule_110(self):
        table = rule_table(110)
        assert table == {
            (1, 1, 1): 0,
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (1, 0, 0): 0,
            (0, 1, 1): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
            (0, 0, 0): 0,
        }

    def test_rule_0_and_255(self):
        assert set(rule_table(0).values()) == {0}
        assert set(rule_table(255).values()) == {1}

    @pytest.mark.parametrize("rule", [-1, 256, 3.5, "110", True])
    def test_bad_rule_numbers_rejected(self, rule):
        with pytest.raises(ConfigurationError):
            rule_table(rule)

    @given(st.integers(min_value=0, max_value=255))
    def test_table_bits_reassemble_the_rule_number(self, rule):
        table = rule_table(rule)
        total = sum(bit << (4 * l + 2 * c + r) for (l, c, r), bit in table.items())
        assert total == rule


class TestStep:
    @given(
        st.integers(min_value=0, max_value=255),
        st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=40),
        st.sampled_from(["fixed-zero", "periodic"]),
    )
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, rule, cells, boundary):
        tape = Tape.from_cells(cells, boundary=boundary)
        assert step(tape, rule_table(rule)).cells == naive_step(tuple(cells), rule, boundary)

    def test_rule_90_from_single_one(self):
        tape = Tape.from_cells([0, 0, 1, 0, 0])
        assert step(tape, rule_table(90)).cells == (0, 1, 0, 1, 0)

    def test_fixed_zero_boundary_feeds_dead_cells(self):
        tape = Tape.from_cells([1, 0, 0, 0, 1], boundary="fixed-zero")
        assert step(tape, rule_table(110)).cells == (1, 0, 0, 1, 1)

    def test_periodic_boundary_wraps(self):
        tape = Tape.from_cells([1, 0, 0, 0, 0], boundary="periodic")
        # cell 4 sees (0, 0, 1), which rule 110 maps to 1
        assert step(tape, rule_table(110)).cells[4] == 1

    def test_in_order_updates_land_in_place(self):
        tape = Tape.from_cells([0, 0, 0, 1, 0, 0, 0, 0, 0])
        synchronous = step(tape, rule_table(110)).cells
        sweeping = step_in_order(tape, rule_table(110), range(9)).cells
        # one step from a single live cell happens to agree...
        assert sweeping == synchronous
        # ...but iterating the two modes separates them
        second_sync = step(Tape.from_cells(synchronous), rule_table(110)).cells
        second_sweep = step_in_order(
            Tape.from_cells(sweeping), rule_table(110), range(9)
        ).cells
        assert second_sweep != second_sync


class TestEvolve:
    def test_row_count_includes_initial_tape(self):
        grid = evolve(Tape.single_one(9), 110, 4)
        assert len(grid) == 5
        assert grid[0] == [0, 0, 0, 0, 1, 0, 0, 0, 0]

    def test_rule_110_first_rows(self):
        grid = evolve(Tape.single_one(9), 110, 3)
        assert grid[1] == [0, 0, 0, 1, 1, 0, 0, 0, 0]
        assert grid[2] == [0, 0, 1, 1, 1, 0, 0, 0, 0]
        assert grid[3] == [0, 1, 1, 0, 1, 0, 0, 0, 0]

    def test_rule_90_makes_sierpinski_rows(self):
        grid = evolve(Tape.single_one(9), 90, 3)
        assert grid[1] == [0, 0, 0, 1, 0, 1, 0, 0, 0]
        assert grid[2] == [0, 0, 1, 0, 0, 0, 1, 0, 0]
        assert grid[3] == [0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            evolve(Tape.single_one(5), 110, -1)


class TestRendering:
    def test_text_round_trip(self):
        grid = evolve(Tape.single_one(7), 110, 3)
        assert [[int(ch) for ch in line] for line in grid_to_text(grid).splitlines()] == grid

    def test_text_format(self):
        assert grid_to_text([[0, 1, 0], [1, 1, 0]]) == "010\n110\n"

    def test_pbm_header_and_payload(self):
        pbm = grid_to_pbm([[0, 1], [1, 0]])
        lines = pbm.strip().splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "2 2"
        assert lines[2:] == ["0 1", "1 0"]


class TestNetworkForm:
    def test_node_and_edge_counts(self):
        net = build_eca_network(Tape.single_one(9), 110, UpdateMode.SYNCHRONOUS)
        assert len(net.nodes) == 9
        assert len(net.edges) == 8  # fixed-zero: consecutive pairs only

        periodic = build_eca_network(
            Tape.from_cells([0] * 9, boundary="periodic"), 110, UpdateMode.SYNCHRONOUS
        )
        assert len(periodic.edges) == 9  # wrap edge closes the ring

    def test_run_reproduces_direct_evolution(self):
        tape = Tape.single_one(11)
        net = build_eca_network(tape, 110, UpdateMode.SYNCHRONOUS)
        records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=6), RngStream(0))
        grid = evolve(tape, 110, 6)
        assert [[int(v) for v in r.network_output] for r in records] == grid

    def test_async_fixed_differs_from_synchronous_on_rule_110(self):
        tape = Tape.single_one(9)
        sync = build_eca_network(tape, 110, UpdateMode.SYNCHRONOUS)
        fixed = build_eca_network(tape, 110, UpdateMode.ASYNC_FIXED)
        schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=5)
        rows_sync = [r.network_output for r in run(sync, schedule, RngStream(3))]
        rows_fixed = [r.network_output for r in run(fixed, schedule, RngStream(3))]
        assert rows_sync != rows_fixed

    def test_async_random_is_seed_deterministic(self):
        tape = Tape.single_one(9)
        schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=5)

        def rows(seed):
            net = build_eca_network(tape, 110, UpdateMode.ASYNC_RANDOM)
            return [r.network_output for r in run(net, schedule, RngStream(seed))]

        assert rows(7) == rows(7)

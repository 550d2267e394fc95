"""The uint8 cell vector against its payload-per-cell oracle.

Equality here is exact: the same tape after every step, the same record
readouts down to their float type, and the same random stream after the
run. That is what keeps record files byte-identical.
"""
import json

from hypothesis import given, settings, strategies as st

import eca_oracle as oracle
from cnets.core import ComputingNetwork, ScaleSchedule, run
from cnets.eca import UpdateMode, build_eca_network, evolve, rule_table, step, step_in_order
from cnets.problems import BOUNDARIES, Tape
from cnets.rng import RngStream

RULES = st.integers(0, 255)
SEEDS = st.integers(min_value=0, max_value=2**32)


@st.composite
def tapes(draw):
    cells = draw(st.lists(st.integers(0, 1), min_size=3, max_size=60))
    return Tape.from_cells(cells, boundary=draw(st.sampled_from(BOUNDARIES)))


@given(tapes(), RULES, st.sampled_from(list(UpdateMode)), st.integers(1, 8), SEEDS)
@settings(max_examples=200, deadline=None)
def test_network_run_matches_oracle(tape, rule, updating, steps, seed):
    schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=steps)
    net = build_eca_network(tape, rule, updating)
    reference = ComputingNetwork(oracle.OracleEca(rule, tape, updating))
    rng, reference_rng = RngStream(seed), RngStream(seed)
    records = run(net, schedule, tape, rng)
    expected = run(reference, schedule, tape, reference_rng)
    # json text tells 0.0 from 0, as a record file would
    assert json.dumps([r.network_output for r in records]) == json.dumps(
        [r.network_output for r in expected]
    )
    assert [(r.best_value, r.parameter_snapshot) for r in records] == [
        (r.best_value, r.parameter_snapshot) for r in expected
    ]
    assert rng.uniform() == reference_rng.uniform()
    assert net.nodes == range(len(tape))
    assert net.edges.tolist() == reference.edges.tolist()


@given(tapes(), RULES, st.data())
@settings(max_examples=200, deadline=None)
def test_step_functions_match_oracle(tape, rule, data):
    table = rule_table(rule)
    assert step(tape, table) == oracle.step(tape, table)
    order = data.draw(st.permutations(range(len(tape))))
    assert step_in_order(tape, table, order) == oracle.step_in_order(tape, table, order)


@given(tapes(), RULES, st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_evolve_matches_oracle(tape, rule, steps):
    assert evolve(tape, rule, steps) == oracle.evolve(tape, rule, steps)

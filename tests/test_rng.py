import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnets.errors import ConfigurationError
from cnets.rng import RngStream, StreamGroup


def test_same_seed_same_sequence():
    a = RngStream(12345)
    b = RngStream(12345)
    assert list(a.uniform(size=8)) == list(b.uniform(size=8))
    assert list(a.integers(0, 100, size=8)) == list(b.integers(0, 100, size=8))


def test_different_seeds_differ():
    a = RngStream(1)
    b = RngStream(2)
    assert list(a.uniform(size=8)) != list(b.uniform(size=8))


def test_streams_of_one_seed_differ():
    a = RngStream(7, stream=0)
    b = RngStream(7, stream=1)
    assert list(a.uniform(size=8)) != list(b.uniform(size=8))


def test_substream_deterministic_and_distinct():
    parent = RngStream(42)
    children = [parent.substream(i) for i in range(4)]
    again = [RngStream(42).substream(i) for i in range(4)]
    draws = [tuple(c.uniform(size=4)) for c in children]
    assert draws == [tuple(c.uniform(size=4)) for c in again]
    assert len(set(draws)) == len(draws)
    assert all(d != tuple(parent.uniform(size=4)) for d in draws)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_any_valid_seed_accepted(seed):
    stream = RngStream(seed)
    value = float(stream.uniform())
    assert 0.0 <= value < 1.0


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_invalid_seeds_rejected(bad):
    with pytest.raises(ConfigurationError):
        RngStream(bad)


def test_permutation_is_a_permutation():
    perm = RngStream(3).permutation(10)
    assert sorted(int(v) for v in perm) == list(range(10))


def test_integers_half_open_range():
    stream = RngStream(11)
    draws = stream.integers(0, 3, size=200)
    assert set(int(v) for v in draws) == {0, 1, 2}


def test_normal_matches_numpy_philox():
    ours = RngStream(5).normal(size=4)
    key = np.array([5, 0], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key)).normal(size=4)
    assert list(ours) == list(reference)


def draws(stream):
    """One double, one 32-bit integer and one normal: they read the whole state."""
    return float(stream.uniform()), int(stream.integers(0, 7)), float(stream.normal())


@given(st.integers(0, 2**32), st.lists(st.sampled_from(["uniform", "integers", "normal"]), max_size=6))
def test_restore_returns_to_a_snapshot(seed, moves):
    stream = RngStream(seed, 3)
    for move in moves:
        getattr(stream, move)(*((0, 5) if move == "integers" else ()))
    here = stream.snapshot()
    expected = draws(stream)
    moved = stream.snapshot()
    assert moved != here
    stream.restore(here)
    assert stream.snapshot() == here
    assert draws(stream) == expected
    assert stream.snapshot() == moved


def test_equal_positions_give_equal_snapshots():
    a, b = RngStream(8), RngStream(8)
    a.uniform(size=3)
    b.uniform()
    b.uniform(size=2)
    assert a.snapshot() == b.snapshot()
    b.integers(0, 2)  # a 32-bit draw: half a word, buffered
    assert a.snapshot() != b.snapshot()


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 0), (2**64 - 1, 3), (17, 2**63)])
def test_a_new_streams_snapshot_is_its_state(seed, stream):
    fresh = RngStream(seed, stream)
    state = fresh._gen.bit_generator.state  # what a snapshot after a draw reads
    assert fresh.snapshot() == {
        **state,
        "state": {name: tuple(words.tolist()) for name, words in state["state"].items()},
        "buffer": tuple(state["buffer"].tolist()),
    }
    fresh.restore(fresh.snapshot())
    assert draws(fresh) == draws(RngStream(seed, stream))


def _plain(state):
    return {
        **state,
        "state": {name: tuple(words.tolist()) for name, words in state["state"].items()},
        "buffer": tuple(state["buffer"].tolist()),
    }


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 0), (2**64 - 1, 3), (17, 2**63), (123, 7)])
def test_draws_and_snapshots_match_numpy_philox(seed, stream):
    ours = RngStream(seed, stream)
    reference = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    assert ours.snapshot() == _plain(reference.bit_generator.state)
    moves = [
        ("uniform", (), {}),
        ("integers", (0, 7), {}),
        ("normal", (), {}),
        ("uniform", (0.0, 2.0, 5), {}),
        ("integers", (0, 100), {"size": 3}),
        ("permutation", (6,), {}),
        ("normal", (1.0, 3.0, 2), {}),
    ]
    for name, args, kwargs in moves:
        got = getattr(ours, name)(*args, **kwargs)
        want = getattr(reference, name)(*args, **kwargs)
        assert np.asarray(got).tolist() == np.asarray(want).tolist()
        assert ours.snapshot() == _plain(reference.bit_generator.state)


def test_a_group_draws_one_row_per_stream_as_each_stream_would():
    group = StreamGroup([RngStream(3), RngStream(4, 2), RngStream(3, 1)])
    alone = [RngStream(3), RngStream(4, 2), RngStream(3, 1)]
    assert group.shape == (3,) and RngStream(3).shape == ()
    for _ in range(3):
        assert [int(v) for v in group.integers(0, 9)] == [int(s.integers(0, 9)) for s in alone]
        assert np.array(group.uniform(size=4)).tolist() == [s.uniform(size=4).tolist() for s in alone]
    assert [s.snapshot() for s in group.streams] == [s.snapshot() for s in alone]

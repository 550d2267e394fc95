import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from instances import random_euclidean

from cnets.aco import AcoArchitecture, AcoParams, build_aco_network
from cnets.errors import ConfigurationError
from cnets.meta import evaluate_genome
from cnets.rng import RngStream, StreamGroup, decode_walks, draw_walks


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
    for walkers in (3, 2, 5):  # an odd count leaves a half word buffered for the next
        starts, uniforms = draw_walks(group, walkers, 9)
        assert starts.shape == (3, walkers) and uniforms.shape == (3, walkers, 8)
        want = [scalar_walks(stream, walkers, 9) for stream in alone]
        assert starts.tolist() == [s for s, _ in want] and uniforms.tolist() == [u for _, u in want]
    assert [s.snapshot() for s in group.streams] == [s.snapshot() for s in alone]


def test_raw_words_are_numpys_uint64_integers():
    ours = RngStream(9, 4)
    ours.integers(0, 3)  # a buffered half word: raw words leave it alone
    reference = np.random.Generator(np.random.Philox(key=np.array([9, 4], dtype=np.uint64)))
    reference.integers(0, 3)
    for size in (1, 3, 9):
        got = ours.integers(0, 2**64, size=size, dtype=np.uint64)
        assert got.dtype == np.uint64
        assert got.tolist() == reference.integers(0, 2**64, size=size, dtype=np.uint64).tolist()
        assert ours.snapshot() == _plain(reference.bit_generator.state)


class LoggedStream(RngStream):
    """An RngStream that logs every draw call: "words" for a block of raw
    words, else the method's name."""

    def __init__(self, seed, stream=0):
        super().__init__(seed, stream)
        self.calls = []

    def uniform(self, *args, **kwargs):
        self.calls.append("uniform")
        return super().uniform(*args, **kwargs)

    def integers(self, low, high, size=None, dtype=np.int64):
        self.calls.append("words" if dtype is np.uint64 else "integers")
        return super().integers(low, high, size, dtype)


def scalar_walks(stream, walkers, n):
    """The per-walker calls the bulk draws stand for, made one by one."""
    draws = [
        (int(stream.integers(0, n)), stream.uniform(size=n - 1).tolist()) for _ in range(walkers)
    ]
    return [start for start, _ in draws], [walk for _, walk in draws]


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    skips=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    n=st.integers(3, 130),
    walkers=st.integers(1, 12),
    buffered=st.booleans(),
    grouped=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_decoded_walks_are_the_scalar_draws(seeds, skips, n, walkers, buffered, grouped):
    def streams(kind):
        made = [kind(seed, 5) for seed in (seeds if grouped else seeds[:1])]
        for stream, skip in zip(made, skips):
            stream.uniform(size=skip)  # any position within Philox's 4-word blocks
            if buffered:
                stream.integers(0, 7)  # leaves the word's high half buffered
        return made

    scalar, bulk = streams(RngStream), streams(LoggedStream)
    for stream in bulk:
        stream.calls.clear()
    rng = StreamGroup(bulk) if grouped else bulk[0]
    for _ in range(2):  # the second block starts from the half the first left
        before = [stream.snapshot() for stream in scalar]
        want = [scalar_walks(stream, walkers, n) for stream in scalar]
        # the pure decoder, on raw words from numpy's own Philox at the same position
        for state, (starts, uniforms), stream in zip(before, want, scalar):
            bits = np.random.Philox()
            bits.state = state
            half = np.array(state["uinteger"], np.uint64) if state["has_uint32"] else None
            count = walkers * n - (walkers + (half is not None)) // 2
            got = decode_walks(bits.random_raw(count), walkers, n, half)
            assert got[0].tolist() == starts and got[1].tolist() == uniforms
            has, left = got[2]
            after = stream.snapshot()
            assert (has, int(left)) == (after["has_uint32"], after["uinteger"])
            assert {**_plain(bits.state), "has_uint32": has, "uinteger": int(left)} == after
        starts, uniforms = draw_walks(rng, walkers, n)
        assert starts.shape == (*rng.shape, walkers)
        assert starts.reshape(-1, walkers).tolist() == [s for s, _ in want]
        assert uniforms.reshape(-1, walkers, n - 1).tolist() == [u for _, u in want]
        assert [s.snapshot() for s in bulk] == [s.snapshot() for s in scalar]
    # one raw-word draw per stream per block, and no other draw
    assert all(stream.calls == ["words", "words"] for stream in bulk)


def test_a_rejected_start_falls_back_to_the_scalar_draws():
    # n = 3 rejects a 32-bit half h when 3 * h mod 2**32 < 2**32 mod 3 = 1, i.e. h = 0
    n, walkers = 3, 4
    words = RngStream(2).integers(0, 2**64, size=10, dtype=np.uint64)
    assert decode_walks(words, walkers, n) is not None
    words[0] &= np.uint64(0xFFFFFFFF_00000000)  # walker 0's start: the low half
    assert decode_walks(words, walkers, n) is None
    words[0] |= np.uint64(0xAAAAAAAB)  # 3 * h mod 2**32 == 1: the lowest kept product
    assert decode_walks(words, walkers, n)[0][0] == 2

    class Crafted(LoggedStream):
        """Draws real raw words, then zeroes the first one's low half."""

        def integers(self, low, high, size=None, dtype=np.int64):
            got = super().integers(low, high, size, dtype)
            if dtype is np.uint64:
                got[0] &= np.uint64(0xFFFFFFFF_00000000)
            return got

    for rng, alone in (
        (Crafted(6), [RngStream(6)]),
        (StreamGroup([RngStream(5), Crafted(6)]), [RngStream(5), RngStream(6)]),
    ):
        want = [scalar_walks(stream, walkers, n) for stream in alone]
        starts, uniforms = draw_walks(rng, walkers, n)
        assert starts.reshape(-1, walkers).tolist() == [s for s, _ in want]
        assert uniforms.reshape(-1, walkers, n - 1).tolist() == [u for _, u in want]
        assert [s.snapshot() for s in rng.streams] == [s.snapshot() for s in alone]
        crafted = rng.streams[-1]
        assert crafted.calls == ["words"] + ["integers", "uniform"] * walkers


def test_streams_that_differ_in_a_buffered_half_draw_one_by_one():
    group = StreamGroup([LoggedStream(1), LoggedStream(2)])
    alone = [RngStream(1), RngStream(2)]
    group.streams[0].integers(0, 5)
    alone[0].integers(0, 5)
    want = [scalar_walks(stream, 3, 6) for stream in alone]
    starts, uniforms = draw_walks(group, 3, 6)
    assert starts.tolist() == [s for s, _ in want]
    assert uniforms.tolist() == [u for _, u in want]
    assert [s.snapshot() for s in group.streams] == [s.snapshot() for s in alone]
    assert group.streams[1].calls == ["integers", "uniform"] * 3


def test_a_cached_walk_layout_cannot_be_changed():
    from cnets.rng import _walk_layout

    for buffered in (False, True):
        for shared in _walk_layout(4, 7, buffered):
            with pytest.raises(ValueError):
                shared[...] = 0


def test_first_draws_of_a_fixed_key_are_pinned():
    """Literal draws, so a numpy release that changes a Generator method shows
    here: NEP 19 lets a feature release change a distribution method."""
    stream = RngStream(2026, 7)
    assert stream.integers(0, 2**64, 3, np.uint64).tolist() == [
        4464583800282260749, 9202327227910888272, 1348907069451995232
    ]
    assert stream.uniform(size=3).tolist() == [0.272331063544489, 0.06570147500865664, 0.6753882716322992]
    assert stream.integers(0, 1000, 4).tolist() == [211, 161, 796, 459]
    assert stream.normal(size=3).tolist() == [-0.921312208955759, -0.4672062699018924, -1.0920968322354387]
    assert stream.permutation(8).tolist() == [0, 3, 5, 1, 2, 4, 7, 6]


STREAM = st.integers(0, 2)
MOVES = st.lists(
    st.one_of(
        # a walk on every stream as a group (None) or on one stream alone;
        # odd walker counts leave a half word, and n = 2 and 8 divide 2**32
        st.tuples(st.just("walks"), st.none() | STREAM, st.integers(1, 6), st.sampled_from([2, 3, 5, 8, 9])),
        st.tuples(st.sampled_from(["uniform", "normal", "snapshot", "restore"]), STREAM),
        st.tuples(st.just("integers"), STREAM, st.integers(1, 2**40)),
        st.tuples(st.just("raw"), STREAM, st.integers(1, 5)),
        st.tuples(st.just("permutation"), STREAM, st.integers(1, 9)),
    ),
    max_size=14,
)


@given(seed=st.integers(0, 2**64 - 1), moves=MOVES)
# a restore drops the half word a walk left: the next walk reads the restored one
@example(seed=5, moves=[("walks", 0, 3, 8), ("restore", 0), ("walks", 0, 3, 8)])
@settings(max_examples=200, deadline=None)
def test_draws_and_snapshots_around_walks_match_numpy_philox(seed, moves):
    streams = [RngStream(seed, k) for k in range(3)]
    numpy = [np.random.Generator(np.random.Philox(key=np.array([seed, k], np.uint64))) for k in range(3)]
    saved = [stream.snapshot() for stream in streams]
    for name, k, *args in moves:
        if name == "walks":
            walkers, n = args
            rng = StreamGroup(streams) if k is None else streams[k]
            starts, uniforms = draw_walks(rng, walkers, n)
            want = [scalar_walks(gen, walkers, n) for gen in (numpy if k is None else [numpy[k]])]
            assert starts.reshape(-1, walkers).tolist() == [s for s, _ in want]
            assert uniforms.reshape(-1, walkers, n - 1).tolist() == [u for _, u in want]
        elif name == "snapshot":
            saved[k] = streams[k].snapshot()
            assert saved[k] == _plain(numpy[k].bit_generator.state)
        elif name == "restore":
            streams[k].restore(saved[k])
            numpy[k].bit_generator.state = saved[k]
        else:
            method, call = {
                "uniform": ("uniform", ()),
                "normal": ("normal", ()),
                "integers": ("integers", (0, *args)),
                "raw": ("integers", (0, 2**64, *args, np.uint64)),
                "permutation": ("permutation", tuple(args)),
            }[name]
            got, want = getattr(streams[k], method)(*call), getattr(numpy[k], method)(*call)
            assert np.asarray(got).tolist() == np.asarray(want).tolist()
    assert [stream.snapshot() for stream in streams] == [_plain(gen.bit_generator.state) for gen in numpy]


PHILOX = np.random.Philox


class CountingPhilox(PHILOX):
    """A Philox that counts every read and write of its state."""

    touches = 0

    @property
    def state(self):
        CountingPhilox.touches += 1
        return PHILOX.state.__get__(self)

    @state.setter
    def state(self, value):
        CountingPhilox.touches += 1
        PHILOX.state.__set__(self, value)


CountingPhilox.__name__ = "Philox"  # the name numpy checks a state's bit_generator against


@pytest.mark.parametrize("seeds", [(4,), (4, 5, 6)], ids=["stream", "group"])
def test_a_lockstep_inner_run_touches_no_state_after_its_first_fast_step(monkeypatch, seeds):
    graph = random_euclidean(8, RngStream(1, 1))
    genomes = [{"alpha": 1.0 + k / 4, "beta": 2.0} for k in range(4)]
    touched = []  # the state touches made before each fast step
    fast = AcoArchitecture.fast

    def counted(net, rng):
        touched.append(CountingPhilox.touches)
        fast(net, rng)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    monkeypatch.setattr(CountingPhilox, "touches", 0)
    monkeypatch.setattr(AcoArchitecture, "fast", counted)
    evaluate_genome(genomes, lambda g, rng: build_aco_network(graph, AcoParams(**g)), 30, seeds)
    assert len(touched) == 30  # one stack for every genome and seed
    assert touched[1] == CountingPhilox.touches

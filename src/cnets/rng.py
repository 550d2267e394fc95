"""Deterministic random streams.

Every stochastic choice in the package draws from an RngStream, so a
(config, seed) pair fully determines a run. Streams wrap numpy's
counter-based Philox bit generator keyed with (seed, stream). What a key
fixes, and on which numpy:

- Philox's raw words are the same on every platform and numpy build:
  numpy's random policy (NEP 19) keeps bit-generator streams stable.
- draw_walks makes an ant colony's per-ant draws, integers(0, n) and
  uniform(size=n - 1) per ant, as one block of raw words per stream,
  decoded in cnets bit for bit as numpy 2.4's Generator makes them.
- uniform, integers, normal and permutation are numpy Generator methods,
  which NEP 19 lets a feature release change; tests/test_rng.py pins
  their first draws for one key. The committed records were made with
  numpy 2.4.6.

A 32-bit draw takes half a 64-bit word and buffers the other half. The
half that a draw_walks block leaves stays on its stream, not in the bit
generator, so a block makes no state round trip: the stream hands it to
the bit generator, in one state write, only before a Generator draw that
may read it, and snapshot() includes it.
"""
from __future__ import annotations

from functools import cache, cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

_WORD = 1 << 64


def _plain_state(state: dict) -> dict:
    """A bit generator state in plain values, which compare with ==."""
    return {
        **state,
        "state": {name: tuple(words.tolist()) for name, words in state["state"].items()},
        "buffer": tuple(state["buffer"].tolist()),
    }


# Where every new Philox stream starts, as _plain_state gives it; only the
# key differs between streams (tests/test_rng.py checks it against numpy's).
_FRESH = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def check_seed(seed: int, key: str = "seed") -> int:
    """seed, if it is an integer in [0, 2**64), the seeds a stream takes;
    else a ConfigurationError naming key."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(f"must be an integer, got {seed!r}", key=key)
    if not 0 <= seed < _WORD:
        raise ConfigurationError(f"must be in [0, 2**64), got {seed}", key=key)
    return seed


@cache
def _unseeded():
    """A seed sequence that reads no OS entropy: Philox(key=...) would read
    some and throw it away, so a stream sets its keyed _FRESH state instead.
    Made at first use: importing numpy.random along with this module raised
    the benchmark's peak memory and slowed its backprop workload."""

    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return Unseeded()


class RngStream:
    """A named, independently seeded source of random draws."""

    # the leading shape of every draw: none here, one row per stream in a StreamGroup
    shape = ()

    def __init__(self, seed: int, stream: int = 0):
        self.seed = check_seed(seed)
        self.stream = stream % _WORD
        # snapshot() of the current position; every draw clears it
        self._position: dict | None = self._fresh()
        # (has_uint32, uinteger): the half word draw_walks left buffered, which
        # the bit generator takes only before a draw that may read it
        self._half: tuple[int, int] | None = None

    def _fresh(self) -> dict:
        return {**_FRESH, "state": {**_FRESH["state"], "key": (self.seed, self.stream)}}

    @cached_property
    def _gen(self) -> np.random.Generator:
        """The generator, built at the first draw or restore: a new stream's
        snapshot() needs none."""
        bits = np.random.Philox(_unseeded())
        bits.state = self._fresh()
        return np.random.Generator(bits)

    @property
    def streams(self) -> tuple["RngStream"]:
        return (self,)

    def _drawing(self) -> np.random.Generator:
        """The generator, about to make a draw that may read the buffered half word."""
        if self._half is not None:
            self._gen.bit_generator.state = self.snapshot()
            self._half = None
        self._position = None
        return self._gen

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._drawing().uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._drawing().normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Draw from [low, high) like numpy's Generator.integers. A block of
        whole uint64s is Philox's raw words, which leave the half word alone."""
        if dtype is np.uint64 and (low, high) == (0, _WORD) and size is not None:
            self._position = None
            return self._gen.bit_generator.random_raw(size)
        return self._drawing().integers(low, high, size=size, dtype=dtype)

    def permutation(self, n: int) -> np.ndarray:
        return self._drawing().permutation(n)

    def _buffered(self) -> tuple[int, int]:
        """The buffered half word, (has_uint32, uinteger): read from the bit
        generator only if the stream holds neither it nor its position."""
        if self._half is not None:
            return self._half
        state = self._position or self._gen.bit_generator.state
        return state["has_uint32"], state["uinteger"]

    def snapshot(self) -> dict:
        """The stream's position in plain values: equal snapshots are equal
        positions, and restore() returns to one far faster than a new stream
        is made. Taken again before another draw, it costs nothing."""
        if self._position is None:
            state = _plain_state(self._gen.bit_generator.state)
            if self._half is not None:
                state["has_uint32"], state["uinteger"] = self._half
            self._position = state
        return self._position

    def restore(self, snapshot: dict) -> None:
        """Return to a position this stream's snapshot() took."""
        if snapshot is not self._position:  # else the stream stands there already
            self._gen.bit_generator.state = snapshot
            self._position = snapshot
            self._half = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class StreamGroup:
    """Streams drawn as one by draw_walks: one row per stream, in stream order."""

    def __init__(self, streams: Sequence[RngStream]):
        self.streams = tuple(streams)
        self.shape = (len(self.streams),)


@lru_cache(maxsize=16)
def _walk_layout(walkers: int, n: int, buffered: bool) -> tuple[np.ndarray, ...]:
    """In a block of raw words: each start's word and whether it takes its high
    half (the low half of a new word, else the half buffered since; walker 0's
    word, 0, is unused if one was buffered before), and each walker's uniforms."""
    walker = np.arange(walkers)
    half = walker - buffered  # each start's half among the block's start words
    high = half % 2 == 1
    start_word = np.maximum(0, half // 2 + (walker - high) * (n - 1))
    uniform_word = ((half + 2) // 2 + walker * (n - 1))[:, None] + np.arange(n - 1)
    for shared in (high, start_word, uniform_word):  # cached: no caller may change one
        shared.flags.writeable = False
    return high, start_word, uniform_word


def decode_walks(words: np.ndarray, walkers: int, n: int, buffered: np.ndarray | None = None):
    """walkers pairs of draws integers(0, n), uniform(size=n - 1) as numpy's
    Generator makes them from each row of raw Philox words and its buffered half
    word (None: none buffered): (starts, uniforms, (whether a half is buffered
    after, each row's half)), or None if numpy rejects a start. A uniform is
    (word >> 11) * 2**-53; a start is Lemire's multiply-shift on a half word
    ("Fast random integer generation in an interval", 2019)."""
    high, start_word, uniform_word = _walk_layout(walkers, n, buffered is not None)
    halves = words.take(start_word, axis=-1)
    halves = np.where(high, halves >> 32, halves & 0xFFFFFFFF)
    if buffered is not None:
        halves[..., 0] = buffered
    scaled = halves * n
    threshold = (1 << 32) % n  # numpy rejects a product whose low 32 bits fall below it
    if threshold and ((scaled & 0xFFFFFFFF) < threshold).any():
        return None
    uniforms = (words.take(uniform_word, axis=-1) >> 11) * 2.0**-53
    # the last start word's high half stays, unless the only start took the buffered one
    kept = buffered if buffered is not None and walkers == 1 else words[..., start_word[-1]] >> 32
    return (scaled >> 32).astype(np.intp), uniforms, ((walkers - (buffered is not None)) % 2, kept)


def draw_walks(rng: RngStream | StreamGroup, walkers: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """walkers pairs of draws integers(0, n), uniform(size=n - 1) from each
    stream, as those calls make them and leaving each stream where they do:
    starts (*rng.shape, walkers) and uniforms (*rng.shape, walkers, n - 1), from
    one raw-word draw per stream, each keeping the half word it leaves; the
    streams go back and make the scalar calls if numpy would reject a start, or
    if they differ in buffering a half word."""
    streams = rng.streams
    # numpy can reject a start only if n does not divide 2**32
    before = [stream.snapshot() for stream in streams] if (1 << 32) % n else ()
    halves = [stream._buffered() for stream in streams]
    decoded = None
    if len({has for has, _ in halves}) == 1 and n > 1:
        buffered = halves[0][0]
        kept = np.array([half for _, half in halves], np.uint64) if buffered else None
        count = walkers * n - (walkers + buffered) // 2
        words = np.array([stream.integers(0, _WORD, count, np.uint64) for stream in streams])
        decoded = decode_walks(words, walkers, n, kept)
    if decoded is None:
        for stream, position in zip(streams, before):
            stream.restore(position)
        draws = [(s.integers(0, n), s.uniform(size=n - 1)) for s in streams for _ in range(walkers)]
        starts, uniforms = np.array([d[0] for d in draws]), np.array([d[1] for d in draws])
    else:
        starts, uniforms, (has, kept) = decoded
        for stream, half in zip(streams, kept.tolist()):
            stream._half = (has, half)
    return starts.reshape(*rng.shape, walkers), uniforms.reshape(*rng.shape, walkers, n - 1)

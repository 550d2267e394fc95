"""Deterministic random streams.

Every stochastic choice in the package draws from an RngStream, so a
(config, seed) pair fully determines a run. Streams wrap numpy's
counter-based Philox generator keyed with (seed, stream); the same key
produces the same draw sequence on every platform and numpy build, which
is what makes record files byte-reproducible.
"""
from __future__ import annotations

from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

_WORD = 1 << 64
# 64-bit golden-ratio increment; decorrelates child stream keys the same
# way splitmix64 decorrelates consecutive seeds.
_MIX = 0x9E3779B97F4A7C15


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

    algorithm = "philox4x64"
    # the leading shape of every draw: none here, one row per stream in a StreamGroup
    shape = ()

    def __init__(self, seed: int, stream: int = 0):
        self.seed = check_seed(seed)
        self.stream = stream % _WORD
        # snapshot() of the current position; every draw clears it
        self._position: dict | None = self._fresh()

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

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream that never collides with the parent's draws."""
        child = ((self.stream + 1) * _MIX + index + 1) % _WORD
        return RngStream(self.seed, child)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        self._position = None
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        self._position = None
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        """Draw from [low, high) like numpy's Generator.integers."""
        self._position = None
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        self._position = None
        return self._gen.permutation(n)

    def snapshot(self) -> dict:
        """The stream's position in plain values: equal snapshots are equal
        positions, and restore() returns to one far faster than a new stream
        is made. Taken again before another draw, it costs nothing."""
        if self._position is None:
            self._position = _plain_state(self._gen.bit_generator.state)
        return self._position

    def restore(self, snapshot: dict) -> None:
        """Return to a position this stream's snapshot() took."""
        if snapshot is not self._position:  # else the stream stands there already
            self._gen.bit_generator.state = snapshot
            self._position = snapshot

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class StreamGroup:
    """Streams drawn as one: each draw returns one row per stream, in
    stream order, and moves every stream exactly as its own draw would."""

    def __init__(self, streams: Sequence[RngStream]):
        self.streams = tuple(streams)
        self.shape = (len(self.streams),)

    def integers(self, low: int, high: int) -> list:
        return [stream.integers(low, high) for stream in self.streams]

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> list:
        return [stream.uniform(low, high, size) for stream in self.streams]

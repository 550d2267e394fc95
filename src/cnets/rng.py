"""Deterministic random streams.

Every stochastic choice in the package draws from an RngStream, so a
(config, seed) pair fully determines a run. Streams wrap numpy's
counter-based Philox generator keyed with (seed, stream); the same key
produces the same draw sequence on every platform and numpy build, which
is what makes record files byte-reproducible.
"""
from __future__ import annotations

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


class RngStream:
    """A named, independently seeded source of random draws."""

    algorithm = "philox4x64"

    def __init__(self, seed: int, stream: int = 0):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _WORD:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self.stream = stream % _WORD
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # snapshot() of the current position; every draw clears it
        self._position: dict | None = {
            **_FRESH, "state": {**_FRESH["state"], "key": (self.seed, self.stream)}
        }

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

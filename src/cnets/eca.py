"""Elementary cellular automata over binary tapes.

A rule is one of the 256 Wolfram numberings: bit k of the rule number is
the next state for the neighborhood whose (left, center, right) bits
read as the binary number k. The cells are one uint8 vector. The
stand-alone functions step Tape values through the same kernels that
build_eca_network runs as a computing network whose nodes are cells and
whose edges link neighbours.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import ComputingNetwork
from .errors import ConfigurationError
from .problems import Tape
from .rng import RngStream

RuleTable = dict[tuple[int, int, int], int]

Grid = list[list[int]]

_DEAD = np.zeros(1, dtype=np.uint8)


class UpdateMode(Enum):
    """How cell updates within one fast step are ordered."""

    SYNCHRONOUS = "synchronous"
    ASYNC_FIXED = "asynchronous-fixed"
    ASYNC_RANDOM = "asynchronous-random"

    @classmethod
    def _missing_(cls, value):
        names = sorted(mode.value for mode in cls)
        raise ConfigurationError(f"expected one of {names}, got {value!r}", key="updating")


def rule_table(rule_number: int) -> RuleTable:
    """Expand a Wolfram rule number into its 8-entry neighborhood map."""
    if isinstance(rule_number, bool) or not isinstance(rule_number, int):
        raise ConfigurationError(f"must be an integer, got {rule_number!r}", key="rule")
    if not 0 <= rule_number <= 255:
        raise ConfigurationError(f"must be in [0, 255], got {rule_number}", key="rule")
    table: RuleTable = {}
    for k in range(8):
        left, center, right = (k >> 2) & 1, (k >> 1) & 1, k & 1
        table[(left, center, right)] = (rule_number >> k) & 1
    return table


@dataclass(frozen=True)
class EcaParams:
    """An automaton run's rule, starting tape and update order.

    initial is "single-one" (one live cell at the centre) or the starting
    cells, one per cell of the width. Construction builds the rule
    table, the tape and the update mode, so rule_table, Tape and
    UpdateMode check every value; none of them draws.
    """

    rule: int
    width: int
    boundary: str = Tape.boundary
    initial: str | tuple[int, ...] = "single-one"
    updating: str = UpdateMode.SYNCHRONOUS.value

    def __post_init__(self):
        rule_table(self.rule)
        UpdateMode(self.updating)
        self.tape()

    def tape(self) -> Tape:
        """The starting tape."""
        if self.initial == "single-one":
            return Tape.single_one(self.width, self.boundary)
        if not isinstance(self.initial, tuple):
            raise ConfigurationError(
                f'expected "single-one" or a 0/1 list, got {self.initial!r}', key="initial"
            )
        if len(self.initial) != self.width:
            raise ConfigurationError(
                f"got {len(self.initial)} cells for width {self.width}", key="initial"
            )
        return Tape.from_cells(self.initial, self.boundary)


def _lookup(table: RuleTable) -> np.ndarray:
    """The rule table as an 8-entry array indexed by 4*left + 2*center + right."""
    return np.array([table[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)], dtype=np.uint8)


def _step_cells(cells: np.ndarray, lookup: np.ndarray, boundary: str) -> np.ndarray:
    """One synchronous step: every cell reads the pre-step cells.

    The tape is padded at each end with a dead cell (fixed-zero) or with
    the cell at its other end (periodic).
    """
    if boundary == "periodic":
        padded = np.concatenate((cells[-1:], cells, cells[:1]))
    else:
        padded = np.concatenate((_DEAD, cells, _DEAD))
    return lookup[4 * padded[:-2] + 2 * cells + padded[2:]]


def _step_cells_in_order(
    cells: np.ndarray, lookup: np.ndarray, boundary: str, order: Iterable[int]
) -> np.ndarray:
    """One asynchronous step: updates land in place, in the given order."""
    row, table = cells.tolist(), lookup.tolist()
    n, periodic = len(row), boundary == "periodic"
    for i in order:
        left = row[i - 1] if i > 0 or periodic else 0
        right = row[(i + 1) % n] if i < n - 1 or periodic else 0
        row[i] = table[4 * left + 2 * row[i] + right]
    return np.array(row, dtype=np.uint8)


def step(tape: Tape, table: RuleTable) -> Tape:
    """One synchronous step: every cell reads the pre-step tape."""
    cells = _step_cells(np.array(tape.cells, dtype=np.uint8), _lookup(table), tape.boundary)
    return Tape(cells=tuple(cells.tolist()), boundary=tape.boundary)


def step_in_order(tape: Tape, table: RuleTable, order: Sequence[int]) -> Tape:
    """One asynchronous step: updates land in place, in the given order."""
    cells = _step_cells_in_order(
        np.array(tape.cells, dtype=np.uint8), _lookup(table), tape.boundary, order
    )
    return Tape(cells=tuple(cells.tolist()), boundary=tape.boundary)


def node_update_order(n: int, mode: UpdateMode, rng: RngStream | None) -> list[int]:
    """Cell visit order for one fast step under the given update mode.

    Synchronous callers should read all pre-step state first and ignore
    ordering; the order returned here matters only to the asynchronous
    modes, where updates land in place.
    """
    if mode is UpdateMode.ASYNC_RANDOM:
        if rng is None:
            raise ConfigurationError("asynchronous-random updating needs an RngStream")
        return [int(i) for i in rng.permutation(n)]
    return list(range(n))


def evolve(tape: Tape, rule_number: int, steps: int) -> Grid:
    """Synchronous evolution; returns steps+1 rows, row 0 the initial tape."""
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    lookup = _lookup(rule_table(rule_number))
    grid = np.empty((steps + 1, len(tape)), dtype=np.uint8)
    grid[0] = tape.cells
    for t in range(steps):
        grid[t + 1] = _step_cells(grid[t], lookup, tape.boundary)
    return grid.tolist()


def grid_to_text(grid: Grid) -> str:
    """Rows of 0/1 characters, one line per time step."""
    return "\n".join("".join(str(c) for c in row) for row in grid) + "\n"


def grid_to_pbm(grid: Grid) -> str:
    """Portable bitmap (P1) text; cell value 1 maps to a black pixel."""
    if not grid:
        raise ConfigurationError("cannot render an empty grid")
    width, height = len(grid[0]), len(grid)
    lines = ["P1", f"{width} {height}"]
    lines.extend(" ".join(str(c) for c in row) for row in grid)
    return "\n".join(lines) + "\n"


class EcaArchitecture:
    """Cellular-automaton behaviour: fast = one tape step, slow = nothing.

    The cells are one uint8 vector, the only copy of the state. The rule
    table is part of the network function, not adjustable state, so the
    adaptation algorithm is the identity.
    """

    kind = "eca"
    allow_hyperedges = False
    directed = False

    def __init__(self, rule_number: int, problem: Tape, updating: UpdateMode):
        self.rule_number = rule_number
        self.lookup = _lookup(rule_table(rule_number))
        self.problem = problem
        self.updating = updating
        self.cells = np.array(problem.cells, dtype=np.uint8)

    def substrate(self) -> tuple[int, np.ndarray]:
        """Cells in tape order and one undirected link (i, i+1) per neighbouring pair.

        A periodic tape adds the wrap link (n-1, 0); a tape has at least
        3 cells, so that link never repeats a pair.
        """
        n = len(self.cells)
        links = np.stack([np.arange(n), np.arange(1, n + 1) % n], axis=1)
        return n, links if self.problem.boundary == "periodic" else links[:-1]

    def fast(self, net, rng: RngStream) -> None:
        boundary = self.problem.boundary
        if self.updating is UpdateMode.SYNCHRONOUS:
            self.cells = _step_cells(self.cells, self.lookup, boundary)
        else:
            order = node_update_order(len(self.cells), self.updating, rng)
            self.cells = _step_cells_in_order(self.cells, self.lookup, boundary, order)

    def readout(self, net) -> list[float]:
        return self.cells.astype(float).tolist()

    def slow(self, net, rng: RngStream) -> None:
        pass

    def best_value(self, net) -> float | None:
        return None

    def parameters(self, net) -> dict[str, float]:
        return {"rule": float(self.rule_number)}


def build_eca_network(
    tape: Tape,
    rule_number: int,
    updating: UpdateMode = UpdateMode.SYNCHRONOUS,
) -> ComputingNetwork:
    """Wrap a tape as a computing network of cell nodes and neighbour links."""
    return ComputingNetwork(EcaArchitecture(rule_number, tape, updating))

"""Elementary cellular automata over binary tapes.

A rule is one of the 256 Wolfram numberings: bit k of the rule number is
the next state for the neighborhood whose (left, center, right) bits
read as the binary number k. The stand-alone functions work on Tape
values; build_eca_network wraps the same stepping inside a computing
network whose nodes are cells and whose edges link neighbors.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import ComputingNetwork, EdgeState, NodeState
from .errors import ConfigurationError
from .problems import BOUNDARIES, Tape
from .rng import RngStream

RuleTable = dict[tuple[int, int, int], int]

Grid = list[list[int]]


class UpdateMode(Enum):
    """How cell updates within one fast step are ordered."""

    SYNCHRONOUS = "synchronous"
    ASYNC_FIXED = "asynchronous-fixed"
    ASYNC_RANDOM = "asynchronous-random"


def rule_table(rule_number: int) -> RuleTable:
    """Expand a Wolfram rule number into its 8-entry neighborhood map."""
    if isinstance(rule_number, bool) or not isinstance(rule_number, int):
        raise ConfigurationError(f"rule number must be an integer, got {rule_number!r}")
    if not 0 <= rule_number <= 255:
        raise ConfigurationError(f"rule number must be in [0, 255], got {rule_number}")
    table: RuleTable = {}
    for k in range(8):
        left, center, right = (k >> 2) & 1, (k >> 1) & 1, k & 1
        table[(left, center, right)] = (rule_number >> k) & 1
    return table


def _neighbor(cells: Sequence[int], index: int, boundary: str) -> int:
    if 0 <= index < len(cells):
        return cells[index]
    if boundary == "periodic":
        return cells[index % len(cells)]
    return 0


def step(tape: Tape, table: RuleTable) -> Tape:
    """One synchronous step: every cell reads the pre-step tape."""
    cells = tape.cells
    new = tuple(
        table[
            (
                _neighbor(cells, i - 1, tape.boundary),
                cells[i],
                _neighbor(cells, i + 1, tape.boundary),
            )
        ]
        for i in range(len(cells))
    )
    return Tape(cells=new, boundary=tape.boundary)


def step_in_order(tape: Tape, table: RuleTable, order: Sequence[int]) -> Tape:
    """One asynchronous step: updates land in place, in the given order."""
    cells = list(tape.cells)
    for i in order:
        cells[i] = table[
            (
                _neighbor(cells, i - 1, tape.boundary),
                cells[i],
                _neighbor(cells, i + 1, tape.boundary),
            )
        ]
    return Tape(cells=tuple(cells), boundary=tape.boundary)


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
    table = rule_table(rule_number)
    grid: Grid = [list(tape.cells)]
    current = tape
    for _ in range(steps):
        current = step(current, table)
        grid.append(list(current.cells))
    return grid


def grid_to_text(grid: Grid) -> str:
    """Rows of 0/1 characters, one line per time step."""
    return "\n".join("".join(str(c) for c in row) for row in grid) + "\n"


def grid_from_text(text: str) -> Grid:
    rows = [line for line in text.splitlines() if line]
    grid = [[int(ch) for ch in line] for line in rows]
    widths = {len(row) for row in grid}
    if len(widths) > 1:
        raise ConfigurationError("grid rows have unequal widths")
    if any(c not in (0, 1) for row in grid for c in row):
        raise ConfigurationError("grid characters must be 0 or 1")
    return grid


def grid_to_pbm(grid: Grid) -> str:
    """Portable bitmap (P1) text; cell value 1 maps to a black pixel."""
    if not grid:
        raise ConfigurationError("cannot render an empty grid")
    width, height = len(grid[0]), len(grid)
    lines = ["P1", f"{width} {height}"]
    lines.extend(" ".join(str(c) for c in row) for row in grid)
    return "\n".join(lines) + "\n"


@dataclass
class CellPayload:
    """State of one cell node."""

    state: int


@dataclass
class NeighborLinkPayload:
    """Adjacency marker; carries no adjustable state."""


class EcaArchitecture:
    """Cellular-automaton behaviour: fast = one tape step, slow = nothing.

    The rule table is part of the network function, not adjustable state,
    so the adaptation algorithm is the identity.
    """

    kind = "eca"
    input_arity = 0
    allow_hyperedges = False

    def __init__(
        self,
        rule_number: int,
        boundary: str,
        problem: Tape,
        updating: UpdateMode,
    ):
        self.rule_number = rule_number
        self.table = rule_table(rule_number)
        if boundary not in BOUNDARIES:
            raise ConfigurationError(
                f"boundary must be one of {BOUNDARIES}, got {boundary!r}"
            )
        self.boundary = boundary
        self.problem = problem
        self.updating = updating

    def check_problem(self, problem) -> None:
        if problem != self.problem:
            raise ConfigurationError("network was built for a different tape")

    def next_input(self, net, slow_index, fast_index) -> list[float]:
        return []

    def _tape(self, net) -> Tape:
        return Tape(
            cells=tuple(node.payload.state for node in net.nodes),
            boundary=self.boundary,
        )

    def fast(self, net, inputs, rng: RngStream) -> None:
        tape = self._tape(net)
        if self.updating is UpdateMode.SYNCHRONOUS:
            stepped = step(tape, self.table)
        else:
            order = node_update_order(len(net.nodes), self.updating, rng)
            stepped = step_in_order(tape, self.table, order)
        for node, state in zip(net.nodes, stepped.cells):
            node.payload.state = state

    def readout(self, net) -> list[float]:
        return [float(node.payload.state) for node in net.nodes]

    def collect(self, net, outputs):
        return outputs

    def slow(self, net, feedback, rng: RngStream) -> None:
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
    """Wrap a tape as a computing network of cell nodes and neighbor edges."""
    nodes = [NodeState(id=i, payload=CellPayload(state=c)) for i, c in enumerate(tape.cells)]
    edges = []
    n = len(tape.cells)
    for i in range(n - 1):
        edges.append(
            EdgeState(
                id=len(edges),
                endpoints=(i, i + 1),
                directed=False,
                payload=NeighborLinkPayload(),
            )
        )
    if tape.boundary == "periodic" and n > 2:
        edges.append(
            EdgeState(
                id=len(edges),
                endpoints=(n - 1, 0),
                directed=False,
                payload=NeighborLinkPayload(),
            )
        )
    arch = EcaArchitecture(rule_number, tape.boundary, tape, updating)
    return ComputingNetwork(nodes=nodes, edges=edges, arch=arch)

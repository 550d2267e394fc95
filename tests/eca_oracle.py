"""Payload-per-cell reference form of cnets.eca, kept as a test oracle.

One Python object per cell holds its state. A step rebuilds the tape as
a tuple and looks every neighbourhood up in the rule's dict, one cell at
a time, reading out-of-range neighbours through the boundary rule. The
uint8 cell vector of cnets.eca must give the same tapes, records and
random draws, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cnets.eca import RuleTable, UpdateMode, rule_table
from cnets.errors import ConfigurationError
from cnets.problems import Tape
from cnets.rng import RngStream


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


def evolve(tape: Tape, rule_number: int, steps: int) -> list[list[int]]:
    """Synchronous evolution; returns steps+1 rows, row 0 the initial tape."""
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    table = rule_table(rule_number)
    grid = [list(tape.cells)]
    current = tape
    for _ in range(steps):
        current = step(current, table)
        grid.append(list(current.cells))
    return grid


@dataclass
class CellPayload:
    """State of one cell node."""

    state: int


@dataclass
class OracleNode:
    id: int
    payload: CellPayload


class OracleEca:
    """Cellular-automaton architecture over one payload object per cell."""

    kind = "eca"
    allow_hyperedges = False
    directed = False

    def __init__(self, rule_number: int, problem: Tape, updating: UpdateMode):
        self.rule_number = rule_number
        self.table = rule_table(rule_number)
        self.problem = problem
        self.updating = updating
        self.nodes = [
            OracleNode(id=i, payload=CellPayload(state=c)) for i, c in enumerate(problem.cells)
        ]

    def substrate(self) -> tuple[int, np.ndarray]:
        n = len(self.nodes)
        edges = [(i, i + 1) for i in range(n - 1)]
        if self.problem.boundary == "periodic" and n > 2:
            edges.append((n - 1, 0))
        return n, np.array(edges, dtype=int).reshape(-1, 2)

    def _tape(self) -> Tape:
        return Tape(
            cells=tuple(node.payload.state for node in self.nodes),
            boundary=self.problem.boundary,
        )

    def fast(self, net, rng: RngStream) -> None:
        tape = self._tape()
        if self.updating is UpdateMode.SYNCHRONOUS:
            stepped = step(tape, self.table)
        else:
            order = list(range(len(self.nodes)))
            if self.updating is UpdateMode.ASYNC_RANDOM:
                order = [int(i) for i in rng.permutation(len(self.nodes))]
            stepped = step_in_order(tape, self.table, order)
        for node, state in zip(self.nodes, stepped.cells):
            node.payload.state = state

    def readout(self, net) -> list[float]:
        return [float(node.payload.state) for node in self.nodes]

    def slow(self, net, rng: RngStream) -> None:
        pass

    def best_value(self, net) -> float | None:
        return None

    def parameters(self, net) -> dict[str, float]:
        return {"rule": float(self.rule_number)}

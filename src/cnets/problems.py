"""Problem instances the architectures run against.

Four instance kinds: supervised Dataset (ANN), TourGraph (ACO),
Objective (PSO and cross-composition), and binary Tape (ECA). All are
value types with structural equality so a driven run can verify it was
handed the same problem its network was built for.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, MalformedInstanceError
from .rng import RngStream

Row = tuple[float, ...]


def _read_only(rows: tuple[Row, ...]) -> np.ndarray:
    matrix = np.array(rows, dtype=float)
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class Dataset:
    """Supervised samples: paired input and target rows of fixed arity."""

    inputs: tuple[Row, ...]
    targets: tuple[Row, ...]

    def __post_init__(self):
        if not self.inputs:
            raise ConfigurationError("dataset has no samples")
        if len(self.inputs) != len(self.targets):
            raise ConfigurationError(
                f"dataset has {len(self.inputs)} inputs but {len(self.targets)} targets"
            )
        in_arity = len(self.inputs[0])
        out_arity = len(self.targets[0])
        if in_arity == 0 or out_arity == 0:
            raise ConfigurationError("dataset rows must be non-empty")
        for row in self.inputs:
            if len(row) != in_arity:
                raise ConfigurationError("ragged dataset input rows")
        for row in self.targets:
            if len(row) != out_arity:
                raise ConfigurationError("ragged dataset target rows")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def input_arity(self) -> int:
        return len(self.inputs[0])

    @property
    def target_arity(self) -> int:
        return len(self.targets[0])

    def input_matrix(self) -> np.ndarray:
        """Inputs as a read-only (samples, input arity) array, built once."""
        return self._input_matrix

    def target_matrix(self) -> np.ndarray:
        """Targets as a read-only (samples, target arity) array, built once."""
        return self._target_matrix

    @cached_property
    def _input_matrix(self) -> np.ndarray:
        return _read_only(self.inputs)

    @cached_property
    def _target_matrix(self) -> np.ndarray:
        return _read_only(self.targets)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Sequence[float], Sequence[float]]]) -> "Dataset":
        return cls(
            inputs=tuple(tuple(float(v) for v in x) for x, _ in rows),
            targets=tuple(tuple(float(v) for v in t) for _, t in rows),
        )

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        """Load a dataset whose header names columns in0,in1,...,out0,...."""
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigurationError(f"dataset file {path} is empty") from None
            header = [h.strip() for h in header]
            in_cols = [i for i, h in enumerate(header) if h.startswith("in")]
            out_cols = [i for i, h in enumerate(header) if h.startswith("out")]
            if not in_cols or not out_cols or len(in_cols) + len(out_cols) != len(header):
                raise ConfigurationError(
                    f"dataset header must name every column in* or out*, got {header}"
                )
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigurationError(
                        f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
                rows.append(
                    (
                        [values[i] for i in in_cols],
                        [values[i] for i in out_cols],
                    )
                )
        if not rows:
            raise ConfigurationError(f"dataset file {path} has no data rows")
        return cls.from_rows(rows)


def xor_dataset() -> Dataset:
    """The 2-input XOR truth table with targets in {0, 1}."""
    return Dataset.from_rows(
        [
            ((0.0, 0.0), (0.0,)),
            ((0.0, 1.0), (1.0,)),
            ((1.0, 0.0), (1.0,)),
            ((1.0, 1.0), (0.0,)),
        ]
    )


@dataclass(frozen=True)
class TourGraph:
    """Complete weighted graph for closed-tour problems.

    costs is a full square matrix: symmetric, zero diagonal, strictly
    positive elsewhere (desirability 1/cost must be finite).
    """

    costs: tuple[Row, ...]

    def __post_init__(self):
        n = len(self.costs)
        if n < 3:
            raise MalformedInstanceError(f"tour graph needs >= 3 nodes, got {n}")
        if any(len(row) != n for row in self.costs):
            raise MalformedInstanceError("cost matrix is not square")
        c = self.cost_matrix
        diagonal = np.eye(n, dtype=bool)
        bad = ~np.isfinite(c) | np.where(diagonal, c != 0.0, c <= 0.0) | (c != c.T)
        if not bad.any():
            return
        # the first defect in row-major order, named by its cell's first failing check
        i, j = divmod(int(bad.argmax()), n)
        value = self.costs[i][j]
        if not math.isfinite(value):
            raise MalformedInstanceError(f"cost[{i}][{j}] is not finite")
        if i == j:
            raise MalformedInstanceError(f"cost[{i}][{i}] must be 0")
        if value <= 0.0:
            raise MalformedInstanceError(f"cost[{i}][{j}] must be positive, got {value}")
        raise MalformedInstanceError("cost matrix is not symmetric")

    @property
    def n(self) -> int:
        return len(self.costs)

    def cost(self, i: int, j: int) -> float:
        return self.costs[i][j]

    @cached_property
    def cost_matrix(self) -> np.ndarray:
        """costs as a read-only float array, built once."""
        return _read_only(self.costs)

    def tour_length(self, tour: Sequence[int]) -> float:
        """Length of the closed tour visiting every node exactly once."""
        if sorted(tour) != list(range(self.n)):
            raise ConfigurationError(
                f"tour must visit all {self.n} nodes exactly once, got {list(tour)}"
            )
        total = 0.0
        for k, node in enumerate(tour):
            total += self.costs[node][tour[(k + 1) % len(tour)]]
        return total

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[float]]) -> "TourGraph":
        return cls(costs=tuple(tuple(float(v) for v in row) for row in matrix))

    @classmethod
    def from_coordinates(cls, coords: Sequence[Sequence[float]]) -> "TourGraph":
        """Euclidean instance from planar points."""
        points = [tuple(float(v) for v in p) for p in coords]
        n = len(points)
        matrix = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = math.dist(points[i], points[j])
                matrix[i][j] = matrix[j][i] = d
        return cls.from_matrix(matrix)

    @classmethod
    def random_euclidean(cls, n: int, rng: RngStream, box: float = 100.0) -> "TourGraph":
        coords = [(rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n)]
        return cls.from_coordinates(coords)

    @classmethod
    def from_csv(cls, path: str, fmt: str = "coords") -> "TourGraph":
        """Load either x,y coordinate rows or a full cost matrix."""
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
        if not rows:
            raise ConfigurationError(f"graph file {path} is empty")
        if rows and not _is_float(rows[0][0]):
            rows = rows[1:]  # tolerate a header line
        try:
            values = [[float(v) for v in row] for row in rows]
        except ValueError as exc:
            raise ConfigurationError(f"graph file {path}: {exc}") from None
        if fmt == "coords":
            if any(len(row) != 2 for row in values):
                raise ConfigurationError(
                    f"graph file {path}: coordinate rows must have 2 fields"
                )
            return cls.from_coordinates(values)
        if fmt == "matrix":
            return cls.from_matrix(values)
        raise ConfigurationError(f"unknown graph format {fmt!r}")


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class Objective:
    """Box-bounded real function to be minimized.

    The callable is excluded from equality; two objectives compare equal
    when name, dimension, and box agree.
    """

    name: str
    dimension: int
    lower: float
    upper: float
    fn: Callable[[np.ndarray], float] = field(compare=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError(
                f"objective dimension must be >= 1, got {self.dimension}"
            )
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"objective box must have lower < upper, got [{self.lower}, {self.upper}]"
            )

    def __call__(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


def _sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def _rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


_NAMED_OBJECTIVES: dict[str, tuple[Callable[[np.ndarray], float], float, float]] = {
    "sphere": (_sphere, -5.12, 5.12),
    "rosenbrock": (_rosenbrock, -2.048, 2.048),
    "rastrigin": (_rastrigin, -5.12, 5.12),
}


def named_objective(
    name: str, dimension: int, bounds: tuple[float, float] | None = None
) -> Objective:
    """Look up a benchmark objective, with its conventional box by default."""
    if name not in _NAMED_OBJECTIVES:
        known = ", ".join(sorted(_NAMED_OBJECTIVES))
        raise ConfigurationError(f"unknown objective {name!r} (known: {known})")
    fn, lo, hi = _NAMED_OBJECTIVES[name]
    if bounds is not None:
        lo, hi = float(bounds[0]), float(bounds[1])
    return Objective(name=name, dimension=dimension, lower=lo, upper=hi, fn=fn)


BOUNDARIES = ("fixed-zero", "periodic")


@dataclass(frozen=True)
class Tape:
    """Finite row of binary cells with an explicit boundary rule."""

    cells: tuple[int, ...]
    boundary: str = "fixed-zero"

    def __post_init__(self):
        if len(self.cells) < 3:
            raise ConfigurationError(f"tape needs >= 3 cells, got {len(self.cells)}")
        if any(c not in (0, 1) for c in self.cells):
            raise ConfigurationError("tape cells must all be 0 or 1")
        if self.boundary not in BOUNDARIES:
            raise ConfigurationError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def single_one(cls, width: int, boundary: str = "fixed-zero") -> "Tape":
        """All zeros except a single 1 at the center cell."""
        cells = [0] * width
        if width > 0:
            cells[width // 2] = 1
        return cls(cells=tuple(cells), boundary=boundary)

    @classmethod
    def from_cells(cls, cells: Sequence[int], boundary: str = "fixed-zero") -> "Tape":
        return cls(cells=tuple(int(c) for c in cells), boundary=boundary)

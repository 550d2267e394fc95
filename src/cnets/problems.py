"""Problem instances the architectures run against.

Four instance kinds: supervised Dataset (ANN), TourGraph (ACO),
Objective (PSO and cross-composition), and binary Tape (ECA). All are
value types with structural equality, so that the meta scale can run
the networks of equal problems as one lockstep stack. Dataset and
TourGraph hold read-only float64 arrays and compare by their shapes
and bytes.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, MalformedInstanceError

# Doubles the largest array a config's sizes ask for may hold, checked when
# the config or its input loads: 128 MB.
ARRAY_DOUBLES = 1 << 24


def check_size(doubles: int, where: str, what: str, limit: int | None = None) -> None:
    """Refuse an array of doubles over limit (ARRAY_DOUBLES by default), before
    it is allocated; where names the setting in the error, what the sizes."""
    limit = ARRAY_DOUBLES if limit is None else limit
    if doubles > limit:
        raise ConfigurationError(
            f"{where}: {what} need {doubles} doubles in one array, over the limit of {limit}"
        )


def _read_only(rows) -> np.ndarray | None:
    """rows as a read-only float64 array, or None if they are not numbers."""
    try:
        matrix = np.array(rows, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or values that are not numbers
        return None
    matrix.flags.writeable = False
    return matrix


def _parse_numbers(lines) -> np.ndarray:
    """Comma-separated numbers, quotes allowed, one row per non-blank line.

    numpy's C parser gives each value the bits float() gives its text.
    """
    with warnings.catch_warnings():
        # a table with no rows warns; the caller says what it lacks
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')


def _number(text: str) -> float | None:
    """The one number text holds, read as _parse_numbers reads it, or None."""
    try:
        value = _parse_numbers([text])
    except ValueError:
        return None
    return float(value[0, 0]) if value.shape == (1, 1) else None


def _lines(path: str, kind: str) -> list[str]:
    """The file's lines, line ends kept; a file that does not decode is refused."""
    try:
        with open(path, newline="") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {kind} file {path}: {exc}") from None


def _refused_line(path: str, lines: list[str], width: int, skip_header: bool = True) -> str:
    """'path:line: why' for the first data line of the file's lines that is not
    width finite numbers, the first non-blank line being a header if skip_header;
    read only once _parse_numbers has refused the file."""
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if skip_header:
            skip_header = False
            continue
        fields = next(csv.reader([line]))
        if len(fields) != width:
            return f"{path}:{line_no}: expected {width} fields, got {len(fields)}"
        for field in fields:
            value = _number(field)
            if value is None or not math.isfinite(value):
                return f"{path}:{line_no}: not a finite number: {field!r}"
    return f"{path}: cannot read its data rows"


class _ArrayValue:
    """A value type whose attributes are all arrays, equal to one of its
    class whose arrays have the same shapes and bytes."""

    def _key(self) -> tuple:
        return tuple((a.shape, a.tobytes()) for a in vars(self).values())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class Dataset(_ArrayValue):
    """Supervised samples: read-only float64 arrays of finite input and
    target rows, samples by arity. Any table of numbers converts."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        for name in ("inputs", "targets"):
            matrix = _read_only(getattr(self, name))
            if matrix is None or matrix.ndim != 2 or not matrix.size:
                raise ConfigurationError(
                    f"dataset {name} must be a non-empty table of numbers, one row per sample"
                )
            if not np.isfinite(matrix).all():
                raise ConfigurationError(f"dataset {name} must be finite")
            object.__setattr__(self, name, matrix)
        if len(self.inputs) != len(self.targets):
            raise ConfigurationError(
                f"dataset has {len(self.inputs)} inputs but {len(self.targets)} targets"
            )

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def input_arity(self) -> int:
        return self.inputs.shape[1]

    @property
    def target_arity(self) -> int:
        return self.targets.shape[1]

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        """Load a dataset whose header names columns in0,in1,...,out0,....

        Each further non-blank line holds one finite number per column.
        """
        lines = _lines(path, "dataset")
        rows = iter(lines)
        header = next(csv.reader(rows), None)
        if header is None:
            raise ConfigurationError(f"dataset file {path} is empty")
        header = [h.strip() for h in header]
        in_cols = [i for i, h in enumerate(header) if h.startswith("in")]
        out_cols = [i for i, h in enumerate(header) if h.startswith("out")]
        if not in_cols or not out_cols or len(in_cols) + len(out_cols) != len(header):
            raise ConfigurationError(
                f"dataset header must name every column in* or out*, got {header}"
            )
        try:
            table = _parse_numbers(rows)
        except ValueError:
            table = None
        if table is not None and not table.size:
            raise ConfigurationError(f"dataset file {path} has no data rows")
        if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
            raise ConfigurationError(_refused_line(path, lines, len(header)))
        return cls(inputs=table[:, in_cols], targets=table[:, out_cols])


@dataclass(frozen=True, eq=False)
class TourGraph(_ArrayValue):
    """Complete weighted graph for closed-tour problems.

    costs is a read-only float64 (n, n) array: symmetric, zero diagonal,
    strictly positive elsewhere (desirability 1/cost must be finite). Any
    square table of numbers converts.
    """

    costs: np.ndarray

    def __post_init__(self):
        n = len(self.costs)
        if n < 3:
            raise MalformedInstanceError(f"tour graph needs >= 3 nodes, got {n}")
        c = _read_only(self.costs)
        if c is None or c.shape != (n, n):
            raise MalformedInstanceError("cost matrix is not a square table of numbers")
        object.__setattr__(self, "costs", c)
        diagonal = np.eye(n, dtype=bool)
        bad = ~np.isfinite(c) | np.where(diagonal, c != 0.0, c <= 0.0) | (c != c.T)
        if not bad.any():
            return
        # the first defect in row-major order, named by its cell's first failing check
        i, j = divmod(int(bad.argmax()), n)
        value = c.item(i, j)
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

    def tour_length(self, tour: Sequence[int]) -> float:
        """Length of the closed tour visiting every node exactly once."""
        if sorted(tour) != list(range(self.n)):
            raise ConfigurationError(
                f"tour must visit all {self.n} nodes exactly once, got {list(tour)}"
            )
        ring = list(tour)
        # cumsum adds left to right, as summing the edge costs in tour order does
        return self.costs[ring, ring[1:] + ring[:1]].cumsum()[-1].item()

    @classmethod
    def from_coordinates(cls, coords: Sequence[Sequence[float]]) -> "TourGraph":
        """Euclidean instance from planar points."""
        points = np.asarray(coords, dtype=float).tolist()
        costs = np.zeros((len(points), len(points)))
        for i, p in enumerate(points):
            costs[i, i + 1 :] = [math.dist(p, q) for q in points[i + 1 :]]
        costs += costs.T  # the lower triangle is zero: the sum copies the upper one
        return cls(costs=costs)

    @classmethod
    def from_csv(cls, path: str, fmt: str = "coords", where: str = "graph") -> "TourGraph":
        """Load x,y coordinate rows or the rows of a full cost matrix.

        Each non-blank line holds one row of finite numbers. The first may
        instead be a header, a line in which no field is a number. A graph
        whose (n, n) cost array is too large is refused, named by where,
        before any row is parsed.
        """
        if fmt not in ("coords", "matrix"):
            raise ConfigurationError(f"unknown graph format {fmt!r}")
        lines = _lines(path, "graph")
        filled = [line for line in lines if line.rstrip("\r\n")]
        if not filled:
            raise ConfigurationError(f"graph file {path} is empty")
        header = all(_number(field) is None for field in next(csv.reader(filled[:1])))
        rows = filled[1:] if header else filled
        if not rows:
            raise ConfigurationError(f"graph file {path} has no data rows")
        check_size(len(rows) ** 2, where, f"{len(rows)} cities")
        width = 2 if fmt == "coords" else len(rows)
        try:
            table = _parse_numbers(rows)
        except ValueError:
            table = None
        if table is None or table.shape[1] != width or not np.isfinite(table).all():
            raise ConfigurationError(_refused_line(path, lines, width, skip_header=header))
        build = cls.from_coordinates if fmt == "coords" else cls
        try:
            return build(table)
        except MalformedInstanceError as exc:
            raise MalformedInstanceError(f"graph file {path}: {exc}") from None


@dataclass(frozen=True)
class Objective:
    """Box-bounded real function to be minimized.

    fn maps an (m, dimension) array of points, one per row, to an (m,)
    array of their values, so a whole swarm is evaluated in one call;
    calling the objective on one point is a thin wrapper around it. The
    callable is excluded from equality; two objectives compare equal
    when name, dimension, and box agree.
    """

    name: str
    dimension: int
    lower: float
    upper: float
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError(f"must be >= 1, got {self.dimension}", key="dimension")
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"must have lower < upper, got [{self.lower}, {self.upper}]", key="bounds"
            )

    def __call__(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)[None])[0])


# The named objectives leave overflow to the caller: pso.evaluate checks their
# values for finiteness and names the particle, so numpy need not warn first.
def _sphere(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(x * x, axis=-1)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    head, tail = x[..., :-1], x[..., 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def _rastrigin(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x), axis=-1)


_NAMED_OBJECTIVES: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float, float]] = {
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
        raise ConfigurationError(f"unknown {name!r} (known: {known})", key="objective")
    if name == "rosenbrock" and dimension < 2:  # it sums over neighbouring pairs
        raise ConfigurationError(f"must be >= 2 for rosenbrock, got {dimension}", key="dimension")
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
            raise ConfigurationError(f"must be >= 3, got {len(self.cells)}", key="width")
        if any(c not in (0, 1) for c in self.cells):
            raise ConfigurationError("tape cells must all be 0 or 1")
        if self.boundary not in BOUNDARIES:
            raise ConfigurationError(
                f"expected one of {list(BOUNDARIES)}, got {self.boundary!r}", key="boundary"
            )

    def __len__(self) -> int:
        return len(self.cells)

    # the boundary defaults below are the field's: the class body reads its value
    @classmethod
    def single_one(cls, width: int, boundary: str = boundary) -> "Tape":
        """All zeros except a single 1 at the center cell."""
        if width < 3:  # the check in __post_init__ would see a negative width as 0
            raise ConfigurationError(f"must be >= 3, got {width}", key="width")
        cells = [0] * width
        cells[width // 2] = 1
        return cls(cells=tuple(cells), boundary=boundary)

    @classmethod
    def from_cells(cls, cells: Sequence[int], boundary: str = boundary) -> "Tape":
        """A tape of cells equal to 0 or 1, stored as ints; any other cell is
        passed on as it is, for the check to reject."""
        return cls(cells=tuple(int(c) if c in (0, 1) else c for c in cells), boundary=boundary)

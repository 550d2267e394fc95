"""Ant-colony optimization on closed-tour problems.

Nodes are locations and edges are trails. A network holds one or more
colonies over one graph, each with its own params, and every array of
the network has a leading colony axis. The adjustable state is one
(colonies, n, n) pheromone array, symmetric per colony; each trail's
fixed desirability is the reciprocal of its cost. Ants prefer trails by
pheromone**alpha * desirability**beta (``choice_info``), computed once
per iteration. The fast scale sends all ants of all colonies on one
complete tour in lockstep: each step picks every ant's next location
from a running sum over the locations it has not visited. A walk with
more than WALKERS_PER_LOCATION walkers per location keeps its sums
locations-major, one vector add per location; a smaller one sums each
walker's row with cumsum. Both add left to right, so their bits agree.
Every ant's start and uniforms come from one block of raw words per
stream per fast step (rng.draw_walks), bit for bit the per-ant scalar
draws. The slow scale evaporates and deposits pheromone, optionally
after a local-search demon (2-opt) improves each colony's shortest
tour of the iteration. The tours stay on the network as arrays; the
(path, length) pairs that construct_solutions returns are a read-only
view over a copy of them, made into Python lists only when read.

build_aco_network builds a network of one colony; AcoArchitecture.lockstep
stacks the colonies of several into a new network, as in the matrix form
of Ant System (Dorigo & Stuetzle 2004, ch. 3) extended from ants to
colonies. A network runs on one stream or on a StreamGroup: its colonies
come stream by stream, as many for each, and each stream's colonies walk
on that stream's draws. Colonies stacked from one position of their
stream thus make, together, the very draws each would make alone.

Powers use np.float_power, whose float64 loop calls the C library's
pow, as Python's scalar ``**`` does; np.power rounds differently from
both on some builds. A stack whose every alpha is 1.0 skips its
pheromone power, as t**1.0 is t: the exact result is a double, and pow
errs by less than an ulp. Sums, products and maxima are correctly
rounded IEEE operations, so the array forms, 2-opt's block scan among
them, give the same bits as a scalar walk and the plain 2-opt loop.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import ComputingNetwork, check_fields, rule
from .errors import DeadEndError, MalformedInstanceError, NumericDivergenceError
from .problems import TourGraph, check_size, pair_indices
from .rng import RngStream, StreamGroup, draw_walks

# Construction restarts allowed per ant per iteration before giving up.
MAX_RESTARTS = 10

DEMON_CHOICES = ("off", "two-opt")

# Doubles a colony stack may hold in one of its (colonies, n, n) arrays or
# (colonies * ants, n) walk arrays: 16 MB each.
STACK_DOUBLES = 1 << 21

# Doubles one colony may hold in one of its (ants, n) walk arrays: 32 MB.
WALK_DOUBLES = 1 << 22

# 2-opt scans this many rows at once after a reversal, and doubles it
# up to the second while nothing improves.
SCAN_ROWS = (8, 32)

# A walk with more walkers than this per location sums locations-major
# (next_locations' axis 0): there n - 1 adds of one location's column beat
# cumsum along many short rows. Measured on 5 to 50 locations: the two
# layouts tie between about 9 and 16 walkers per location; CHANGES.md.
WALKERS_PER_LOCATION = 16


@dataclass
class AcoParams:
    """Colony parameters; defaults follow common Ant System practice."""

    alpha: float = field(default=1.0, metadata=rule(low=0))
    beta: float = field(default=2.0, metadata=rule(low=0))
    evaporation: float = field(default=0.1, metadata=rule(low=0, high=1))
    deposit: float = field(default=1.0, metadata=rule(low=0, strict=True))
    ants: int = field(default=10, metadata=rule(low=1))
    initial_pheromone: float = field(default=1.0, metadata=rule(low=0, strict=True))
    min_pheromone: float = field(default=1e-9, metadata=rule(low=0, strict=True))
    demon: str = field(default="off", metadata=rule(choices=DEMON_CHOICES))

    __post_init__ = check_fields


def check_walk_size(ants: int, n: int, where: str) -> None:
    """Refuse a colony whose (ants, n) walk arrays would exceed WALK_DOUBLES."""
    check_size(ants * n, where, f"{ants} ants on {n} locations", WALK_DOUBLES)


class Tours(NamedTuple):
    """One iteration's walks as arrays: paths (walkers, n) and lengths (walkers,)."""

    paths: np.ndarray
    lengths: np.ndarray


class Solutions(Sequence):
    """One iteration's walks as (path, length) pairs, made only when read.

    Holds a copy of the walk's Tours, as the slow step may rewrite the
    network's in place. Iterating makes every pair from two bulk tolist
    calls; indexing makes one (list[int], float) pair.
    """

    def __init__(self, tours: Tours):
        self._paths, self._lengths = tours.paths.copy(), tours.lengths.copy()

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, k: int) -> tuple[list[int], float]:
        return self._paths[k].tolist(), float(self._lengths[k])

    def __iter__(self):
        return zip(self._paths.tolist(), self._lengths.tolist())


@lru_cache(maxsize=8)
def _two_opt_pairs(n: int) -> np.ndarray:
    """visits[i, j]: whether the plain 2-opt loop over an n-tour tries
    reversing positions i + 1..j; it skips the whole tour, whose reversal
    changes nothing. Cached and read-only."""
    visits = np.triu(np.ones((max(n - 2, 0), n), dtype=bool), 2)
    visits[:1, n - 1] = False
    visits.flags.writeable = False
    return visits


class AcoArchitecture(ComputingNetwork):
    """Colonies over one graph: fast = construct tours, slow = pheromone update.

    colonies[k] is colony k's params, and every colony sends as many
    ants. walked holds one iteration's tours, colony by colony, and best
    each colony's best tour so far, row k for colony k.
    """

    kind = "aco"
    allow_hyperedges = False
    directed = False

    def __init__(self, graph: TourGraph, colonies: Sequence[AcoParams]):
        self.problem = graph
        self.colonies = tuple(colonies)
        self.walked: Tours | None = None  # as construct_solutions last left it
        self.best: Tours | None = None  # built by the first walk

    @cached_property
    def pheromone(self) -> np.ndarray:
        """pheromone[k, i, j] == pheromone[k, j, i] is colony k's trail (i, j);
        the diagonals are unused. Built on first use."""
        n = self.problem.n
        initial = np.array([c.initial_pheromone for c in self.colonies], dtype=float)
        return np.repeat(initial, n * n).reshape(-1, n, n)

    @cached_property
    def _eta_beta(self) -> np.ndarray:
        """desirability**beta per trail (i < j), in edge-id order, one row per colony."""
        eta = 1.0 / self.problem.costs[pair_indices(self.problem.n)]
        return np.float_power(eta, np.array([[c.beta] for c in self.colonies]))

    @cached_property
    def _alphas(self) -> np.ndarray | None:
        """Each colony's alpha, shaped (colonies, 1); None when every alpha is
        1.0, as t**1.0 is t (module docstring)."""
        if all(c.alpha == 1.0 for c in self.colonies):
            return None
        return np.array([[c.alpha] for c in self.colonies])

    @cached_property
    def _slow_params(self) -> np.ndarray:
        """Evaporation rate, pheromone floor and deposit amount of each colony,
        shaped (3, colonies, 1, 1)."""
        return np.array(
            [(c.evaporation, c.min_pheromone, c.deposit) for c in self.colonies]
        ).T[:, :, None, None]

    @property
    def pheromone_floor(self) -> np.ndarray:
        return self._slow_params[1]

    @cached_property
    def _two_opt(self) -> np.ndarray:
        """The colonies whose demon is two-opt."""
        return np.array([k for k, c in enumerate(self.colonies) if c.demon == "two-opt"], dtype=np.intp)

    def choice_info(self) -> np.ndarray:
        """Each colony's pheromone**alpha * desirability**beta per trail, with its
        own alpha and beta: (colonies, n, n), symmetric, zero diagonals."""
        tau = self.pheromone
        rows, cols = pair_indices(tau.shape[-1])
        powered = tau[:, rows, cols]
        if self._alphas is not None:
            powered = np.float_power(powered, self._alphas)
        out = np.zeros(tau.shape)
        out[:, rows, cols] = powered * self._eta_beta
        return out + out.swapaxes(1, 2)

    @classmethod
    def lockstep(cls, nets: Sequence[AcoArchitecture]) -> AcoArchitecture | None:
        """A new network stacking every colony of nets, in order, or None unless
        each is a plain colony network over an equal graph with as many ants; one
        with slow replaced on the instance is refused, as the stack would skip
        it. Each colony starts from its network's pheromone if that was built,
        and with no best tour; the networks themselves are left as they were."""
        first = nets[0]
        for net in nets:
            if (
                type(net) is not cls
                or "slow" in vars(net)
                or net.colonies[0].ants != first.colonies[0].ants
                or (net.problem is not first.problem and net.problem != first.problem)
            ):
                return None
        stack = cls(first.problem, [c for net in nets for c in net.colonies])
        start = 0
        for net in nets:
            end = start + len(net.colonies)
            if "pheromone" in vars(net):  # built, and perhaps changed, before stacking
                stack.pheromone[start:end] = net.pheromone
            start = end
        return stack

    def lockstep_limit(self) -> int:
        """The most colonies like this one that one stack may hold."""
        n = self.problem.n
        return max(1, STACK_DOUBLES // (n * (n + self.colonies[0].ants)))

    def substrate(self) -> tuple[int, np.ndarray]:
        """One node per location and one undirected edge (i < j) per trail, in edge-id order."""
        n = self.problem.n
        return n, np.stack(pair_indices(n), axis=1)

    def _shortest(self, colonies: np.ndarray) -> np.ndarray:
        """The walked row of the first shortest tour of each of colonies."""
        each = self.colonies[0].ants
        return colonies * each + self.walked.lengths.reshape(-1, each)[colonies].argmin(axis=1)

    def _offer(self, colonies: np.ndarray, rows: np.ndarray) -> None:
        """Make walked row rows[i] colony colonies[i]'s best tour where it is shorter."""
        paths, lengths = self.walked
        if self.best is None:
            count = len(self.colonies)
            self.best = Tours(np.empty((count, paths.shape[1]), dtype=np.intp), np.full(count, np.inf))
        better = lengths[rows] < self.best.lengths[colonies]
        colonies, rows = colonies[better], rows[better]
        self.best.paths[colonies] = paths[rows]
        self.best.lengths[colonies] = lengths[rows]

    def fast(self, rng: RngStream | StreamGroup) -> None:
        construct_solutions(self, rng)
        every = np.arange(len(self.colonies))
        self._offer(every, self._shortest(every))

    def readout(self) -> list[float]:
        """The best tour of a lone colony; [] before its first walk, and always
        for several colonies, each of which holds its own."""
        if self.best is None or len(self.colonies) > 1:
            return []
        return self.best.paths[0].astype(float).tolist()

    def slow(self, rng: RngStream | StreamGroup) -> None:
        """Evaporate, 2-opt each two-opt colony's first shortest tour in walked,
        in place, and deposit, for all colonies at once; draws nothing."""
        rates, _, amounts = self._slow_params
        evaporate(self, rates)
        two_opt = self._two_opt
        if two_opt.size:
            paths, lengths = self.walked
            rows = self._shortest(two_opt)
            for row in rows.tolist():
                improved = demon_local_search(paths[row].tolist(), self.problem)
                paths[row], lengths[row] = improved, self.problem.tour_length(improved)
            self._offer(two_opt, rows)
        deposit(self, self.walked, amounts.ravel())

    def best_values(self) -> list[float | None]:
        """Each colony's best tour length, in colony order; None before its first walk."""
        if self.best is None:
            return [None] * len(self.colonies)
        return self.best.lengths.tolist()

    def best_value(self) -> float | None:
        """The shortest tour over the colonies, None before any walk."""
        return None if self.best is None else min(self.best.lengths.tolist())

    def parameters(self) -> dict[str, float]:
        """A lone colony's params; {} for several colonies, each of which holds its own."""
        if len(self.colonies) > 1:
            return {}
        p = self.colonies[0]
        return {
            "alpha": float(p.alpha),
            "beta": float(p.beta),
            "evaporation": float(p.evaporation),
            "deposit": float(p.deposit),
            "ants": float(p.ants),
            "initial_pheromone": float(p.initial_pheromone),
            "min_pheromone": float(p.min_pheromone),
            "demon": 1.0 if p.demon == "two-opt" else 0.0,
        }


def _running_sums(values: np.ndarray, axis: int) -> np.ndarray:
    """The running sums of the 2-d values along axis, in place, each added
    left to right as cumsum adds them; along axis 0 one add per row."""
    if axis:
        return np.cumsum(values, axis=1, out=values)
    for j in range(1, len(values)):
        np.add(values[j - 1], values[j], out=values[j])
    return values


def next_locations(
    weights: np.ndarray, keep: np.ndarray, uniforms: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep move: each walker's next location and whether it dead-ended.

    Locations lie along axis of weights and keep: walker k's are row k
    with axis 1, column k with axis 0. keep is 1.0 at the locations a
    walker has not visited and 0.0 at the others. Walker k samples an
    unvisited location with probability proportional to its weight: the
    first whose running sum exceeds total * u, or the last unvisited one
    when rounding puts the threshold at the total. A walker whose
    unvisited weights sum to zero dead-ends (it still gets that last
    unvisited location, so the walk stays well formed). The weights must
    be finite and nonnegative, and are overwritten with the running sums.
    """
    # finite weights times 1.0 or 0.0: the bits of np.where(visited, 0.0, w)
    sums = _running_sums(np.multiply(weights, keep, out=weights), axis)
    if axis:
        total = sums[:, -1]
        threshold = total * uniforms
        chosen = (sums > threshold[:, None]).argmax(axis=1)
    else:
        total = sums[-1]
        threshold = total * uniforms
        # the sums never fall: the first above the threshold follows all that are not
        chosen = np.add.reduce(sums <= threshold, axis=0, dtype=np.intp)
    short = threshold >= total
    if not np.count_nonzero(short):
        return chosen, short
    unvisited = np.moveaxis(keep, axis, 1)[short] != 0.0
    chosen[short] = unvisited.shape[1] - 1 - unvisited[:, ::-1].argmax(axis=1)
    return chosen, total <= 0.0


def _successors(tours: np.ndarray, axis: int = 1) -> np.ndarray:
    """Each tour's next location after every position, closing the loop; a
    tour's positions lie along axis."""
    if axis == 0:
        return np.concatenate((tours[1:], tours[:1]))
    return np.concatenate((tours[:, 1:], tours[:, :1]), axis=1)


def _walk(
    choice: np.ndarray, cost: np.ndarray, starts: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every ant of every colony from its start: (tours, lengths, dead-ended).

    choice is (colonies, n, n). starts is (ants,) from one stream or
    (streams, ants) from a StreamGroup, and uniforms is (..., ants, n - 1)
    alike. The colonies come stream by stream, as many for each, and
    every colony's ants take their stream's starts and uniforms. Rows
    come colony by colony.
    """
    colonies, n = choice.shape[:2]
    # row c * n + i of the flattened weights is location i of colony c; a
    # lone colony's rows need no offset, which saves an addition per move
    weights = choice.reshape(-1, n)
    ants = starts.shape[-1]
    starts, uniforms = starts.reshape(-1, ants), uniforms.reshape(-1, ants, n - 1)
    offsets = None
    if colonies > 1:
        offsets = np.repeat(np.arange(0, colonies * n, n), ants)
        each = colonies // len(starts)
        starts, uniforms = np.repeat(starts, each, axis=0), np.repeat(uniforms, each, axis=0)
    starts, uniforms = starts.reshape(-1), uniforms.reshape(-1, n - 1)
    walkers = len(starts)
    # next_locations' axis: the walk's arrays are (n, walkers) locations-major
    if walkers > WALKERS_PER_LOCATION * n:
        axis, shape, weights = 0, (n, walkers), np.ascontiguousarray(weights.T)
    else:
        axis, shape = 1, (walkers, n)
    sums, keep, tours = np.empty(shape), np.ones(shape), np.empty(shape, dtype=np.intp)
    # steps[j] is every walker's location after j moves; visits[i] their keep at i
    steps, visits = np.moveaxis(tours, axis, 0), np.moveaxis(keep, axis, 0)
    every = np.arange(walkers)
    steps[0] = here = starts
    visits[here, every] = 0.0
    dead = np.zeros(walkers, dtype=bool)
    for move, u in enumerate(uniforms.T, start=1):
        # every index is in range: clip only spares take its buffered copy
        weights.take(here if offsets is None else offsets + here, axis=1 - axis, out=sums, mode="clip")
        here, stuck = next_locations(sums, keep, u, axis)
        dead |= stuck
        visits[here, every] = 0.0
        steps[move] = here
    # each tour's edge costs, summed left to right as a scalar walk adds them
    edges = cost.take(tours * n + _successors(tours, axis))
    lengths = np.take(_running_sums(edges, axis), -1, axis=axis)
    return np.ascontiguousarray(steps.T), lengths, dead


def construct_solutions(
    net: AcoArchitecture, rng: RngStream | StreamGroup
) -> Solutions:
    """Send every ant on one complete closed tour, all ants in lockstep.

    Each ant draws its start, then one uniform per move, in ant order
    (draw_walks makes them from one block of raw words per stream). On a
    complete graph a walk dead-ends only when every remaining weight
    underflows to zero; such ants are re-walked from their start with
    fresh uniforms, at most MAX_RESTARTS times.

    The ants of every colony walk at once, and the solutions come colony
    by colony. From a StreamGroup every draw has one row per stream, the
    colonies come stream by stream, and each colony's ants walk on its
    stream's draws, made in the same order as on a lone stream. A dead
    end among several colonies, or on a group, raises DeadEndError at
    once: its restart would draw for one colony alone. The tours stay
    on the architecture as arrays, in walked, which is all the run loop
    reads. The returned Solutions is a read-only view of their (path,
    length) pairs, in walk order, that makes them only when read (by
    perfbench's tracer and by tests): a step that does not read them
    builds no Python lists.
    """
    cost = net.problem.costs
    n = len(cost)
    with np.errstate(over="ignore", invalid="ignore"):
        choice = net.choice_info()
        # n nonnegative weights of at most DBL_MAX / (2n) sum to at most
        # DBL_MAX / 2 in any order; a NaN fails the comparison. Else a row's
        # last running sum is finite only if every weight and every partial
        # sum of the row is.
        if not choice.max() <= sys.float_info.max / (2 * n):
            if not np.isfinite(choice.cumsum(axis=2)[..., -1]).all():
                raise NumericDivergenceError("transition weights overflow")
    starts, uniforms = draw_walks(rng, net.colonies[0].ants, n)
    tours, lengths, dead = _walk(choice, cost, starts, uniforms)
    if (len(choice) > 1 or rng.shape) and dead.any():
        raise DeadEndError("an ant of a stacked colony found no positive trail")
    for _ in range(MAX_RESTARTS):
        if not dead.any():
            break
        again = np.flatnonzero(dead)
        redo = _walk(choice, cost, starts[again], rng.uniform(size=(len(again), n - 1)))
        tours[again], lengths[again], dead[again] = redo
    if dead.any():
        raise DeadEndError(f"an ant still found no positive trail after {MAX_RESTARTS} restarts")
    if not (lengths < float("inf")).all():
        raise NumericDivergenceError("a tour length diverged")
    net.walked = Tours(tours, lengths)
    return Solutions(net.walked)


def evaporate(net: AcoArchitecture, rate: float | np.ndarray) -> None:
    """Decay every trail, clamped to each colony's pheromone floor.

    rate is one rate for every colony, or one per colony shaped
    (colonies, 1, 1), as the slow step passes it. AcoParams' declared
    rule keeps each rate in [0, 1].
    """
    tau = net.pheromone
    np.maximum(net.pheromone_floor, (1.0 - rate) * tau, out=tau)


def deposit(net: AcoArchitecture, tours: Tours, amount: float | np.ndarray) -> None:
    """Every tour reinforces its edges by amount / tour length.

    tours is one iteration's Tours, and nothing else: the walks come
    colony by colony, as many for each. Trails shared by several tours
    take their shares in walk order, one addition at a time, as a loop
    over the walks would. amount is one value for every colony, or one
    per colony. A share or a trail that overflows raises
    NumericDivergenceError; the pheromone is then left as the additions
    made it, and the run stops there.
    """
    here, lengths = tours
    short = lengths[lengths <= 0.0].tolist()
    if short:
        raise MalformedInstanceError(f"tour length must be positive to deposit, got {short[0]}")
    tau = net.pheromone
    after = _successors(here)
    n = here.shape[1]
    per_colony = len(here) * n * n // tau.size
    # both directions of every tour edge, solution by solution, as indices
    # into the flattened pheromone (C-contiguous wherever it is made, so
    # reshape gives a view); add.at adds repeated indices in order, and
    # one tour never repeats an index
    base = np.arange(0, tau.size, n * n).repeat(per_colony)[:, None]
    index = np.concatenate([base + here * n + after, base + after * n + here], axis=1)
    with np.errstate(over="ignore"):
        shares = np.repeat(amount, per_colony) / lengths
        np.add.at(tau.reshape(-1), index.ravel(), shares.repeat(2 * n))
    # an infinite share makes its trails infinite too; finite trails keep
    # every later transition weight finite
    if not np.isfinite(tau).all():
        raise NumericDivergenceError("pheromone overflows")


def demon_local_search(path: Sequence[int], graph: TourGraph) -> list[int]:
    """2-opt: reverse segments while any reversal shortens the closed tour.

    First improvement, in the order of the plain double loop over (i, j):
    a pass applies the first improving (i, j) in row-major order and goes
    on from (i, j + 1) on the updated tour. The gains of a block of rows
    are computed at once, and its first hit among the pairs the loop
    visits is the loop's next reversal, as the tour does not change
    between reversals. A block that finds nothing is followed by one
    twice as tall, up to SCAN_ROWS[1] rows; after a reversal the next
    starts at its row, SCAN_ROWS[0] rows tall. Each gain is the loop's
    (cost(a, c) + cost(b, d)) - cost(a, b) - cost(c, d), elementwise in
    the same order, so every comparison has the same bits.
    """
    cost = graph.costs
    n = len(path)
    # ring[n] repeats ring[0]; no reversal touches either end
    ring = np.array([*path, path[0]], dtype=np.intp)
    edge = cost[ring[:-1], ring[1:]]  # edge[k]: cost of ring[k] -> ring[k + 1]
    visits = _two_opt_pairs(n)
    improved = True
    while improved:
        improved = False
        # the block starts at row i, whose columns up to after are done
        i, after, rows = 0, -1, SCAN_ROWS[0]
        while i < n - 2:
            end = min(i + rows, n - 2)
            # near[r, c] is the cost of ring[i + r] -> ring[c]; one gather
            # serves both (a, c) and (b, d)
            near = cost.take(ring[i : end + 1], axis=0).take(ring, axis=1)
            delta = near[:-1, :-1] + near[1:, 1:]
            delta -= edge[i:end, None]
            delta -= edge
            hits = (delta < -1e-12).ravel()
            hits &= visits[i:end].ravel()
            hits[: after + 1] = False
            k = hits.argmax()
            if not hits[k]:
                i, after, rows = end, -1, min(2 * rows, SCAN_ROWS[1])
                continue
            r, j = divmod(int(k), n)
            i += r
            ring[i + 1 : j + 1] = ring[j:i:-1].copy()
            edge[i : j + 1] = cost[ring[i : j + 1], ring[i + 1 : j + 2]]
            improved = True
            after, rows = j, SCAN_ROWS[0]
    return ring[:n].tolist()


def build_aco_network(graph: TourGraph, params: AcoParams | None = None) -> AcoArchitecture:
    """One colony's complete trail network; the pheromone lives on the
    network, and nodes and edges are derived from the graph only when read."""
    return AcoArchitecture(graph, (params or AcoParams(),))

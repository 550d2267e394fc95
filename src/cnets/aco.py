"""Ant-colony optimization on closed-tour problems.

Nodes are locations and edges are trails. The colony's adjustable state
is one symmetric n x n pheromone array on the architecture; each trail's
fixed desirability is the reciprocal of its cost. Ants prefer trails by
pheromone**alpha * desirability**beta (``choice_info``), computed once
per iteration. The fast scale sends all ants on one complete tour in
lockstep: each step picks every ant's next location from a row-wise
cumulative sum over the locations it has not visited. Every ant's start
and uniforms come from one block of raw words per stream per fast step
(rng.draw_walks), bit for bit the per-ant scalar draws. The slow scale
evaporates and deposits pheromone, optionally after a local-search
demon (2-opt) improves the iteration's best tour.

Colonies over one graph can also run stacked (ColonyStack): the walk,
evaporation and deposit take a leading colony axis, as in the matrix
form of Ant System (Dorigo & Stuetzle 2004, ch. 3) extended from ants
to colonies. The stack's colonies come stream by stream, and each
stream's colonies share that stream's draws. A lone colony settles and
updates through the stack's own helpers, as a stack of one.

Powers use Python's scalar ``**``: numpy's vectorised power rounds
differently from it on some builds. Sums, products and maxima are exact
IEEE operations, so the array forms give the same bits as a scalar walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import ComputingNetwork
from .errors import (
    ConfigurationError,
    DeadEndError,
    MalformedInstanceError,
    NumericDivergenceError,
)
from .problems import TourGraph
from .rng import RngStream, StreamGroup, draw_walks

# Construction restarts allowed per ant per iteration before giving up.
MAX_RESTARTS = 10

DEMON_CHOICES = ("off", "two-opt")

# Doubles a colony stack may hold in one of its (colonies, n, n) arrays or
# (colonies * ants, n) walk arrays: 16 MB each.
STACK_DOUBLES = 1 << 21


@dataclass
class AcoParams:
    """Colony parameters; defaults follow common Ant System practice."""

    alpha: float = 1.0
    beta: float = 2.0
    evaporation: float = 0.1
    deposit: float = 1.0
    ants: int = 10
    initial_pheromone: float = 1.0
    min_pheromone: float = 1e-9
    demon: str = "off"

    def __post_init__(self):
        for name in ("alpha", "beta", "deposit", "initial_pheromone", "min_pheromone"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("alpha and beta must be >= 0")
        if not 0.0 <= self.evaporation <= 1.0:
            raise ConfigurationError(
                f"evaporation must be in [0, 1], got {self.evaporation}"
            )
        if self.deposit <= 0:
            raise ConfigurationError(f"deposit must be positive, got {self.deposit}")
        if self.ants < 1:
            raise ConfigurationError(f"need >= 1 ant, got {self.ants}")
        if self.initial_pheromone <= 0:
            raise ConfigurationError("initial_pheromone must be positive")
        if self.min_pheromone <= 0:
            raise ConfigurationError("min_pheromone must be positive")
        if self.demon not in DEMON_CHOICES:
            raise ConfigurationError(
                f"demon must be one of {DEMON_CHOICES}, got {self.demon!r}"
            )


class Tours(NamedTuple):
    """One iteration's walks as arrays: paths (walkers, n) and lengths (walkers,)."""

    paths: np.ndarray
    lengths: np.ndarray


@lru_cache(maxsize=8)
def _trail_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every trail (i < j), in edge-id order; cached, as numpy
    builds them slower than a small colony builds the rest of its network."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _trail_weights(
    pheromone: np.ndarray, alphas: Sequence[float], eta_beta: np.ndarray
) -> np.ndarray:
    """Each colony's pheromone**alpha * eta_beta per trail; symmetric, zero diagonal.

    pheromone is (colonies, n, n), alphas holds one exponent per colony
    and eta_beta one row of desirability**beta per colony.
    """
    rows, cols = _trail_indices(pheromone.shape[-1])
    taus = pheromone[:, rows, cols].tolist()
    powered = np.array([[tau**alpha for tau in row] for row, alpha in zip(taus, alphas)])
    out = np.zeros(pheromone.shape)
    out[:, rows, cols] = powered * eta_beta
    return out + out.swapaxes(1, 2)


class AcoArchitecture:
    """Colony behaviour: fast = construct tours, slow = pheromone update."""

    kind = "aco"
    allow_hyperedges = False
    directed = False

    def __init__(self, graph: TourGraph, params: AcoParams):
        self.problem = graph
        self.params = params
        self._eta_beta: tuple[float | None, np.ndarray | None] = (None, None)
        self.best_path_found: list[int] | None = None
        self.best_length: float | None = None
        self.walked: Tours | None = None  # as construct_solutions last left it

    @cached_property
    def pheromone(self) -> np.ndarray:
        """pheromone[i, j] == pheromone[j, i] is trail (i, j); the diagonal is
        unused. Built on first use: a colony stacked before then never builds its own."""
        n = self.problem.n
        tau = np.empty((n, n))  # empty + fill: half np.full's cost
        tau.fill(self.params.initial_pheromone)
        return tau

    @cached_property
    def desirability(self) -> list[float]:
        """1 / cost per trail, in edge-id order; built on first use."""
        return (1.0 / self.problem.costs[_trail_indices(self.problem.n)]).tolist()

    @property
    def pheromone_floor(self) -> float:
        return self.params.min_pheromone

    def choice_info(self, params: AcoParams) -> np.ndarray:
        """pheromone**alpha * desirability**beta per trail; zero diagonal."""
        if self._eta_beta[0] != params.beta:  # computed once per network
            self._eta_beta = (params.beta, np.array([eta**params.beta for eta in self.desirability]))
        return _trail_weights(self.pheromone[None], [params.alpha], self._eta_beta[1][None])[0]

    @classmethod
    def lockstep(cls, nets: Sequence[ComputingNetwork]) -> ComputingNetwork | None:
        """One network running nets' colonies as a ColonyStack, or None unless
        each is a plain colony over an equal graph with as many ants; a colony
        with slow replaced on the instance is refused, as the stack would skip it."""
        first = nets[0].arch
        for net in nets:
            arch = net.arch
            if (
                type(arch) is not cls
                or "slow" in vars(arch)
                or arch.params.ants != first.params.ants
                or (arch.problem is not first.problem and arch.problem != first.problem)
            ):
                return None
        return ComputingNetwork(arch=ColonyStack(nets))

    def lockstep_limit(self) -> int:
        """The most colonies like this one that one stack may hold."""
        n = self.problem.n
        return max(1, STACK_DOUBLES // (n * (n + self.params.ants)))

    def substrate(self) -> tuple[int, np.ndarray]:
        """One node per location and one undirected edge (i < j) per trail, in edge-id order."""
        n = self.problem.n
        return n, np.stack(_trail_indices(n), axis=1)

    def fast(self, net, rng: RngStream) -> None:
        construct_solutions(net, self.params, rng)
        _offer_shortest([self], self.walked)

    def _offer_best(self, path: list[int], length: float) -> None:
        if self.best_length is None or length < self.best_length:
            self.best_length = length
            self.best_path_found = list(path)

    def readout(self, net) -> list[float]:
        if self.best_path_found is None:
            return []
        return [float(v) for v in self.best_path_found]

    def slow(self, net, rng: RngStream) -> None:
        evaporate(net, self.params.evaporation)
        _two_opt_shortest([self], self.walked, [0] if self.params.demon == "two-opt" else [])
        deposit(net, self.walked, self.params.deposit)

    def best_value(self, net) -> float | None:
        return self.best_length

    def parameters(self, net) -> dict[str, float]:
        p = self.params
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


class ColonyStack:
    """Colonies over one graph that run in lockstep, stream by stream.

    Every colony keeps its own parameters and best tour, and its
    pheromone becomes a view of the stack's (colonies, n, n) array. The
    stack runs on one stream or on a StreamGroup: the colonies come
    stream by stream, as many for each, and a fast step walks the ants
    of all colonies at once, each colony's ants on its own stream's
    starts and uniforms. Colonies built from one position of their
    stream thus make, together, the very draws each would make alone,
    as long as no ant dead-ends: a restart would draw for one colony
    only, so construct_solutions raises instead. The slow step
    evaporates, improves each 2-opt colony's shortest tour in walked, and
    deposits for all colonies at once; it draws nothing. It never calls a
    colony's own slow step, so colonies with a slow step replaced on the
    instance are not stacked (AcoArchitecture.lockstep refuses them).
    """

    kind = "aco"
    allow_hyperedges = False
    directed = False

    def __init__(self, nets: Sequence[ComputingNetwork]):
        self.colonies: list[AcoArchitecture] = [net.arch for net in nets]
        self.problem = self.colonies[0].problem
        # the ants every colony sends; trail weights use each colony's own exponents
        self.params = self.colonies[0].params
        n = self.problem.n
        initial = np.array([colony.params.initial_pheromone for colony in self.colonies], dtype=float)
        self.pheromone = np.repeat(initial, n * n).reshape(-1, n, n)
        for colony, tau in zip(self.colonies, self.pheromone):
            if "pheromone" in vars(colony):  # built, and perhaps changed, before stacking
                tau[...] = colony.pheromone
            colony.pheromone = tau
        self._eta_beta: np.ndarray | None = None
        self.walked: Tours | None = None  # as construct_solutions last left it

    @cached_property
    def _slow_params(self) -> np.ndarray:
        """Evaporation rate, pheromone floor and deposit amount of each colony,
        shaped (3, colonies, 1, 1)."""
        return np.array(
            [(c.params.evaporation, c.params.min_pheromone, c.params.deposit) for c in self.colonies]
        ).T[:, :, None, None]

    @property
    def pheromone_floor(self) -> np.ndarray:
        return self._slow_params[1]

    @cached_property
    def _two_opt(self) -> list[int]:
        """The positions of the colonies whose demon is two-opt."""
        return [k for k, c in enumerate(self.colonies) if c.params.demon == "two-opt"]

    def choice_info(self, params: AcoParams) -> np.ndarray:
        """Every colony's choice_info, stacked; each uses its own alpha and beta."""
        colonies = self.colonies
        if self._eta_beta is None:  # computed once per stack
            eta = colonies[0].desirability
            self._eta_beta = np.array([[e**c.params.beta for e in eta] for c in colonies])
        return _trail_weights(self.pheromone, [c.params.alpha for c in colonies], self._eta_beta)

    def fast(self, net, rng: RngStream | StreamGroup) -> None:
        construct_solutions(net, self.params, rng)
        _offer_shortest(self.colonies, self.walked)

    def readout(self, net) -> list[float]:
        return []  # each colony holds its own best tour

    def slow(self, net, rng: RngStream | StreamGroup) -> None:
        rates, _, amounts = self._slow_params
        evaporate(net, rates)
        _two_opt_shortest(self.colonies, self.walked, self._two_opt)
        deposit(net, self.walked, amounts.ravel())

    def best_value(self, net) -> float | None:
        """The best tour length over the colonies, None before any tour."""
        lengths = [colony.best_length for colony in self.colonies]
        return None if None in lengths else min(lengths)

    def parameters(self, net) -> dict[str, float]:
        return {}  # each colony holds its own


def _offer_shortest(colonies: Sequence[AcoArchitecture], tours: Tours) -> None:
    """Offer each colony its first shortest tour where it beats the colony's best;
    the walks come colony by colony, as many for each."""
    paths, lengths = tours
    each = len(lengths) // len(colonies)
    rows = np.arange(0, len(lengths), each) + lengths.reshape(-1, each).argmin(axis=1)
    best = [np.inf if c.best_length is None else c.best_length for c in colonies]
    for k in np.flatnonzero(lengths[rows] < best).tolist():
        colonies[k]._offer_best(paths[rows[k]].tolist(), float(lengths[rows[k]]))


def _two_opt_shortest(
    colonies: Sequence[AcoArchitecture], tours: Tours, two_opt: Sequence[int]
) -> None:
    """2-opt, in place, the first shortest tour of each colony colonies[k], k in
    two_opt, and offer the improved tour to its colony."""
    paths, lengths = tours
    each = len(lengths) // len(colonies)
    for k in two_opt:
        colony = colonies[k]
        row = k * each + int(lengths[k * each : (k + 1) * each].argmin())
        improved = demon_local_search(paths[row].tolist(), colony.problem)
        paths[row], lengths[row] = improved, colony.problem.tour_length(improved)
        colony._offer_best(improved, float(lengths[row]))


def next_locations(
    weights: np.ndarray, visited: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep move: each row's next location and whether it dead-ended.

    Row k samples an unvisited column with probability proportional to
    weights[k]: the first column whose running sum exceeds total * u,
    or the last unvisited column when rounding puts the threshold at the
    total. A row whose unvisited weights sum to zero dead-ends (it still
    gets that last unvisited column, so the walk stays well formed).
    """
    cumulative = np.where(visited, 0.0, weights).cumsum(axis=1)
    total = cumulative[:, -1]
    threshold = total * uniforms
    chosen = (cumulative > threshold[:, None]).argmax(axis=1)
    short = threshold >= total
    if not np.count_nonzero(short):
        return chosen, short
    chosen[short] = visited.shape[1] - 1 - (~visited[short, ::-1]).argmax(axis=1)
    return chosen, total <= 0.0


def _successors(tours: np.ndarray) -> np.ndarray:
    """Each tour's next location after every position, closing the loop."""
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
    rows = np.arange(walkers)
    tours = np.empty((walkers, n), dtype=np.intp)
    tours[:, 0] = here = starts
    visited = np.zeros((walkers, n), dtype=bool)
    visited[rows, here] = True
    dead = np.zeros(walkers, dtype=bool)
    for step, u in enumerate(uniforms.T, start=1):
        here, stuck = next_locations(weights[here if offsets is None else offsets + here], visited, u)
        dead |= stuck
        visited[rows, here] = True
        tours[:, step] = here
    # cumsum adds left to right: the same sums as accumulating step by step
    lengths = cost[tours, _successors(tours)].cumsum(axis=1)[:, -1]
    return tours, lengths, dead


def construct_solutions(
    net: ComputingNetwork, params: AcoParams, rng: RngStream | StreamGroup
) -> list[tuple[list[int], float]]:
    """Send every ant on one complete closed tour, all ants in lockstep.

    Each ant draws its start, then one uniform per move, in ant order
    (draw_walks makes them from one block of raw words per stream). On a
    complete graph a walk dead-ends only when every remaining weight
    underflows to zero; such ants are re-walked from their start with
    fresh uniforms, at most MAX_RESTARTS times.

    On a ColonyStack, params.ants ants of every colony walk at once and
    the solutions come colony by colony. From a StreamGroup every draw
    has one row per stream, the stack's colonies come stream by stream,
    and each colony's ants walk on its stream's draws, made in the same
    order as on a lone stream. A dead end in a stack, or on a group,
    raises DeadEndError at once: its restart would draw for one colony
    alone. The tours also stay on the architecture as arrays, in walked,
    which is all the run loop reads: the returned (path, length) pairs
    are read only outside it, by perfbench's tracer and by tests.
    """
    arch: AcoArchitecture | ColonyStack = net.arch
    cost = arch.problem.costs
    n = len(cost)
    try:
        with np.errstate(over="raise"):
            choice = arch.choice_info(params).reshape(-1, n, n)
            # nonnegative terms: no partial sum of a row exceeds the whole row's
            choice.cumsum(axis=2)
    except (OverflowError, FloatingPointError):
        raise NumericDivergenceError("transition weights overflow") from None
    starts, uniforms = draw_walks(rng, params.ants, n)
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
    arch.walked = Tours(tours, lengths)
    return list(zip(tours.tolist(), lengths.tolist()))


def evaporate(net: ComputingNetwork, rate: float | np.ndarray) -> None:
    """Decay every trail, clamped to the architecture's pheromone floor.

    A ColonyStack passes one rate per colony, shaped (colonies, 1, 1),
    and each colony keeps its own floor.
    """
    if not np.all((0.0 <= rate) & (rate <= 1.0)):
        raise ConfigurationError(f"evaporation rate must be in [0, 1], got {rate}")
    tau = net.arch.pheromone
    np.maximum(net.arch.pheromone_floor, (1.0 - rate) * tau, out=tau)


def deposit(net: ComputingNetwork, tours: Tours, amount: float | np.ndarray) -> None:
    """Every tour reinforces its edges by amount / tour length.

    tours is one iteration's Tours, and nothing else. Trails shared by
    several tours take their shares in walk order, one addition at a
    time, as a loop over the walks would. On a ColonyStack the walks
    come colony by colony, as many for each, and amount holds one value
    per colony.
    """
    here, lengths = tours
    short = lengths[lengths <= 0.0].tolist()
    if short:
        raise MalformedInstanceError(f"tour length must be positive to deposit, got {short[0]}")
    tau = net.arch.pheromone
    after = _successors(here)
    n = here.shape[1]
    per_colony = len(here) * n * n // tau.size
    shares = np.repeat(amount, per_colony) / lengths
    # both directions of every tour edge, solution by solution, as indices
    # into the flattened pheromone (C-contiguous wherever it is made, so
    # reshape gives a view); add.at adds repeated indices in order, and
    # one tour never repeats an index
    base = np.arange(0, tau.size, n * n).repeat(per_colony)[:, None]
    index = np.concatenate([base + here * n + after, base + after * n + here], axis=1)
    np.add.at(tau.reshape(-1), index.ravel(), shares.repeat(2 * n))


def demon_local_search(path: Sequence[int], graph: TourGraph) -> list[int]:
    """2-opt: reverse segments while any reversal shortens the closed tour.

    First improvement, in the order of the plain double loop over
    (i, j): for each i the gains of every remaining j are computed at
    once, the first improving reversal is applied, and the scan goes on
    from j + 1 on the updated tour.
    """
    cost = graph.costs
    n = len(path)
    # ring[n] repeats ring[0]; no reversal touches either end
    ring = np.array([*path, path[0]], dtype=np.intp)
    edge = cost[ring[:-1], ring[1:]]  # edge[k]: cost of ring[k] -> ring[k + 1]
    improved = True
    while improved:
        improved = False
        for i in range(n - 2):
            stop = n - 1 if i == 0 else n  # reversing the whole tour changes nothing
            j = i + 2
            while j < stop:
                delta = (
                    cost[ring[i]][ring[j:stop]] + cost[ring[i + 1]][ring[j + 1 : stop + 1]]
                    - edge[i] - edge[j:stop]
                )
                k = int((delta < -1e-12).argmax())
                if not delta[k] < -1e-12:
                    break
                j += k
                ring[i + 1 : j + 1] = ring[j:i:-1].copy()
                edge[i : j + 1] = cost[ring[i : j + 1], ring[i + 1 : j + 2]]
                improved = True
                j += 1
    return ring[:n].tolist()


def build_aco_network(
    graph: TourGraph, params: AcoParams | None = None
) -> ComputingNetwork:
    """Complete trail network; the pheromone lives on the architecture, and
    nodes and edges are derived from the graph only when read."""
    return ComputingNetwork(arch=AcoArchitecture(graph, params or AcoParams()))

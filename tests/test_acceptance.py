"""Release gate: one end-to-end check per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s and in
failure output) so a log scan gives the verdict at a glance. Tolerances
and wall-clock budgets are stated inline next to each check; expensive
runs are computed once, cached at module scope, and reused both by their
own criterion and by the final determinism comparison, which re-executes
every record-producing protocol from scratch and demands byte-identical
trace files once wall-clock columns are dropped.
"""
import contextlib
import itertools
import time

import numpy as np

from instances import random_euclidean, xor_dataset
from cnets import core
from cnets.aco import AcoParams, build_aco_network
from cnets.analysis import interaction_excess, trace_from_discrete
from cnets.ann import AnnParams, batch_mse, build_ann, gradients, set_weight_vector, weight_vector
from cnets.core import ScaleSchedule, run
from cnets.cross import cross_train
from cnets.eca import build_eca_network, rule_table
from cnets.meta import MetaConfig, MetaSearch, ParamBox, evaluate_genome, meta_run
from cnets.problems import Dataset, Tape, named_objective
from cnets.pso import PsoParams, build_pso_network
from cnets.records import comparable_bytes, write_run_file
from cnets.rng import RngStream

# Rule 110 written out row by row, independently of rule_table's bit
# arithmetic, so the check cannot share a bug with the implementation.
RULE_110 = {
    (1, 1, 1): 0,
    (1, 1, 0): 1,
    (1, 0, 1): 1,
    (1, 0, 0): 0,
    (0, 1, 1): 1,
    (0, 1, 0): 1,
    (0, 0, 1): 1,
    (0, 0, 0) : 0,
}

ACO_SEEDS = tuple(range(1, 21))
DEFAULT_COLONY = {"alpha": 1.0, "beta": 2.0, "evaporation": 0.1}

GRADIENT_SHAPES = (
    (2, 2, 1),
    (3, 2, 1),
    (2, 3, 1),
    (1, 3, 1),
    (4, 2, 1),
    (2, 2, 2),
    (1, 2, 2),
    (3, 1),
    (2, 4, 1),
    (3, 3, 1),
)
GRADIENT_ACTIVATIONS = ("tanh", "logistic", "identity")


def _verdict(number: int, label: str, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} ({label}): {word} [{detail}]", flush=True)
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def _naive_rows(cells, rule_number, steps):
    """Re-derive an evolution from the rule number alone, bit by bit."""
    rows = [list(cells)]
    for _ in range(steps):
        current = rows[-1]
        nxt = []
        for i, center in enumerate(current):
            left = current[i - 1] if i > 0 else 0
            right = current[i + 1] if i + 1 < len(current) else 0
            nxt.append((rule_number >> ((left << 2) | (center << 1) | right)) & 1)
        rows.append(nxt)
    return rows


@contextlib.contextmanager
def _pheromone_audit():
    """Audit every trail after each slow step core.run takes inside the block.

    The audit wraps core.slow_step, not the colonies, so colonies still
    stack: one check covers every colony's trails in the network's
    (colonies, n, n) pheromone. Yields the negative trails found and the
    number of slow steps audited on stacks, networks of several colonies.
    """
    audit = {"violations": [], "stacked_steps": 0}
    original = core.slow_step

    def audited(net, rng):
        original(net, rng)
        pheromone = net.pheromone
        audit["violations"].extend(pheromone[pheromone < 0.0].tolist())
        audit["stacked_steps"] += len(net.colonies) > 1
        return net

    core.slow_step = audited
    try:
        yield audit
    finally:
        core.slow_step = original


def _eca_outcome():
    start = time.perf_counter()
    tape = Tape.single_one(129)
    net = build_eca_network(tape, 110)
    records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=64), RngStream(0))
    grid = [[int(v) for v in record.network_output] for record in records]
    expected = _naive_rows(tape.cells, 110, 64)
    mismatches = sum(
        got != want for g_row, e_row in zip(grid, expected) for got, want in zip(g_row, e_row)
    )
    elapsed = time.perf_counter() - start
    header = {"architecture": "eca", "rule": 110, "width": 129, "steps": 64, "seed": 0}
    return {
        "mismatches": mismatches,
        "rows": len(grid),
        "elapsed": elapsed,
        "runs": [(header, records)],
    }


def _xor_outcome():
    dataset = xor_dataset()
    start = time.perf_counter()
    rng = RngStream(1)
    net = build_ann((2, 2, 1), dataset, rng, AnnParams(learning_rate=0.5))
    records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=5000), rng)
    final = batch_mse(net, dataset)
    elapsed = time.perf_counter() - start
    header = {
        "architecture": "ann",
        "layers": [2, 2, 1],
        "learning_rate": 0.5,
        "epochs": 5000,
        "seed": 1,
    }
    return {"final_mse": final, "elapsed": elapsed, "runs": [(header, records)]}


def _tours_outcome():
    start = time.perf_counter()
    hits = 0
    violations = []
    monotone = True
    runs = []
    for seed in ACO_SEEDS:
        rng = RngStream(seed)
        graph = random_euclidean(5, rng)
        optimum = min(
            graph.tour_length((0,) + rest)
            for rest in itertools.permutations(range(1, graph.n))
        )
        net = build_aco_network(graph)
        with _pheromone_audit() as audit:
            records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=50), rng)
        violations += audit["violations"]
        values = [r.best_value for r in records[1:]]
        monotone = monotone and all(
            later <= earlier for earlier, later in zip(values, values[1:])
        )
        if abs(values[-1] - optimum) <= 1e-9:
            hits += 1
        header = {"architecture": "aco", "cities": 5, "slow_steps": 50, "seed": seed}
        runs.append((header, records))
    elapsed = time.perf_counter() - start
    return {
        "hits": hits,
        "violations": violations,
        "monotone": monotone,
        "elapsed": elapsed,
        "runs": runs,
    }


def _sphere_outcome():
    start = time.perf_counter()
    objective = named_objective("sphere", 2)
    rng = RngStream(1)
    net = build_pso_network(objective, rng, PsoParams())
    records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=200), rng)
    values = [r.best_value for r in records]
    elapsed = time.perf_counter() - start
    header = {
        "architecture": "pso",
        "objective": "sphere",
        "dimension": 2,
        "particles": 30,
        "slow_steps": 200,
        "seed": 1,
    }
    return {
        "final": values[-1],
        "monotone": all(later <= earlier for earlier, later in zip(values, values[1:])),
        "elapsed": elapsed,
        "runs": [(header, records)],
    }


def _meta_outcome():
    start = time.perf_counter()

    def rebuild(genome, rng):
        graph = random_euclidean(5, rng)
        params = AcoParams(
            alpha=genome["alpha"],
            beta=genome["beta"],
            evaporation=genome["evaporation"],
        )
        return build_aco_network(graph, params)

    config = MetaConfig(
        population_size=10,
        generations=10,
        inner_slow_steps=30,
        eval_seeds=ACO_SEEDS,
    )
    with _pheromone_audit() as audit:
        [baseline] = evaluate_genome(
            [DEFAULT_COLONY], rebuild, config.inner_slow_steps, config.eval_seeds
        )
        search = MetaSearch(
            config=config,
            boxes={
                "alpha": ParamBox(0.0, 4.0),
                "beta": ParamBox(0.0, 6.0),
                "evaporation": ParamBox(0.01, 0.99),
            },
            rebuild=rebuild,
            seed_genome=dict(DEFAULT_COLONY),
        )
        result = meta_run(search, RngStream(123))
    elapsed = time.perf_counter() - start
    header = {
        "architecture": "meta",
        "tuned": ["alpha", "beta", "evaporation"],
        "population": 10,
        "generations": 10,
        "seed": 123,
    }
    return {
        "baseline": baseline,
        "best": result.best_fitness,
        "genome": result.best_genome,
        "violations": audit["violations"],
        "stacked_steps": audit["stacked_steps"],
        "elapsed": elapsed,
        "runs": [(header, result.records)],
    }


def _cross_outcome():
    start = time.perf_counter()
    result = cross_train(xor_dataset(), (2, 2, 1), RngStream(1), iterations=300)
    elapsed = time.perf_counter() - start
    header = {"architecture": "cross", "layers": [2, 2, 1], "iterations": 300, "seed": 1}
    return {"mse": result.mse, "elapsed": elapsed, "runs": [(header, result.records)]}


_FACTORIES = {
    "eca": _eca_outcome,
    "xor": _xor_outcome,
    "tours": _tours_outcome,
    "sphere": _sphere_outcome,
    "meta": _meta_outcome,
    "cross": _cross_outcome,
}
_CACHE: dict = {}


def _outcome(name: str) -> dict:
    if name not in _CACHE:
        _CACHE[name] = _FACTORIES[name]()
    return _CACHE[name]


def test_criterion_01_rule_table_matches_reference_rows():
    start = time.perf_counter()
    table = rule_table(110)
    elapsed = time.perf_counter() - start
    matches = sum(table[key] == value for key, value in RULE_110.items())
    ok = matches == 8 and len(table) == 8 and elapsed < 1e-3
    _verdict(
        1,
        "rule 110 truth table",
        ok,
        f"{matches}/8 rows exact in {elapsed * 1e3:.3f} ms",
    )


def test_criterion_02_evolution_matches_naive_reapplication():
    eca = _outcome("eca")
    ok = eca["mismatches"] == 0 and eca["rows"] == 65 and eca["elapsed"] < 0.1
    _verdict(
        2,
        "tape evolution vs naive oracle",
        ok,
        f"{eca['mismatches']} mismatched cells over {eca['rows']} rows "
        f"in {eca['elapsed']:.3f} s",
    )


def test_criterion_03_analytic_gradients_match_finite_differences():
    h = 1e-5
    worst = 0.0
    biggest = 0
    start = time.perf_counter()
    for seed in range(1, 51):
        rng = RngStream(seed)
        shape = GRADIENT_SHAPES[seed % len(GRADIENT_SHAPES)]
        hidden = GRADIENT_ACTIVATIONS[seed % 3]
        output = GRADIENT_ACTIVATIONS[(seed + 1) % 3]
        inputs = rng.uniform(-1.0, 1.0, size=(4, shape[0]))
        targets = rng.uniform(-1.0, 1.0, size=(4, shape[-1]))
        dataset = Dataset(
            inputs=tuple(map(tuple, inputs.tolist())),
            targets=tuple(map(tuple, targets.tolist())),
        )
        net = build_ann(shape, dataset, rng, AnnParams(hidden_activation=hidden, output_activation=output))
        grad_w, grad_b, _ = gradients(net, dataset)
        analytic = np.concatenate(
            [g.reshape(-1) for g in grad_w] + [g.reshape(-1) for g in grad_b]
        )
        base = weight_vector(net)
        biggest = max(biggest, base.size)
        numeric = np.empty_like(base)
        for i in range(base.size):
            bump = np.zeros_like(base)
            bump[i] = h
            set_weight_vector(net, base + bump)
            plus = batch_mse(net, dataset)
            set_weight_vector(net, base - bump)
            minus = batch_mse(net, dataset)
            numeric[i] = (plus - minus) / (2.0 * h)
        set_weight_vector(net, base)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and biggest <= 20 and elapsed < 5.0
    _verdict(
        3,
        "analytic vs central-difference gradients",
        ok,
        f"50 nets (max {biggest} parameters), worst relative error {worst:.2e} "
        f"in {elapsed:.2f} s",
    )


def test_criterion_04_backprop_learns_xor():
    xor = _outcome("xor")
    ok = xor["final_mse"] < 0.05 and xor["elapsed"] < 5.0
    _verdict(
        4,
        "backprop on xor",
        ok,
        f"mse {xor['final_mse']:.2e} after 5000 epochs in {xor['elapsed']:.2f} s",
    )


def test_criterion_05_colony_finds_small_tour_optima():
    tours = _outcome("tours")
    ok = tours["hits"] >= 18 and tours["elapsed"] < 10.0
    _verdict(
        5,
        "colony tour optimality",
        ok,
        f"{tours['hits']}/{len(ACO_SEEDS)} seeded instances solved to the "
        f"brute-force optimum in {tours['elapsed']:.2f} s",
    )


def test_criterion_06_colony_invariants_hold_everywhere():
    tours = _outcome("tours")
    tuned = _outcome("meta")
    negatives = len(tours["violations"]) + len(tuned["violations"])
    ok = negatives == 0 and tours["monotone"]
    _verdict(
        6,
        "pheromone floor and best-tour monotonicity",
        ok,
        f"{negatives} negative trails audited across every slow step, "
        f"best tours monotone={tours['monotone']}",
    )


def test_criterion_06_audit_reaches_stacked_colonies():
    tuned = _outcome("meta")
    stacked = tuned["stacked_steps"]
    _verdict(
        6,
        "pheromone audit on stacked colonies",
        stacked > 0,
        f"{stacked} slow steps audited on whole colony stacks",
    )


def test_criterion_07_swarm_reaches_sphere_minimum():
    sphere = _outcome("sphere")
    ok = sphere["final"] < 1e-6 and sphere["monotone"] and sphere["elapsed"] < 2.0
    _verdict(
        7,
        "swarm sphere convergence",
        ok,
        f"global best {sphere['final']:.2e}, monotone={sphere['monotone']} "
        f"in {sphere['elapsed']:.2f} s",
    )


def test_criterion_08_tuned_colony_not_worse_than_defaults():
    meta = _outcome("meta")
    ok = meta["best"] <= meta["baseline"] and meta["elapsed"] < 120.0
    _verdict(
        8,
        "third-scale colony tuning",
        ok,
        f"tuned mean tour {meta['best']:.4f} vs default mean {meta['baseline']:.4f} "
        f"in {meta['elapsed']:.1f} s",
    )


def test_criterion_09_swarm_trained_network_learns_xor():
    cross = _outcome("cross")
    ok = cross["mse"] < 0.05 and cross["elapsed"] < 30.0
    _verdict(
        9,
        "swarm-trained network on xor",
        ok,
        f"mse {cross['mse']:.2e} after 300 iterations in {cross['elapsed']:.2f} s",
    )


def test_criterion_10_interaction_excess_calibration():
    start = time.perf_counter()
    lockstep = interaction_excess(trace_from_discrete([(0, 0), (1, 1)] * 8))
    rng = RngStream(99)
    rows = rng.integers(0, 4, size=(10000, 2))
    independent = interaction_excess(trace_from_discrete(rows.tolist()))
    elapsed = time.perf_counter() - start
    ok = lockstep == 1.0 and abs(independent) < 0.05 and elapsed < 5.0
    _verdict(
        10,
        "interaction excess",
        ok,
        f"lockstep pair {lockstep} bits exactly, independent pair "
        f"{independent:+.4f} bits in {elapsed:.2f} s",
    )


def test_criterion_11_seeded_reruns_are_byte_identical(tmp_path):
    same = []
    for name, factory in _FACTORIES.items():
        first = _outcome(name)
        second = factory()
        for index, (one, two) in enumerate(zip(first["runs"], second["runs"])):
            path_a = tmp_path / f"{name}-{index}-first.jsonl"
            path_b = tmp_path / f"{name}-{index}-second.jsonl"
            write_run_file(str(path_a), one[0], one[1])
            write_run_file(str(path_b), two[0], two[1])
            same.append(comparable_bytes(str(path_a)) == comparable_bytes(str(path_b)))
    ok = bool(same) and all(same)
    _verdict(
        11,
        "seeded reruns byte-identical",
        ok,
        f"{sum(same)}/{len(same)} trace files identical after dropping "
        "wall-clock columns",
    )

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from instances import random_euclidean, xor_dataset
from cnets.errors import ConfigurationError, MalformedInstanceError
from cnets.problems import (
    Dataset,
    Objective,
    Tape,
    TourGraph,
    named_objective,
)
from cnets.rng import RngStream


CELL_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    # subnormals, signed zeros and the extremes, drawn often rather than by chance
    st.sampled_from([5e-324, -1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1.7976931348623157e308]).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.builds(
        "{:.{}{}}".format,
        st.floats(min_value=-1e6, max_value=1e6),
        st.integers(0, 6),
        st.sampled_from("efgE"),
    ),
    st.from_regex(r"[+-]?([0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][+-]?[0-9]{1,3})?", fullmatch=True).filter(
        lambda text: math.isfinite(float(text))
    ),
)


@st.composite
def csv_tables(draw):
    """(in arity, rows of cell texts, whether to quote each cell)."""
    width = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(CELL_TEXTS, min_size=width, max_size=width), min_size=1, max_size=8))
    quotes = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return draw(st.integers(1, width - 1)), rows, quotes


class TestDataset:
    def test_xor_table(self):
        ds = xor_dataset()
        assert len(ds) == 4
        assert ds.input_arity == 2
        assert ds.target_arity == 1
        assert ds.targets.tolist() == [[0.0], [1.0], [1.0], [0.0]]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("in0,in1,out0\n0,1,1\n1,1,0\n")
        ds = Dataset.from_csv(str(path))
        assert ds.inputs.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert ds.targets.tolist() == [[1.0], [0.0]]

    @given(table=csv_tables())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_csv_gives_the_bits_of_float(self, tmp_path, table):
        arity, rows, quotes = table
        width = len(rows[0])
        header = [f"in{i}" for i in range(arity)] + [f"out{i}" for i in range(width - arity)]
        lines = [",".join(f'"{t}"' if q else t for t, q in zip(row, quotes)) for row in rows]
        path = tmp_path / "data.csv"
        path.write_text("\n".join([",".join(header), *lines]) + "\n")
        ds = Dataset.from_csv(str(path))
        values = np.array([[float(t) for t in row] for row in rows])
        assert ds.inputs.tobytes() == np.ascontiguousarray(values[:, :arity]).tobytes()
        assert ds.targets.tobytes() == np.ascontiguousarray(values[:, arity:]).tobytes()

    def test_csv_columns_follow_the_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("out0,in0,in1\n1,2,3\n")
        ds = Dataset.from_csv(str(path))
        assert ds.inputs.tolist() == [[2.0, 3.0]]
        assert ds.targets.tolist() == [[1.0]]

    def test_csv_header_must_partition_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("in0,mid,out0\n0,1,1\n")
        with pytest.raises(ConfigurationError):
            Dataset.from_csv(str(path))

    def test_csv_bad_number_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("in0,out0\n0,1\nx,1\n")
        with pytest.raises(ConfigurationError, match=":3"):
            Dataset.from_csv(str(path))

    @pytest.mark.parametrize(
        "line, match",
        [
            ("x,1", r":4: not a finite number: 'x'$"),
            ("1", r":4: expected 2 fields, got 1$"),
            ("1,2,3", r":4: expected 2 fields, got 3$"),
            ("1_000,1", r":4: not a finite number: '1_000'$"),
            ("nan,1", r":4: not a finite number: 'nan'$"),
            ("1,-inf", r":4: not a finite number: '-inf'$"),
            ("1e999,1", r":4: not a finite number: '1e999'$"),
        ],
    )
    def test_refused_row_names_its_file_line_after_a_blank_line(self, tmp_path, line, match):
        path = tmp_path / "data.csv"
        path.write_text(f"in0,out0\n0,1\n\n{line}\n1,1\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + match):
            Dataset.from_csv(str(path))

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_file_has_no_data_rows_and_warns_nothing(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text("in0,out0\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="has no data rows$"):
                Dataset.from_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="is empty$"):
            Dataset.from_csv(str(path))

    def test_quoted_number_loads(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('in0,out0\n"0.5",1\n')
        assert Dataset.from_csv(str(path)).inputs.tolist() == [[0.5]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=((1.0,), (1.0, 2.0)), targets=((0.0,), (0.0,)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=((1.0,),), targets=())

    @pytest.mark.parametrize(
        "inputs, targets, match",
        [
            ((), (), "non-empty table"),
            (((), ()), ((0.0,), (0.0,)), "non-empty table"),
            ((1.0, 2.0), ((0.0,), (0.0,)), "table of numbers"),
            (((1.0,), ("x",)), ((0.0,), (0.0,)), "table of numbers"),
            ((((1.0,),),), ((0.0,),), "table of numbers"),
            (((1.0,), (None,)), ((0.0,), (0.0,)), "inputs must be finite"),
            (((1.0,),), ((math.inf,),), "targets must be finite"),
        ],
    )
    def test_malformed_tables_rejected(self, inputs, targets, match):
        with pytest.raises(ConfigurationError, match=match):
            Dataset(inputs=inputs, targets=targets)

    def test_arrays_are_read_only_float64_copies(self):
        inputs = np.array([[1, 2], [3, 4]])
        ds = Dataset(inputs=inputs, targets=[[0.5], [1.5]])
        assert ds.inputs.dtype == ds.targets.dtype == np.float64
        assert ds.inputs.shape == (2, 2) and ds.targets.shape == (2, 1)
        inputs[0, 0] = 9
        assert ds.inputs.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        for matrix in (ds.inputs, ds.targets):
            with pytest.raises(ValueError):
                matrix[0, 0] = 5.0

    def test_equality_and_hash_follow_shape_and_bytes(self, tmp_path):
        path = tmp_path / "xor.csv"
        path.write_text("in0,in1,out0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        loaded, built = Dataset.from_csv(str(path)), xor_dataset()
        assert loaded == built
        assert hash(loaded) == hash(built)
        # the same bytes in other shapes make another dataset
        wide = Dataset(inputs=[[1.0, 2.0]], targets=[[0.0, 0.0]])
        tall = Dataset(inputs=[[1.0], [2.0]], targets=[[0.0], [0.0]])
        assert wide != tall


class TestTourGraph:
    def test_euclidean_distances(self):
        graph = TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        assert graph.costs.item(0, 1) == 5.0
        assert graph.costs.item(1, 2) == 5.0
        assert graph.costs.item(0, 2) == 8.0

    def test_tour_length_closes_the_cycle(self):
        graph = TourGraph.from_coordinates([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert graph.tour_length([0, 1, 2, 3]) == pytest.approx(4.0)

    def test_tour_length_rejects_partial_tours(self):
        graph = TourGraph.from_coordinates([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(ConfigurationError):
            graph.tour_length([0, 1])
        with pytest.raises(ConfigurationError):
            graph.tour_length([0, 1, 1])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 1], [1, 0]],  # too small
            [[0, 1, 2], [1, 0, 3]],  # not square
            [[0, 1, 2], [1, 0, 3], [2, 4, 0]],  # asymmetric
            [[0, 1, 2], [1, 5, 3], [2, 3, 0]],  # nonzero diagonal
            [[0, -1, 2], [-1, 0, 3], [2, 3, 0]],  # negative cost
            [[0, 0, 2], [0, 0, 3], [2, 3, 0]],  # zero off-diagonal
        ],
    )
    def test_malformed_matrices_rejected(self, matrix):
        with pytest.raises(MalformedInstanceError):
            TourGraph(matrix)

    def test_first_defect_in_row_major_order_is_reported(self):
        matrix = [[0, 1, 2, -1], [1, 5, 3, 4], [2, 3, 0, 5], [-1, 4, 5, 0]]
        # column-major order would reach cost[3][0] first
        with pytest.raises(MalformedInstanceError, match=r"^cost\[0\]\[3\] must be positive, got -1.0$"):
            TourGraph(matrix)

    @given(
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32),
        scale=st.sampled_from([1e-3, 1.0, 100.0, 1e6]),
    )
    @settings(max_examples=50, deadline=None)
    def test_coordinates_give_the_matrix_of_their_distances(self, n, seed, scale):
        points = RngStream(seed).uniform(-scale, scale, size=(n, 2)).tolist()
        distances = [[math.dist(p, q) for q in points] for p in points]
        assert TourGraph.from_coordinates(points) == TourGraph(distances)

    def test_coincident_cities_are_rejected(self):
        with pytest.raises(MalformedInstanceError, match=r"^cost\[0\]\[2\] must be positive, got 0.0$"):
            TourGraph.from_coordinates([(0, 0), (3, 4), (0, 0)])

    def test_costs_are_read_only_and_compare_by_value(self):
        graph = TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        matrix = graph.costs
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [[0.0, 5.0, 8.0], [5.0, 0.0, 5.0], [8.0, 5.0, 0.0]]
        with pytest.raises(ValueError):
            matrix[0, 1] = 1.0
        assert graph == TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        assert hash(graph) == hash(TourGraph(graph.costs))
        assert graph != TourGraph.from_coordinates([(0, 0), (3, 4), (0, 9)])

    def test_costs_are_a_copy_of_the_matrix_given(self):
        matrix = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        graph = TourGraph(matrix)
        matrix[0, 1] = 9.0
        assert graph.costs.item(0, 1) == 1.0

    @given(
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32),
        scale=st.sampled_from([1e-3, 1.0, 100.0, 1e6]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_tour_length_is_the_plain_loop_over_cost(self, n, seed, scale, data):
        graph = TourGraph.from_coordinates(RngStream(seed).uniform(-scale, scale, size=(n, 2)))
        tour = data.draw(st.permutations(range(n)))
        total = 0.0
        for k, node in enumerate(tour):
            cost = graph.costs.item(node, tour[(k + 1) % n])
            assert type(cost) is float  # not numpy's float64, whose ** differs from Python's
            total += cost
        length = graph.tour_length(tour)
        assert type(length) is float
        assert length.hex() == total.hex()

    def test_random_instances_are_reproducible(self):
        a = random_euclidean(5, RngStream(1))
        b = random_euclidean(5, RngStream(1))
        assert a == b

    def test_csv_coords(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("x,y\n0,0\n3,4\n")
        with pytest.raises(MalformedInstanceError):
            TourGraph.from_csv(str(path))  # only 2 nodes
        path.write_text("x,y\n0,0\n3,4\n6,0\n")
        graph = TourGraph.from_csv(str(path))
        assert graph.n == 3
        assert graph.costs.item(0, 1) == 5.0

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2,3\n2,0,4\n3,4,0\n")
        graph = TourGraph.from_csv(str(path), fmt="matrix")
        assert graph.costs.item(1, 2) == 4.0

    @pytest.mark.parametrize("header", ["", "x,y\n", "\n\"x\",\"y\"\n"], ids=["none", "plain", "quoted"])
    def test_csv_coords_load_the_bits_of_from_coordinates(self, tmp_path, header):
        path = tmp_path / "cities.csv"
        points = [(0.1, 0.7), (3.0, -4.25), (1e-3, 6.02e23), (2.5, 0.3333333333333333)]
        path.write_text(header + "".join(f"{x!r},{y!r}\n\n" for x, y in points))
        assert TourGraph.from_csv(str(path)) == TourGraph.from_coordinates(points)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("10,nan", r":4: not a finite number: 'nan'$"),
            ("10", r":4: expected 2 fields, got 1$"),
            ("1_0,0", r":4: not a finite number: '1_0'$"),
            ("x,0", r":4: not a finite number: 'x'$"),
            ("1e999,0", r":4: not a finite number: '1e999'$"),
        ],
    )
    def test_refused_city_names_its_file_line(self, tmp_path, line, match):
        path = tmp_path / "cities.csv"
        path.write_text(f"x,y\n0,0\n\n{line}\n10,10\n0,10\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + match):
            TourGraph.from_csv(str(path))

    def test_a_first_line_with_a_number_is_data(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("1_0,0\n10,10\n0,10\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + r":1: not a finite"):
            TourGraph.from_csv(str(path))

    def test_refused_matrix_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2,3\n2,0\n3,4,0\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + r":2: expected 3 fields, got 2$"):
            TourGraph.from_csv(str(path), fmt="matrix")
        path.write_text("0,2,3,1\n2,0,4,1\n3,4,0,1\n")
        with pytest.raises(ConfigurationError, match=re.escape(str(path)) + r":1: expected 3 fields, got 4$"):
            TourGraph.from_csv(str(path), fmt="matrix")

    def test_instance_error_names_the_graph_file(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("x,y\n0,0\n10,0\n10,10\n0,0\n")
        expected = f"graph file {path}: cost[0][3] must be positive, got 0.0"
        with pytest.raises(MalformedInstanceError, match=f"^{re.escape(expected)}$"):
            TourGraph.from_csv(str(path))

    @pytest.mark.parametrize("text, match", [("", "is empty$"), ("\nx,y\n\n", "has no data rows$")])
    def test_graph_file_without_rows_rejected(self, tmp_path, text, match):
        path = tmp_path / "cities.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=match):
                TourGraph.from_csv(str(path))

    def test_unknown_graph_format_rejected(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("0,0\n1,0\n0,1\n")
        with pytest.raises(ConfigurationError, match="unknown graph format 'polar'"):
            TourGraph.from_csv(str(path), fmt="polar")


class TestObjective:
    def test_sphere_value(self):
        obj = named_objective("sphere", 2)
        assert obj([1.0, 2.0]) == 5.0

    def test_sphere_default_box(self):
        obj = named_objective("sphere", 3)
        assert (obj.lower, obj.upper) == (-5.12, 5.12)

    def test_rosenbrock_minimum(self):
        obj = named_objective("rosenbrock", 4)
        assert obj([1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_rastrigin_minimum(self):
        obj = named_objective("rastrigin", 3)
        assert obj([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            named_objective("hill", 2)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            named_objective("sphere", 0)

    def test_equality_ignores_the_callable(self):
        a = named_objective("sphere", 2)
        b = Objective(
            name="sphere", dimension=2, lower=-5.12, upper=5.12, fn=lambda x: np.zeros(len(x))
        )
        assert a == b

    def test_fn_evaluates_one_point_per_row(self):
        obj = named_objective("sphere", 2)
        assert obj.fn(np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 0.0]])).tolist() == [5.0, 9.0, 0.0]

    @given(
        # rosenbrock needs two dimensions; the others take one
        case=st.sampled_from(["sphere", "rosenbrock", "rastrigin"]).flatmap(
            lambda name: st.tuples(st.just(name), st.integers(1 + (name == "rosenbrock"), 299))
        ),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_give_the_bits_of_the_one_point_forms(self, case, rows, seed):
        name, dimension = case

        def one_point(x):
            if name == "sphere":
                return float(np.sum(x * x))
            if name == "rosenbrock":
                return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
            return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))

        obj = named_objective(name, dimension)
        points = RngStream(seed).uniform(obj.lower, obj.upper, size=(rows, dimension))
        assert obj.fn(points).tolist() == [one_point(x) for x in points]

    def test_custom_bounds(self):
        obj = named_objective("sphere", 2, bounds=(-1.0, 1.0))
        assert (obj.lower, obj.upper) == (-1.0, 1.0)


class TestTape:
    def test_single_one_is_centered(self):
        tape = Tape.single_one(7)
        assert tape.cells == (0, 0, 0, 1, 0, 0, 0)

    def test_cells_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            Tape.from_cells([0, 1, 2])

    @pytest.mark.parametrize("cells", [[0.5, 1, 0.9], [0, 1, 1.5], [0, True, "1"], [0, 1, -1]])
    def test_cells_are_never_truncated(self, cells):
        with pytest.raises(ConfigurationError, match="0 or 1"):
            Tape.from_cells(cells)

    def test_cells_equal_to_0_or_1_become_ints(self):
        tape = Tape.from_cells([1.0, 0, True, np.uint8(0)])
        assert tape.cells == (1, 0, 1, 0) and all(type(c) is int for c in tape.cells)

    def test_minimum_width(self):
        with pytest.raises(ConfigurationError):
            Tape.from_cells([0, 1])

    def test_boundary_validated(self):
        with pytest.raises(ConfigurationError):
            Tape.from_cells([0, 1, 0], boundary="mirror")

    @given(st.integers(min_value=3, max_value=99))
    def test_single_one_has_exactly_one_live_cell(self, width):
        tape = Tape.single_one(width)
        assert sum(tape.cells) == 1
        assert tape.cells[width // 2] == 1


def test_sphere_is_nonnegative_everywhere():
    obj = named_objective("sphere", 3)
    rng = RngStream(8)
    for _ in range(50):
        assert obj(rng.uniform(-5, 5, size=3)) >= 0.0


def test_euclidean_graph_satisfies_triangle_inequality():
    graph = random_euclidean(6, RngStream(2))
    n = graph.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    assert graph.costs.item(i, j) <= graph.costs.item(i, k) + graph.costs.item(k, j) + 1e-9

import math

import pytest
from hypothesis import given, strategies as st

from cnets.errors import ConfigurationError, MalformedInstanceError
from cnets.problems import (
    Dataset,
    Objective,
    Tape,
    TourGraph,
    named_objective,
    xor_dataset,
)
from cnets.rng import RngStream


class TestDataset:
    def test_xor_table(self):
        ds = xor_dataset()
        assert len(ds) == 4
        assert ds.input_arity == 2
        assert ds.target_arity == 1
        assert ds.targets == ((0.0,), (1.0,), (1.0,), (0.0,))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("in0,in1,out0\n0,1,1\n1,1,0\n")
        ds = Dataset.from_csv(str(path))
        assert ds.inputs == ((0.0, 1.0), (1.0, 1.0))
        assert ds.targets == ((1.0,), (0.0,))

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

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=((1.0,), (1.0, 2.0)), targets=((0.0,), (0.0,)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=((1.0,),), targets=())

    def test_matrices_are_built_once_and_read_only(self):
        ds = xor_dataset()
        x, t = ds.input_matrix(), ds.target_matrix()
        assert x is ds.input_matrix() and t is ds.target_matrix()
        assert x.tolist() == [list(row) for row in ds.inputs]
        assert t.tolist() == [list(row) for row in ds.targets]
        for matrix in (x, t):
            with pytest.raises(ValueError):
                matrix[0, 0] = 5.0

    def test_cached_matrices_leave_equality_and_hash_alone(self):
        used, fresh = xor_dataset(), xor_dataset()
        used.input_matrix()
        used.target_matrix()
        assert used == fresh
        assert hash(used) == hash(fresh)


class TestTourGraph:
    def test_euclidean_distances(self):
        graph = TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        assert graph.cost(0, 1) == 5.0
        assert graph.cost(1, 2) == 5.0
        assert graph.cost(0, 2) == 8.0

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
            TourGraph.from_matrix(matrix)

    def test_cost_matrix_is_built_once_and_read_only(self):
        graph = TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        matrix = graph.cost_matrix
        assert matrix is graph.cost_matrix
        assert matrix.tolist() == [list(row) for row in graph.costs]
        with pytest.raises(ValueError):
            matrix[0, 1] = 1.0
        assert graph == TourGraph.from_coordinates([(0, 0), (3, 4), (0, 8)])
        assert hash(graph) == hash(TourGraph(graph.costs))

    def test_random_instances_are_reproducible(self):
        a = TourGraph.random_euclidean(5, RngStream(1))
        b = TourGraph.random_euclidean(5, RngStream(1))
        assert a == b

    def test_csv_coords(self, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("x,y\n0,0\n3,4\n")
        with pytest.raises(MalformedInstanceError):
            TourGraph.from_csv(str(path))  # only 2 nodes
        path.write_text("x,y\n0,0\n3,4\n6,0\n")
        graph = TourGraph.from_csv(str(path))
        assert graph.n == 3
        assert graph.cost(0, 1) == 5.0

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2,3\n2,0,4\n3,4,0\n")
        graph = TourGraph.from_csv(str(path), fmt="matrix")
        assert graph.cost(1, 2) == 4.0


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
        b = Objective(name="sphere", dimension=2, lower=-5.12, upper=5.12, fn=lambda x: 0.0)
        assert a == b

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
    graph = TourGraph.random_euclidean(6, RngStream(2))
    n = graph.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    assert graph.cost(i, j) <= graph.cost(i, k) + graph.cost(k, j) + 1e-9

"""Tests for geometric primitives."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.geometry import (
    bounding_box,
    grid_positions,
    nearest_neighbor_distances,
    pairwise_distances,
    random_positions,
)
from repro.net.topology import unit_disk_edges


class TestRandomPositions:
    def test_bounds(self):
        rng = np.random.default_rng(0)
        pos = random_positions(500, (100.0, 50.0), rng)
        assert pos.shape == (500, 2)
        assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 100).all()
        assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 50).all()

    def test_zero_nodes(self):
        rng = np.random.default_rng(0)
        assert random_positions(0, (10, 10), rng).shape == (0, 2)

    def test_negative_count_raises(self):
        with pytest.raises(InvalidParameterError):
            random_positions(-1, (10, 10), np.random.default_rng(0))

    def test_bad_area_raises(self):
        with pytest.raises(InvalidParameterError):
            random_positions(3, (0, 10), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = random_positions(10, (100, 100), np.random.default_rng(5))
        b = random_positions(10, (100, 100), np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestGridPositions:
    def test_shape_and_spacing(self):
        pos = grid_positions(2, 3, spacing=2.0)
        assert pos.shape == (6, 2)
        assert pos[0].tolist() == [0.0, 0.0]
        assert pos[1].tolist() == [2.0, 0.0]
        assert pos[3].tolist() == [0.0, 2.0]

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            grid_positions(0, 3)
        with pytest.raises(InvalidParameterError):
            grid_positions(2, 2, spacing=0)


class TestPairwiseDistances:
    def test_known_values(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(pos)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[1, 0] == pytest.approx(5.0)
        assert d[0, 0] == 0.0

    def test_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            pairwise_distances(np.zeros((3, 3)))

    def test_symmetry_random(self):
        rng = np.random.default_rng(1)
        pos = random_positions(40, (10, 10), rng)
        d = pairwise_distances(pos)
        assert np.allclose(d, d.T)
        assert (np.diag(d) == 0).all()


class TestPairsWithin:
    """The pairs-within-radius rule, served by ``unit_disk_edges``."""

    def test_unit_square(self):
        pos = np.array([[0, 0], [1, 0], [0, 1], [5, 5]], dtype=float)
        pairs = unit_disk_edges(pos, 1.0)
        assert set(pairs) == {(0, 1), (0, 2)}

    def test_radius_zero(self):
        pos = np.array([[0, 0], [0, 0]], dtype=float)
        assert unit_disk_edges(pos, 0.0) == [(0, 1)]

    def test_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            unit_disk_edges(np.zeros((2, 2)), -1.0)


class TestMisc:
    def test_nearest_neighbor_distances(self):
        pos = np.array([[0, 0], [1, 0], [10, 0]], dtype=float)
        nn = nearest_neighbor_distances(pos)
        assert nn.tolist() == [1.0, 1.0, 9.0]

    def test_nearest_neighbor_single(self):
        assert nearest_neighbor_distances(np.zeros((1, 2))).tolist() == [0.0]

    def test_bounding_box(self):
        assert bounding_box([[1, 2], [3, -1]]) == (1.0, -1.0, 3.0, 2.0)

    def test_bounding_box_empty(self):
        with pytest.raises(InvalidParameterError):
            bounding_box(np.zeros((0, 2)))

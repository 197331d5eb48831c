"""Tests for unit-disk topology generation and calibration."""

import math

import numpy as np
import pytest

from repro.errors import CalibrationError, InvalidParameterError
from repro.net.geometry import random_positions
from repro.net.graph import Graph
from repro.net.topology import (
    _cell_binned_disk_edges,
    calibrate_radius,
    radius_for_degree,
    random_topology,
    unit_disk_edges,
    unit_disk_graph,
)

from ..reference import brute_force_disk_edges, reference_random_topology


class TestRadiusForDegree:
    def test_analytic_formula(self):
        r = radius_for_degree(101, 6.0, (100.0, 100.0))
        assert r == pytest.approx(math.sqrt(6 * 10000 / (math.pi * 100)))

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            radius_for_degree(1, 6.0)
        with pytest.raises(InvalidParameterError):
            radius_for_degree(10, 0.0)


class TestUnitDiskGraph:
    def test_edges_exactly_within_radius(self):
        pos = np.array([[0, 0], [1, 0], [2.5, 0]], dtype=float)
        g = unit_disk_graph(pos, 1.5)
        assert set(g.edges) == {(0, 1), (1, 2)}

    def test_radius_zero_no_edges(self):
        pos = np.array([[0, 0], [1, 0]], dtype=float)
        assert unit_disk_graph(pos, 0.5).m == 0

    def test_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            unit_disk_graph(np.zeros((2, 2)), -1)


class TestRandomTopology:
    def test_basic_properties(self):
        topo = random_topology(60, 6.0, seed=1)
        assert topo.n == 60
        assert topo.graph.is_connected()
        assert topo.positions.shape == (60, 2)
        assert topo.attempts >= 1

    def test_reproducible(self):
        a = random_topology(50, 6.0, seed=99)
        b = random_topology(50, 6.0, seed=99)
        assert a.graph == b.graph
        assert np.array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = random_topology(50, 6.0, seed=1)
        b = random_topology(50, 6.0, seed=2)
        assert a.graph != b.graph

    def test_degree_in_ballpark(self):
        degs = [random_topology(100, 6.0, seed=s).realized_degree() for s in range(5)]
        mean = sum(degs) / len(degs)
        assert 4.0 <= mean <= 8.0  # analytic calibration, border effects allowed

    def test_dense_target(self):
        topo = random_topology(100, 10.0, seed=3)
        assert 7.0 <= topo.realized_degree() <= 13.0

    def test_explicit_radius_override(self):
        topo = random_topology(30, 6.0, seed=5, radius=200.0)
        # radius covers the whole area: complete graph
        assert topo.graph.m == 30 * 29 // 2
        assert topo.radius == 200.0

    def test_single_node(self):
        topo = random_topology(1, 6.0, seed=0)
        assert topo.n == 1 and topo.graph.m == 0

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            random_topology(0, 6.0, seed=0)

    def test_unknown_calibration(self):
        with pytest.raises(InvalidParameterError):
            random_topology(10, 6.0, seed=0, calibration="magic")

    def test_impossible_connectivity_raises(self):
        with pytest.raises(CalibrationError):
            random_topology(80, 0.3, seed=0, max_attempts=3)

    def test_exhaustion_message_reports_rejection_statistics(self):
        # Degree 0.3 leaves isolated nodes in every draw.
        with pytest.raises(CalibrationError) as isolated:
            random_topology(80, 0.3, seed=0, max_attempts=3)
        msg = str(isolated.value)
        assert "observed acceptance rate 0/3" in msg
        assert "100% of rejected draws had an isolated node" in msg

    def test_negative_explicit_radius_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_topology(10, 6.0, seed=0, radius=-1.0)

    def test_not_requiring_connected(self):
        topo = random_topology(
            80, 0.5, seed=0, require_connected=False, max_attempts=1
        )
        assert topo.n == 80  # accepted on first draw

    def test_empirical_calibration_close(self):
        topo = random_topology(80, 6.0, seed=11, calibration="empirical")
        assert 4.5 <= topo.realized_degree() <= 7.5


#: The differential grid: the paper's N range plus the large-N sizes the
#: traffic and service paths draw, at both paper degrees and one between.
#: Both samplers get the same redraw budget; below the connectivity
#: threshold (D=6 at n >= 500) no draw within it connects, and both must
#: give up.
SAMPLER_NS = (50, 80, 110, 140, 170, 200, 500, 1000, 1500)
SAMPLER_DEGREES = (6.0, 8.0, 10.0)
SAMPLER_SEEDS = (0, 1, 2)
SAMPLER_MAX_ATTEMPTS = 100


class TestSamplerMatchesReference:
    """Edge-array rejection must redraw exactly like build-then-check."""

    @pytest.mark.parametrize(
        "n",
        [pytest.param(n, marks=[pytest.mark.slow] if n > 500 else [])
         for n in SAMPLER_NS],
    )
    def test_same_attempts_positions_and_edges(self, n):
        for degree in SAMPLER_DEGREES:
            for seed in SAMPLER_SEEDS:
                case = (n, degree, seed)
                try:
                    ref = reference_random_topology(
                        n, degree, seed=seed, max_attempts=SAMPLER_MAX_ATTEMPTS
                    )
                except CalibrationError:
                    with pytest.raises(CalibrationError):
                        random_topology(
                            n, degree, seed=seed, max_attempts=SAMPLER_MAX_ATTEMPTS
                        )
                    continue
                got = random_topology(
                    n, degree, seed=seed, max_attempts=SAMPLER_MAX_ATTEMPTS
                )
                assert got.attempts == ref.attempts, case
                assert np.array_equal(got.positions, ref.positions), case
                assert got.graph.edges == ref.graph.edges, case


class TestCalibrateRadius:
    def test_hits_target(self):
        rng = np.random.default_rng(0)
        r = calibrate_radius(80, 6.0, rng=rng, samples=4, tol=0.05)
        # verify on fresh samples
        degs = []
        for s in range(4):
            topo = random_topology(
                80, 6.0, seed=s, radius=r, require_connected=False, max_attempts=1
            )
            degs.append(topo.realized_degree())
        assert abs(sum(degs) / len(degs) - 6.0) < 1.2

    def test_unreachable_degree(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            calibrate_radius(10, 20.0, rng=rng)


class TestCellBinnedEdges:
    """The spatial-hash edge builder must agree exactly with brute force."""

    def test_matches_dense_unit_disk(self):
        rng = np.random.default_rng(5)
        for n, degree in ((2, 1.0), (50, 6.0), (400, 10.0), (1200, 8.0)):
            pos = random_positions(n, (100.0, 100.0), rng)
            r = radius_for_degree(max(n, 2), degree)
            dense = Graph(n, brute_force_disk_edges(pos, r))
            assert unit_disk_graph(pos, r).edges == dense.edges

    def test_knife_edge_pair_exactly_radius_apart(self):
        # Pairs at exactly the radius are in range (``<=``), in every
        # direction and across cell boundaries; a hair further is not.
        r = 7.5
        pos = np.array(
            [[10.0, 10.0], [17.5, 10.0], [10.0, 17.5], [10.0, 2.5],
             [30.0, 30.0], [30.0 + 4.5, 30.0 + 6.0],
             [60.0, 60.0], [np.nextafter(60.0 + r, np.inf), 60.0]]
        )
        expected = brute_force_disk_edges(pos, r)
        assert {(0, 1), (0, 2), (0, 3), (4, 5)} <= set(expected)
        assert (6, 7) not in expected
        assert sorted(tuple(sorted(e)) for e in unit_disk_edges(pos, r)) == expected

    def test_large_n_uses_lazy_backend_by_default(self):
        topo = random_topology(1500, degree=12.0, seed=3)
        assert topo.graph.distance_backend == "lazy"
        assert topo.graph.oracle.stats().rows_computed == 0

    def test_zero_radius_matches_dense_path(self):
        # Coincident points are within range 0 of each other on both paths.
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        dense = brute_force_disk_edges(pos, 0.0)
        assert set(unit_disk_edges(pos, 0.0)) == set(dense) == {(0, 1)}
        assert unit_disk_edges(np.zeros((4, 2)), 0.0) == brute_force_disk_edges(
            np.zeros((4, 2)), 0.0
        )

    def test_negative_radius_no_edges(self):
        ii, jj = _cell_binned_disk_edges(np.zeros((3, 2)), -1.0)
        assert ii.size == jj.size == 0

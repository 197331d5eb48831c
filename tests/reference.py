"""Test-only reference implementations the production paths are checked against.

Each reference is the simplest correct form of a computation the library
does faster: brute-force O(n²) unit-disk edges, the original
build-then-check rejection sampler, and all-pairs hop distances from a
plain Python BFS per source.  None of them shares code with the paths
under test beyond ``random_positions``/``radius_for_degree`` (whose RNG
stream the sampler must reproduce draw for draw).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

import numpy as np

from repro.errors import CalibrationError, InvalidParameterError
from repro.net.geometry import PAPER_AREA, pairwise_distances, random_positions
from repro.net.graph import Graph
from repro.net.oracle import DIST_DTYPE, UNREACHABLE, DistanceOracle, OracleStats
from repro.net.topology import Topology, radius_for_degree


def brute_force_disk_edges(
    positions: np.ndarray, radius: float
) -> list[tuple[int, int]]:
    """Every pair ``i < j`` whose full-matrix Euclidean distance is ``<= radius``."""
    pos = np.asarray(positions, dtype=np.float64)
    dist = pairwise_distances(pos)
    iu, ju = np.triu_indices(pos.shape[0], k=1)
    mask = dist[iu, ju] <= radius
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def bfs_row(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` by a plain queue BFS (UNREACHABLE elsewhere)."""
    row = np.full(graph.n, UNREACHABLE, dtype=DIST_DTYPE)
    row[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if row[v] == UNREACHABLE:
                row[v] = row[u] + 1
                queue.append(v)
    return row


def all_pairs_hops(graph: Graph) -> np.ndarray:
    """The ``(n, n)`` hop-distance matrix, one reference BFS per source."""
    out = np.empty((graph.n, graph.n), dtype=DIST_DTYPE)
    for u in range(graph.n):
        out[u] = bfs_row(graph, u)
    return out


def reference_is_connected(graph: Graph) -> bool:
    return graph.n <= 1 or bool((bfs_row(graph, 0) < UNREACHABLE).all())


def reference_random_topology(
    n: int,
    degree: float,
    *,
    seed: int,
    radius: Optional[float] = None,
    max_attempts: int = 5000,
) -> Topology:
    """The original sampler: brute-force edges, then ``Graph``, then a BFS check."""
    root = np.random.default_rng(seed)
    if radius is None:
        radius = radius_for_degree(n, degree, PAPER_AREA)
    for attempt in range(1, max_attempts + 1):
        positions = random_positions(n, PAPER_AREA, root)
        graph = Graph(n, brute_force_disk_edges(positions, radius))
        if reference_is_connected(graph):
            return Topology(
                graph=graph, positions=positions, radius=radius, seed=seed,
                attempts=attempt,
            )
    raise CalibrationError(f"no connected sample in {max_attempts} attempts")


class DenseReferenceOracle(DistanceOracle):
    """All-pairs matrix oracle over :func:`all_pairs_hops` (no ball cache).

    Answers every query through the base-class defaults from one
    reference row per source, so it is the ground truth the production
    backends are compared against.
    """

    backend = "reference"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self.matrix = all_pairs_hops(graph)
        self.matrix.setflags(write=False)

    def row(self, source: int) -> np.ndarray:
        return self.matrix[source]

    def ball(self, source: int, radius: int) -> Tuple[np.ndarray, np.ndarray]:
        if radius < 0:
            raise InvalidParameterError(f"ball radius must be >= 0, got {radius}")
        row = self.matrix[source]
        nodes = np.flatnonzero((row <= radius) & (row < UNREACHABLE))
        return nodes, row[nodes]

    def stats(self) -> OracleStats:
        n = self._graph.n
        return OracleStats(
            backend=self.backend, rows_computed=n, row_hits=0,
            balls_computed=0, ball_hits=0,
            cached_bytes=self.matrix.nbytes, peak_cached_bytes=self.matrix.nbytes,
        )


def serve_from_reference(graph: Graph) -> Graph:
    """Make ``graph``'s default queries answer from a :class:`DenseReferenceOracle`.

    The reference takes the lazy backend's slot, so every consumer that
    asks the graph for its oracle (clustering, backbones, routing) runs on
    reference distances.  Derived graphs start fresh lazy oracles.
    """
    graph.use_distance_backend("lazy")
    graph._oracles["lazy"] = DenseReferenceOracle(graph)
    return graph

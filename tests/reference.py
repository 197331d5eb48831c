"""Test-only reference implementations the production paths are checked against.

Each reference is the simplest correct form of a computation the library
does faster: brute-force O(n²) unit-disk edges, the original
build-then-check rejection sampler, all-pairs hop distances from a
plain Python BFS per source, Yen's k-shortest head sequences without
goal bounds, and balance candidate records from one ``np.unique`` per
walk.  None of them shares code with the paths under test beyond
``random_positions``/``radius_for_degree`` (whose RNG stream the sampler
must reproduce draw for draw); the reference routers below replace only
the two balance-mode primitives and keep everything else.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional, Tuple

import numpy as np

from repro.cds.routing import HeadRouter
from repro.core.pipeline import BackboneResult
from repro.errors import (
    CalibrationError,
    InvalidParameterError,
    ValidationError,
)
from repro.net.geometry import PAPER_AREA, pairwise_distances, random_positions
from repro.net.graph import Graph
from repro.net.oracle import DIST_DTYPE, UNREACHABLE, DistanceOracle, OracleStats
from repro.net.topology import Topology, radius_for_degree
from repro.traffic.router import BatchRouter
from repro.types import normalize_edge


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


def reference_k_shortest_sequences(
    result: BackboneResult,
    src_head: int,
    dst_head: int,
    k: int,
    max_weight: float = float("inf"),
) -> list[tuple[int, ...]]:
    """Yen's k shortest loopless head sequences, unpruned.

    The head graph is the selected virtual links; every search settles in
    ``(dist, id)`` order with an early exit at its target, and prunes only
    on the plain residual budget.  Root and candidate weights are re-summed
    through ``virtual_graph.link``.  The first sequence comes from the same
    search without bans (the canonical shortest sequence).
    """
    if k < 1:
        raise InvalidParameterError("k_shortest_sequences needs k >= 1")
    if src_head == dst_head:
        return [(src_head,)]
    vg = result.virtual_graph
    adj: dict[int, list[tuple[int, int]]] = {h: [] for h in result.heads}
    for a, b in result.selected_links:
        w = vg.link(a, b).weight
        adj[a].append((w, b))
        adj[b].append((w, a))

    def seq_weight(seq: tuple[int, ...]) -> int:
        return sum(vg.link(a, b).weight for a, b in zip(seq, seq[1:]))

    def spur(
        src: int,
        dst: int,
        banned_nodes: set[int],
        banned_edges: set[tuple[int, int]],
        limit: float,
    ) -> Optional[tuple[int, ...]]:
        dist = {src: 0}
        prev: dict[int, int] = {}
        pq = [(0, src)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist.get(u, float("inf")):
                continue
            if u == dst:
                break
            for w, v in adj[u]:
                if v in banned_nodes or normalize_edge(u, v) in banned_edges:
                    continue
                nd = d + w
                if nd > limit:
                    continue
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, v))
        if dst not in dist:
            return None
        seq = [dst]
        while seq[-1] != src:
            seq.append(prev[seq[-1]])
        return tuple(reversed(seq))

    first = spur(src_head, dst_head, set(), set(), float("inf"))
    if first is None:
        raise ValidationError(
            f"backbone does not connect heads {src_head} and {dst_head}"
        )
    found = [first]
    seen = {first}
    candidates: list[tuple[int, tuple[int, ...]]] = []
    while len(found) < k:
        base = found[-1]
        for j in range(len(base) - 1):
            root = base[: j + 1]
            budget = max_weight - seq_weight(root)
            if budget < 0:
                break
            banned_edges = {
                normalize_edge(p[j], p[j + 1])
                for p in found
                if len(p) > j + 1 and p[: j + 1] == root
            }
            alt = spur(root[-1], dst_head, set(root[:-1]), banned_edges, budget)
            if alt is None:
                continue
            seq = root + alt[1:]
            if seq in seen:
                continue
            seen.add(seq)
            heapq.heappush(candidates, (seq_weight(seq), seq))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        found.append(best)
    return found


def reference_candidate_records(
    router: HeadRouter, seqs: list[tuple[int, ...]]
) -> dict[tuple[int, ...], tuple]:
    """Balance candidate records, one ``np.unique`` per expanded walk."""
    records: dict[tuple[int, ...], tuple] = {}
    for seq in seqs:
        if seq in records:
            continue
        walk = np.asarray(router.walk_for_seq(seq), dtype=np.int64)
        un, cnt = np.unique(walk, return_counts=True)
        cnt = cnt.astype(np.float64)
        links = tuple(sorted(normalize_edge(x, y) for x, y in zip(seq, seq[1:])))
        records[seq] = (un, cnt, links, float(cnt @ cnt))
    return records


class ReferenceHeadRouter(HeadRouter):
    """A :class:`HeadRouter` answering Yen queries from the unpruned reference."""

    def k_shortest_sequences(
        self,
        src_head: int,
        dst_head: int,
        k: int,
        max_weight: float = float("inf"),
    ) -> list[tuple[int, ...]]:
        return reference_k_shortest_sequences(
            self.result, src_head, dst_head, k, max_weight
        )


class ReferenceBatchRouter(BatchRouter):
    """A :class:`BatchRouter` on the reference Yen and per-walk records."""

    def __init__(self, result: BackboneResult) -> None:
        super().__init__(result)
        self._router = ReferenceHeadRouter(result)

    def _candidate_records(
        self, cand_seqs: list[list[tuple[int, ...]]]
    ) -> dict[tuple[int, ...], tuple]:
        return reference_candidate_records(
            self._router, [s for seqs in cand_seqs for s in seqs]
        )

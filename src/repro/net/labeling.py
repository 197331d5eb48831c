"""Exact landmark distance labeling (the ``"landmark"`` oracle backend).

Pair-heavy consumers — routing stretch sampling, the NC neighbor rule,
repair validation under churn — ask the distance machinery for *single
pair* distances, and on the lazy backend each cold pair query costs a full
O(n + m) BFS row.  Bounded-stretch geometric graphs (the paper's unit-disk
regime; cf. Yao-graph spanner results) have exactly the structure that
makes **2-hop distance labeling** tiny: a small set of high-degree
"landmark" hubs covers almost every shortest path.

:class:`LandmarkDistanceOracle` implements **pruned landmark labeling**
(Akiba, Iwata & Yoshida, SIGMOD 2013) with vertices ranked by decreasing
degree.  PLL's output is the *canonical* labeling (their Thm. 4.1): hub
``r`` enters ``L(v)`` with ``d(r, v)`` exactly when no vertex ranked
before ``r`` lies on any shortest ``r``–``v`` path.  The first ~O(√n)
degree-ranked roots contribute nearly all label entries on
unit-disk-style graphs; later roots are blocked almost immediately.
Every vertex is a root, so the labels are **exact** for all pairs
(same-component queries return the true hop distance, cross-component
queries return :data:`~repro.net.oracle.UNREACHABLE`) and the backend is
observationally identical to ``lazy`` — the property tests enforce this.

Queries join the two sorted label arrays in O(|label(u)| + |label(v)|)
without materializing any BFS row.  Ball and row queries fall back to the
inherited lazy CSR machinery, so the backend is a drop-in for every
consumer.  Labels are built lazily on the first pair query.  Because the
canonical rule never consults other roots' labels, construction
(:func:`build_pruned_labels`) sweeps roots 64 at a time: one bit-packed
BFS per block carries a reached and a blocked frontier word per node,
and each level for all 64 roots is one CSR gather plus one
``np.bitwise_or.reduceat`` (:func:`~repro.net.oracle.or_neighbor_words`,
the level step :func:`~repro.net.oracle.multi_source_bfs` uses too).
A full N=10^4 unit-disk build is part of ``make bench-pipeline``;
memory during construction is O(n) words plus the label entries
themselves, held as compact int32 triples until the final per-node
split.  The sequential per-root pruned BFS survives only as
:func:`_build_pruned_labels_reference`, the test ground truth.

Under single-node churn the labels are discarded (a removed node may have
carried shortest paths the labels encode) while cached rows/balls are
inherited through the usual lazy-oracle rules; labels rebuild lazily on
the next pair query.  Mobility edge deltas (:meth:`Graph.with_edge_delta`)
behave the same way: the derived oracle is constructed label-cold — a
label certifies arbitrary pairs, so no per-pair validity rule survives a
delta cheaply — but every certified/patched row and surviving ball
arrives through :meth:`LazyDistanceOracle.inherit_edge_delta`, and
``distance`` prefers a resident row over a label join, so the inherited
cache keeps answering most pair queries until the labels rebuild.
Node arrivals (:meth:`Graph.with_nodes`) follow the same label-cold rule
with one exact exception: a *pendant* arrival augments the parent labels
in O(|label(u)|) instead of dropping them — see
:meth:`LandmarkDistanceOracle.inherit_node_add`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from ..obs import counter as obs_counter
from ..obs import span
from ..types import DistArray, IndexArray, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular import
    from .graph import Graph
from .oracle import (
    BATCH_BITS,
    DIST_DTYPE,
    UNREACHABLE,
    LazyDistanceOracle,
    OracleStats,
    or_neighbor_words,
)

__all__ = ["LandmarkDistanceOracle", "build_pruned_labels"]


def _root_order(indptr: IndexArray, n: int) -> IndexArray:
    """Root processing order: decreasing degree, ties by increasing ID."""
    degrees = np.diff(indptr)
    return np.lexsort((np.arange(n), -degrees)).astype(np.int64)


#: ``_LANES_AFTER[j]`` has bits ``j+1 .. 63`` set: the lanes of a block
#: whose roots rank after the block's ``j``-th root.
_LANES_AFTER = np.array(
    [((1 << BATCH_BITS) - 1) ^ ((2 << j) - 1) for j in range(BATCH_BITS)],
    dtype=np.uint64,
)
_ALL_LANES = np.uint64((1 << BATCH_BITS) - 1)
_LANE_BITS = np.uint64(1) << np.arange(BATCH_BITS, dtype=np.uint64)


def build_pruned_labels(
    indptr: IndexArray, indices: IndexArray, n: int
) -> tuple[list[IndexArray], list[DistArray], IndexArray]:
    """Build exact 2-hop labels by 64-root bit-packed canonical sweeps.

    Returns ``(label_ranks, label_dists, order)``: per-node sorted arrays
    of hub *ranks* and the matching hop distances, plus the rank -> node
    ordering (``order[0]`` is the highest-degree landmark).

    Roots are swept :data:`~repro.net.oracle.BATCH_BITS` at a time in
    rank order, lane ``s`` of a block being its ``s``-th root.  A newly
    reached node is blocked for lane ``s`` when it ranks before root
    ``s`` or any of its BFS predecessors is blocked (so an earlier-ranked
    vertex lies on a shortest path); its unblocked lanes become label
    entries at the current depth.  An unblocked node needs an unblocked
    predecessor, so a lane whose frontier is all blocked retires, and a
    block ends when every lane has.  Byte-identical to the per-root
    pruned BFS of :func:`_build_pruned_labels_reference`.  Publishes the
    ``oracle.label_blocks`` and ``oracle.label_levels`` counters.
    """
    order = _root_order(indptr, n)
    if n == 0:
        return [], [], order
    nonzero = np.flatnonzero(np.diff(indptr) > 0)
    # Lanes each node blocks by rank alone: all of them once the node's
    # own block is done, the later lanes while it is in the current one.
    rank_blocks = np.zeros(n, dtype=np.uint64)
    state = np.zeros((n, 2), dtype=np.uint64)  # (reached, blocked) frontier
    reached_f, blocked_f = state[:, 0], state[:, 1]
    visited = np.zeros(n, dtype=np.uint64)
    found_nodes: list[np.ndarray] = []
    found_ranks: list[np.ndarray] = []
    found_dists: list[np.ndarray] = []
    levels = 0
    for base in range(0, n, BATCH_BITS):
        roots = order[base : base + BATCH_BITS]
        rank_blocks[roots] = _LANES_AFTER[: roots.size]
        visited[:] = 0
        visited[roots] = reached_f[roots] = _LANE_BITS[: roots.size]
        found_nodes.append(roots.astype(np.int32))
        found_ranks.append(np.arange(base, base + roots.size, dtype=np.int32))
        found_dists.append(np.zeros(roots.size, dtype=DIST_DTYPE))
        active = roots
        depth = 0
        while True:
            depth += 1
            levels += 1
            targets, got = or_neighbor_words(
                indptr, indices, state, active, nonzero
            )
            reached_f[active] = blocked_f[active] = 0
            reached = got[:, 0] & ~visited[targets]
            new = np.flatnonzero(reached)
            targets, reached = targets[new], reached[new]
            blocked = (got[:, 1][new] | rank_blocks[targets]) & reached
            free = reached & ~blocked
            live = np.bitwise_or.reduce(free)
            if not live:
                break
            visited[targets] |= reached
            hit = np.flatnonzero(free)
            rows, lane = np.nonzero(free[hit, None] & _LANE_BITS)
            found_nodes.append(targets[hit[rows]].astype(np.int32))
            found_ranks.append((base + lane).astype(np.int32))
            found_dists.append(np.full(rows.size, depth, dtype=DIST_DTYPE))
            # Retire lanes with no unblocked frontier left.
            reached &= live
            keep = np.flatnonzero(reached)
            active = targets[keep]
            reached_f[active] = reached[keep]
            blocked_f[active] = blocked[keep] & live
        reached_f[active] = blocked_f[active] = 0
        rank_blocks[roots] = _ALL_LANES
    obs_counter("oracle.label_blocks").add(-(-n // BATCH_BITS))
    obs_counter("oracle.label_levels").add(levels)
    nodes = np.concatenate(found_nodes)
    ranks = np.concatenate(found_ranks)
    dists = np.concatenate(found_dists)
    perm = np.lexsort((ranks, nodes))
    ranks = ranks[perm].astype(np.int64)
    dists = dists[perm]
    cuts = np.cumsum(np.bincount(nodes, minlength=n))[:-1]
    return np.split(ranks, cuts), np.split(dists, cuts), order


def _build_pruned_labels_reference(
    indptr: IndexArray, indices: IndexArray, n: int
) -> tuple[list[IndexArray], list[DistArray], IndexArray]:
    """Per-node reference PLL construction: one pruned BFS per root.

    Kept as the ground truth for the label-equality tests; byte-identical
    to :func:`build_pruned_labels`.
    """
    order = _root_order(indptr, n)
    neighbors = [indices[indptr[u] : indptr[u + 1]].tolist() for u in range(n)]
    label_ranks: list[list[int]] = [[] for _ in range(n)]
    label_dists: list[list[int]] = [[] for _ in range(n)]
    hub_dist = [UNREACHABLE] * n  # distance from current root, by hub rank
    for rank in range(n):
        root = int(order[rank])
        root_ranks = label_ranks[root]
        root_dists = label_dists[root]
        for rk, dd in zip(root_ranks, root_dists):
            hub_dist[rk] = dd
        seen = bytearray(n)
        seen[root] = 1
        frontier = [root]
        depth = 0
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                # Prune when existing labels already certify a distance
                # <= depth between root and v (the PLL invariant).
                best = UNREACHABLE
                for rk, dd in zip(label_ranks[v], label_dists[v]):
                    t = hub_dist[rk] + dd
                    if t < best:
                        best = t
                if best <= depth:
                    continue
                label_ranks[v].append(rank)
                label_dists[v].append(depth)
                for w in neighbors[v]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt
            depth += 1
        for rk in root_ranks:
            hub_dist[rk] = UNREACHABLE
    ranks_out = [np.asarray(r, dtype=np.int64) for r in label_ranks]
    dists_out = [np.asarray(d, dtype=DIST_DTYPE) for d in label_dists]
    return ranks_out, dists_out, order


def _label_join(
    ru: IndexArray, du: DistArray, rv: IndexArray, dv: DistArray
) -> int:
    """Minimum ``d(u, hub) + d(hub, v)`` over shared hubs (sorted join)."""
    common, iu, iv = np.intersect1d(
        ru, rv, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return UNREACHABLE
    return int((du[iu] + dv[iv]).min())


class LandmarkDistanceOracle(LazyDistanceOracle):
    """Lazy CSR oracle plus exact pruned landmark labels for pair queries.

    ``distance`` / ``distances`` / ``pair_distances`` /
    ``pairwise_distances`` are answered from 2-hop labels in
    O(|label|) per pair; ``row`` and ``ball`` fall back to the inherited
    lazy CSR machinery.  Labels are built on the first pair query and
    shared for the oracle's lifetime.
    """

    backend = "landmark"
    fast_pairs = True  # label joins, never a BFS row

    def __init__(self, graph: "Graph", **kwargs: object) -> None:
        super().__init__(graph, **kwargs)
        self._label_ranks: list[IndexArray] | None = None
        self._label_dists: list[DistArray] | None = None
        self._landmark_order: IndexArray | None = None
        self._label_entries = 0
        self._pair_queries = 0

    # -- labels --------------------------------------------------------- #

    @property
    def labels_built(self) -> bool:
        """Whether the 2-hop labels have been constructed yet."""
        return self._label_ranks is not None

    def _ensure_labels(self) -> None:
        if self._label_ranks is None:
            with span("labels", n=self._graph.n):
                self._label_ranks, self._label_dists, self._landmark_order = (
                    build_pruned_labels(
                        self._indptr, self._indices, self._graph.n
                    )
                )
                self._label_entries = sum(r.size for r in self._label_ranks)
                obs_counter("oracle.labels_built").add()

    def label(self, u: NodeId) -> tuple[IndexArray, DistArray]:
        """``u``'s 2-hop label as ``(hub_ranks, hub_dists)`` arrays."""
        self._ensure_labels()
        return self._label_ranks[int(u)], self._label_dists[int(u)]

    def landmarks(self, count: int) -> tuple[int, ...]:
        """The ``count`` highest-ranked landmark node IDs (degree order)."""
        self._ensure_labels()
        return tuple(int(x) for x in self._landmark_order[:count])

    # -- incremental maintenance ----------------------------------------- #

    def inherit_node_add(
        self,
        parent: LazyDistanceOracle,
        added: Sequence[tuple[int, int]],
    ) -> None:
        """Node-add inheritance with pendant label augmentation.

        Rows, partial rows and balls carry through
        :meth:`LazyDistanceOracle.inherit_node_add`.  Labels normally
        drop (an arrival can shorten pair distances the labels encode,
        and no per-pair validity rule survives that cheaply) — with one
        exact exception worth keeping: a **pendant** arrival, a single
        new node attached by exactly one edge to one old node ``u``.  A
        pendant cannot shorten any old pair (every path through it
        re-enters via ``u``), so the parent labels stay exact, and the
        new node's label is ``u``'s with every hub distance increased by
        one — the join then answers ``d(x, t) = d(u, t) + 1`` exactly
        (``d(x, u) = 1`` lands via ``u``'s self-hub).  Denser arrivals
        construct label-cold and rebuild on the next pair query, exactly
        like churn and mobility.
        """
        super().inherit_node_add(parent, added)
        if not isinstance(parent, LandmarkDistanceOracle):
            return
        if parent._label_ranks is None or parent._label_dists is None:
            return
        old_n = parent.graph.n
        pendant = (
            len(added) == 1
            and self._graph.n == old_n + 1
            and min(added[0]) < old_n <= max(added[0])
        )
        if not pendant:
            return
        u = int(min(added[0]))
        self._label_ranks = list(parent._label_ranks) + [
            parent._label_ranks[u].copy()
        ]
        self._label_dists = list(parent._label_dists) + [
            (parent._label_dists[u] + np.asarray(1, dtype=DIST_DTYPE)).astype(
                DIST_DTYPE
            )
        ]
        self._landmark_order = parent._landmark_order
        self._label_entries = parent._label_entries + int(
            parent._label_ranks[u].size
        )
        obs_counter("oracle.labels_augmented").add()

    # -- pair queries ---------------------------------------------------- #

    def distance(self, u: NodeId, v: NodeId) -> int:
        u, v = int(u), int(v)
        if u == v:
            return 0
        cached = self._rows.get(u)
        if cached is not None:  # a resident row is even cheaper than a join
            self._row_hits += 1
            return int(cached[v])
        self._ensure_labels()
        self._pair_queries += 1
        return _label_join(
            self._label_ranks[u],
            self._label_dists[u],
            self._label_ranks[v],
            self._label_dists[v],
        )

    def distances(self, source: NodeId, targets: Sequence[NodeId]) -> DistArray:
        if len(targets) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        source = int(source)
        cached = self._rows.get(source)
        if cached is not None:
            self._row_hits += 1
            return cached[np.asarray(targets, dtype=np.intp)]
        self._ensure_labels()
        out = np.empty(len(targets), dtype=DIST_DTYPE)
        ru, du = self._label_ranks[source], self._label_dists[source]
        for i, t in enumerate(targets):
            t = int(t)
            if t == source:
                out[i] = 0
                continue
            self._pair_queries += 1
            out[i] = _label_join(
                ru, du, self._label_ranks[t], self._label_dists[t]
            )
        return out

    def pair_distances(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> DistArray:
        if len(pairs) == 0:
            return np.zeros(0, dtype=DIST_DTYPE)
        out = np.empty(len(pairs), dtype=DIST_DTYPE)
        for i, (u, v) in enumerate(pairs):
            out[i] = self.distance(u, v)
        return out

    def pairwise_distances(self, nodes: Sequence[NodeId]) -> DistArray:
        idx = [int(x) for x in nodes]
        out = np.zeros((len(idx), len(idx)), dtype=DIST_DTYPE)
        for i, u in enumerate(idx):
            for j in range(i + 1, len(idx)):
                d = self.distance(u, idx[j])
                out[i, j] = d
                out[j, i] = d
        return out

    # -- introspection --------------------------------------------------- #

    def stats(self) -> OracleStats:
        base = super().stats()
        return replace(
            base,
            label_entries=self._label_entries,
            pair_queries=self._pair_queries,
            cached_bytes=base.cached_bytes + self._label_bytes(),
        )

    def _label_bytes(self) -> int:
        if self._label_ranks is None:
            return 0
        return sum(
            r.nbytes + d.nbytes
            for r, d in zip(self._label_ranks, self._label_dists)
        )

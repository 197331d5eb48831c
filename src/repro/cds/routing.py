"""Cluster-based routing over the k-hop backbone (§1/§2 motivation).

The paper motivates clustering with routing: "helping to achieve smaller
routing tables and fewer route updates" ((α,t)-cluster, the B-protocol,
MMWN).  This module quantifies that on any produced backbone:

* **flat link-state baseline** — every node stores a route to every other
  node: table size n-1, stretch 1 by definition;
* **cluster-based routing** — a node stores routes only to its own
  cluster's members plus its head; heads additionally store the backbone
  table (one entry per clusterhead).  A packet travels source -> its head
  (canonical path), head -> destination head over selected virtual links
  (shortest path in the cluster graph G'), destination head -> destination.

The reusable primitive is :class:`HeadRouter`: the head adjacency built
once per backbone, one cached Dijkstra tree per *source* head (serving
every destination from that cluster), and a per-head-pair cache of the
fully expanded gateway walk.  :func:`route` builds one transient router
per call (the scalar, embarrassingly-recomputing form);
:class:`repro.traffic.router.BatchRouter` shares a single
:class:`HeadRouter` across thousands of flows — that reuse is the whole
batch-routing speedup.

:func:`route` returns the actual walk; :func:`routing_report` samples
source/destination pairs and reports mean/max stretch and table sizes —
the table-size collapse is the win, the stretch is the price.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.pipeline import BackboneResult
from ..errors import InvalidParameterError, ValidationError
from ..net.paths import PathOracle
from ..types import NodeId

__all__ = [
    "HeadRouter",
    "RoutingReport",
    "route",
    "table_sizes",
    "routing_report",
]

#: Sentinel weight for "link absent" in the inheritance link-diff maps
#: and distance for "unreachable" in the spur searches (larger than any
#: real virtual-link weight or head distance).
UNREACHABLE_W = float("inf")


class HeadRouter:
    """Cached cluster-routing primitives over one backbone.

    Three layers of reuse, all computed lazily and kept for the router's
    lifetime:

    * the **head adjacency** over selected virtual links, built once from
      ``result.selected_links`` (the per-call rebuild was the dominant
      cost of looped :func:`route` calls);
    * one **Dijkstra tree per source head** — distances and predecessors
      to *every* other head, so all flows leaving one cluster share a
      single shortest-path computation.  The relaxation discipline is
      identical to the original early-exit Dijkstra, so reconstructed
      head sequences match :func:`route`'s historical output exactly;
    * a **per-head-pair walk cache**: the head sequence expanded through
      the selected links' stored gateway paths, oriented source -> target.
    """

    def __init__(self, result: BackboneResult) -> None:
        self._result = result
        adj: dict[NodeId, list[tuple[int, NodeId]]] = {h: [] for h in result.heads}
        # Selected-link weights keyed by both orientations, for Yen's
        # running root/candidate weights.
        weight: dict[tuple[NodeId, NodeId], int] = {}
        for a, b in result.selected_links:
            w = result.virtual_graph.link(a, b).weight
            adj[a].append((w, b))
            adj[b].append((w, a))
            weight[(a, b)] = weight[(b, a)] = w
        self._adj = adj
        self._weight = weight
        self._segments: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}
        self._trees: dict[NodeId, tuple[dict, dict]] = {}
        self._head_seqs: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}
        self._head_walks: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}
        # Multipath layer: seeded tie-break Dijkstra trees, Yen lists and
        # expanded walks for non-canonical head sequences.  Never inherited
        # across repairs (conservative: they rebuild lazily on demand).
        self._alt_ranks: dict[int, dict[NodeId, int]] = {}
        self._alt_trees: dict[tuple[int, NodeId], tuple[dict, dict]] = {}
        self._kshort: dict[
            tuple[NodeId, NodeId, int, float], list[tuple[NodeId, ...]]
        ] = {}
        self._seq_walks: dict[tuple[NodeId, ...], tuple[NodeId, ...]] = {}
        #: Cumulative Yen spur-step counts: searches run, and spur nodes
        #: skipped because no first hop fits the residual budget.
        self.spur_counts = {"spur_searches": 0, "spurs_skipped": 0}

    @property
    def result(self) -> BackboneResult:
        """The backbone this router serves."""
        return self._result

    # -- incremental maintenance ---------------------------------------- #

    def rebind(self, result: BackboneResult) -> None:
        """Swap in a backbone with *identical* head-graph objects, in place.

        The O(1) counterpart of :meth:`inherit_from` for the one change
        that cannot touch the head-routing layer: a member arrival, where
        ``result`` differs from the current backbone only in its
        ``clustering``.  The virtual graph, selected links, adjacency,
        Dijkstra trees, head sequences, expanded walks and link segments
        all remain exact verbatim — no verification, no copying.

        Raises:
            InvalidParameterError: if ``result`` does not share this
                router's virtual-graph and selected-links objects (a
                changed CDS stage must rebuild and :meth:`inherit_from`).
        """
        if (
            result.virtual_graph is not self._result.virtual_graph
            or result.selected_links is not self._result.selected_links
        ):
            raise InvalidParameterError(
                "rebind requires the same head-graph objects; a changed "
                "CDS stage must rebuild the router and inherit_from"
            )
        self._result = result

    def inherit_from(
        self,
        old: "HeadRouter",
        removed: NodeId | None = None,
        changed_heads: frozenset[NodeId] = frozenset(),
    ) -> dict[str, int]:
        """Seed caches from ``old`` after the backbone was repaired/rebuilt.

        The same contract :meth:`LazyDistanceOracle.inherit_from`
        implements for rows/balls: every carried entry is *verified*
        still-valid against the new backbone, everything else rebuilds
        lazily on demand.  Validity is purely structural (the weighted
        head graphs and stored link paths are compared), so the method
        serves node removals and mobility edge deltas alike —
        ``removed`` only documents intent and may be omitted.

        * **link segments** carry over for links that are still selected
          with an identical stored gateway path;
        * a **Dijkstra tree** rooted at a surviving head ``h`` carries
          over iff no changed link could alter its distances *or its
          tie-breaking*.  The heapq Dijkstra settles nodes in
          deterministic ``(distance, id)`` order, so ``prev[v]`` is the
          achieving neighbor minimizing ``(dist, id)`` — a pure function
          of the metric and the candidate sets.  Hence a
          disappeared/lengthened link invalidates only when it *was* the
          chosen predecessor of its deeper endpoint; an
          appeared/shortened link invalidates when it strictly shortcuts
          (distances change), reaches a previously unreachable head
          (tree incomplete), or ties while beating the stored
          predecessor in ``(dist, id)`` order (prev would flip).  A
          carried tree is therefore *identical* to what a fresh run
          would build, so walks derived from it stay canonical;
        * **head sequences** are prev-chain reconstructions, so every
          sequence of a carried tree carries with it;
        * **expanded walks** additionally embed gateway paths, so each
          carries over only when every link along its head sequence kept
          its stored path.

        ``changed_heads`` (e.g. :attr:`RepairOutcome.scope_heads`) is an
        extra conservative mask: trees rooted at — and sequences/walks
        touching — a changed head are never inherited, even when the
        structural comparison finds no difference.

        Returns a counter dict (``trees`` / ``head_seqs`` / ``head_walks``
        / ``segments`` / ``head_graph_unchanged``) for maintenance
        reporting.
        """
        del removed  # validity is structural; the id only documents intent
        changed = {int(h) for h in changed_heads}
        stats = {
            "trees": 0,
            "head_seqs": 0,
            "head_walks": 0,
            "segments": 0,
            "head_graph_unchanged": 0,
        }
        new_vg = self._result.virtual_graph
        old_vg = old._result.virtual_graph
        new_links = self._result.selected_links
        old_links = old._result.selected_links
        if new_vg is old_vg and new_links is old_links:
            # The member-death splice reuses the virtual graph unchanged.
            same_path = set(new_links)
        else:
            same_path = {
                ab
                for ab in new_links & old_links
                if new_vg.link(*ab).path == old_vg.link(*ab).path
            }
        new_w, old_w = self._weight, old._weight
        for key, seg in old._segments.items():
            ab = key if key[0] < key[1] else (key[1], key[0])
            if ab in same_path and key not in self._segments:
                self._segments[key] = seg
                stats["segments"] += 1
        # Link events relative to the old trees' metric.
        gone = [
            (ab, old_w[ab])
            for ab in old_links
            if new_w.get(ab, UNREACHABLE_W) > old_w[ab]
        ]
        came = [
            (ab, new_w[ab])
            for ab in new_links
            if old_w.get(ab, UNREACHABLE_W) > new_w[ab]
        ]
        if not gone and not came:
            stats["head_graph_unchanged"] = 1
        inherited_trees = set()
        for h, tree in old._trees.items():
            if h in changed or h not in self._adj:
                continue
            dist, prev = tree
            ok = True
            for (a, b), w in gone:
                da, db = dist.get(a), dist.get(b)
                if da is None or db is None:
                    continue  # neither endpoint on any finite path pair
                if abs(da - db) != w:
                    continue  # slack: on no shortest path from h
                # The link achieved the deeper endpoint's distance; it
                # only matters if it was the *chosen* predecessor (the
                # settling-order argmin) — losing a non-chosen achieving
                # candidate changes neither dist nor prev.
                deeper, other = (a, b) if da > db else (b, a)
                if prev.get(deeper) == other:
                    ok = False
                    break
            if ok:
                for (a, b), w in came:
                    da, db = dist.get(a), dist.get(b)
                    if da is None and db is None:
                        continue  # still mutually unreachable from h
                    if da is None or db is None:
                        ok = False  # newly reachable head: tree incomplete
                        break
                    if da + w < db or db + w < da:
                        ok = False  # strict shortcut: distances change
                        break
                    # A tie adds an achieving candidate; it flips the
                    # deterministic prev (first-settled = smallest
                    # (dist, id)) only if it beats the stored one.
                    for x, y, dx, dy in ((a, b, da, db), (b, a, db, da)):
                        if dx + w == dy:
                            p = prev.get(y)
                            if p is None or (dx, x) < (dist[p], p):
                                ok = False
                                break
                    if not ok:
                        break
            if ok:
                self._trees[h] = tree
                inherited_trees.add(h)
                stats["trees"] += 1
        changed_links = (
            set(old_links) - same_path | {ab for ab, _ in came}
        )
        for key, seq in old._head_seqs.items():
            if key[0] not in inherited_trees:
                continue
            if changed and not changed.isdisjoint(seq):
                continue
            self._head_seqs[key] = seq
            stats["head_seqs"] += 1
        for key, walk in old._head_walks.items():
            if key[0] not in inherited_trees:
                continue
            seq = old._head_seqs.get(key)
            if seq is None:
                continue
            if changed and not changed.isdisjoint(seq):
                continue
            if changed_links and any(
                ((a, b) if a < b else (b, a)) in changed_links
                for a, b in zip(seq, seq[1:])
            ):
                continue
            self._head_walks[key] = walk
            stats["head_walks"] += 1
        return stats

    def tree(self, src_head: NodeId) -> tuple[dict, dict]:
        """The full Dijkstra ``(dist, prev)`` maps rooted at ``src_head``."""
        cached = self._trees.get(src_head)
        if cached is not None:
            return cached
        dist = {src_head: 0}
        prev: dict[NodeId, NodeId] = {}
        pq = [(0, src_head)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist.get(u, float("inf")):
                continue
            for w, v in self._adj[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, v))
        self._trees[src_head] = (dist, prev)
        return dist, prev

    def head_sequence(
        self, src_head: NodeId, dst_head: NodeId
    ) -> tuple[NodeId, ...]:
        """Shortest head sequence over selected virtual links (cached).

        Sequences are memoized per ordered pair along the Dijkstra tree's
        predecessor chains, so filling all pairs from one source costs
        O(total sequence length), not O(pairs · length).

        Raises:
            ValidationError: if the selected links do not connect the two
                heads (a broken backbone).
        """
        return self._seq(src_head, dst_head)

    def _seq(self, src_head: NodeId, dst_head: NodeId) -> tuple[NodeId, ...]:
        if src_head == dst_head:
            return (src_head,)
        key = (src_head, dst_head)
        cached = self._head_seqs.get(key)
        if cached is not None:
            return cached
        _, prev = self.tree(src_head)
        if dst_head not in prev:
            raise ValidationError(
                f"backbone does not connect heads {src_head} and {dst_head}"
            )
        # Walk back only as far as the first already-memoized prefix.
        suffix = [dst_head]
        cur = dst_head
        prefix: tuple[NodeId, ...] | None = None
        while True:
            cur = prev[cur]
            if cur == src_head:
                prefix = (src_head,)
                break
            prefix = self._head_seqs.get((src_head, cur))
            if prefix is not None:
                break
            suffix.append(cur)
        for i in range(len(suffix) - 1, -1, -1):
            prefix = prefix + (suffix[i],)
            self._head_seqs[(src_head, suffix[i])] = prefix
        return prefix

    def head_walk(self, src_head: NodeId, dst_head: NodeId) -> tuple[NodeId, ...]:
        """The expanded backbone walk ``src_head .. dst_head`` (cached).

        Adjacent heads of the sequence are joined by the selected link's
        stored gateway path, oriented in walk direction; walks are built
        incrementally from the memoized walk to the predecessor head, so
        filling all pairs from one source is O(total walk length).
        """
        if src_head == dst_head:
            return (src_head,)
        cached = self._head_walks.get((src_head, dst_head))
        if cached is not None:
            return cached
        seq = self._seq(src_head, dst_head)
        walks = self._head_walks
        walk = self._segment(seq[0], seq[1])
        walks.setdefault((src_head, seq[1]), walk)
        for i in range(2, len(seq)):
            key = (src_head, seq[i])
            nxt = walks.get(key)
            if nxt is None:
                nxt = walk + self._segment(seq[i - 1], seq[i])[1:]
                walks[key] = nxt
            walk = nxt
        return walk

    def _segment(self, a: NodeId, b: NodeId) -> tuple[NodeId, ...]:
        """The selected ``a``-``b`` link's gateway path, oriented a -> b."""
        seg = self._segments.get((a, b))
        if seg is None:
            path = self._result.virtual_graph.link(
                *((a, b) if a < b else (b, a))
            ).path
            seg = path if path[0] == a else tuple(reversed(path))
            self._segments[(a, b)] = seg
        return seg

    # -- multipath: equal-cost variants and k-shortest head walks ------- #

    def link_weight(self, a: NodeId, b: NodeId) -> int:
        """Weight (physical hop count) of the virtual link a-b.

        Answers for any link of the virtual graph, selected or not.

        Raises:
            KeyError: if the virtual graph has no a-b link.
        """
        return self._result.virtual_graph.link(
            *((a, b) if a < b else (b, a))
        ).weight

    def seq_weight(self, seq: tuple[NodeId, ...]) -> int:
        """Total physical hop count of a head sequence over selected links."""
        return sum(self.link_weight(a, b) for a, b in zip(seq, seq[1:]))

    def _rank(self, variant: int) -> dict[NodeId, int]:
        """A seeded permutation rank over heads (the tie-break order)."""
        ranks = self._alt_ranks.get(variant)
        if ranks is None:
            heads = sorted(self._adj)
            perm = np.random.default_rng(variant).permutation(len(heads))
            ranks = {h: int(r) for h, r in zip(heads, perm.tolist())}
            self._alt_ranks[variant] = ranks
        return ranks

    def alt_tree(
        self, src_head: NodeId, variant: int
    ) -> tuple[dict, dict]:
        """A Dijkstra tree with *seeded* tie-breaking (cached per variant).

        Identical distances to :meth:`tree`, but nodes at equal distance
        settle in a seeded-permutation order instead of ascending ID, so
        among equal-cost predecessors a different one wins ``prev`` —
        every variant yields shortest head sequences of the *same* weight
        along *different* equal-cost routes.  One tree per
        ``(variant, src_head)`` serves every destination, so the cost
        amortizes across all flows leaving one cluster.
        """
        key = (variant, src_head)
        cached = self._alt_trees.get(key)
        if cached is not None:
            return cached
        rank = self._rank(variant)
        dist = {src_head: 0}
        prev: dict[NodeId, NodeId] = {}
        pq = [(0, rank[src_head], src_head)]
        while pq:
            d, _, u = heapq.heappop(pq)
            if d > dist.get(u, float("inf")):
                continue
            for w, v in self._adj[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, rank[v], v))
        self._alt_trees[key] = (dist, prev)
        return dist, prev

    def alt_sequence(
        self, src_head: NodeId, dst_head: NodeId, variant: int
    ) -> tuple[NodeId, ...]:
        """A shortest head sequence under variant ``variant`` tie-breaking.

        Same weight as :meth:`head_sequence`'s canonical answer, possibly
        a different equal-cost route.

        Raises:
            ValidationError: if the selected links do not connect the pair.
        """
        if src_head == dst_head:
            return (src_head,)
        dist, prev = self.alt_tree(src_head, variant)
        if dst_head not in prev:
            raise ValidationError(
                f"backbone does not connect heads {src_head} and {dst_head}"
            )
        del dist
        seq = [dst_head]
        while seq[-1] != src_head:
            seq.append(prev[seq[-1]])
        return tuple(reversed(seq))

    def _spur(
        self,
        src: NodeId,
        dst: NodeId,
        first_hops: list[tuple[int, NodeId]],
        banned: set[NodeId],
        limit: float,
        to_dst: dict[NodeId, int],
    ) -> Optional[tuple[tuple[NodeId, ...], int]]:
        """Shortest ``src -> dst`` head path within ``limit`` (Yen's spur step).

        ``first_hops`` are the ``(weight, head)`` links leaving ``src``
        that survive Yen's edge bans, ``banned`` the root-prefix heads no
        later hop may enter.  Settle order is ``(dist, id)`` with an early
        exit at ``dst``; returns the path and its weight, or None.

        A relaxation to ``v`` is skipped when ``nd + to_dst[v] > limit``
        (``to_dst``: exact unrestricted distances to ``dst``, absent =
        unreachable).  The test is monotone in ``nd`` and only drops heads
        that cannot lie on any path to ``dst`` within ``limit``.  Every
        head on the path the unpruned search returns, and every tight
        predecessor of such a head, passes it (the remainder from a tight
        predecessor is at most its link weight plus the successor's), so
        those heads settle with the same distances in the same
        ``(dist, id)`` order and ``prev`` resolves to the same path.  No
        A* ordering: that would change which equal-cost spur wins.
        """
        dist = {src: 0}
        prev: dict[NodeId, NodeId] = {}
        pq: list[tuple[int, NodeId]] = []
        for w, v in first_hops:
            dist[v] = w
            prev[v] = src
            pq.append((w, v))
        heapq.heapify(pq)
        adj = self._adj
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            if u == dst:
                seq = [dst]
                while seq[-1] != src:
                    seq.append(prev[seq[-1]])
                return tuple(reversed(seq)), d
            for w, v in adj[u]:
                if v in banned:
                    continue
                nd = d + w
                if nd + to_dst.get(v, UNREACHABLE_W) > limit:
                    continue
                if nd < dist.get(v, UNREACHABLE_W):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(pq, (nd, v))
        return None

    def k_shortest_sequences(
        self,
        src_head: NodeId,
        dst_head: NodeId,
        k: int,
        max_weight: float = float("inf"),
    ) -> list[tuple[NodeId, ...]]:
        """Up to ``k`` loopless shortest head sequences, Yen-style (cached).

        The first entry is always the canonical :meth:`head_sequence`;
        later entries ascend in ``(weight, sequence)`` order, so the list
        is fully deterministic.  Spur paths reuse the head adjacency with
        per-deviation node/edge bans; every returned sequence is loopless
        (the root prefix is loopless and the spur avoids its nodes).
        ``max_weight`` caps the total sequence weight.

        The cap is goal-bounded: the cached canonical :meth:`tree` rooted
        at ``dst_head`` gives exact distances *to* the target (the head
        graph is undirected with weights >= 1), so a spur search drops
        every head whose distance so far plus its remaining distance
        exceeds the residual budget, and a spur node none of whose
        unbanned first hops fits the budget is skipped without a search.
        Once ``need`` more sequences are wanted and ``need`` candidates
        are queued, the cap tightens (inclusively) to the ``need``-th
        lightest queued weight: the remaining rounds pop only candidates
        at most that heavy, and that bound never rises, so a heavier
        detour could never be picked.  Either way only detours that could
        not be returned are lost, and :meth:`_spur` shows why the ones
        that fit come out as the same path, so the result equals the
        unpruned Yen's (Yen 1971) bit for bit.  Root and candidate
        weights are running sums over the selected links, not re-summed
        per candidate.

        Raises:
            InvalidParameterError: if ``k < 1``.
            ValidationError: if the selected links do not connect the pair.
        """
        if k < 1:
            raise InvalidParameterError("k_shortest_sequences needs k >= 1")
        key = (src_head, dst_head, k, max_weight)
        cached = self._kshort.get(key)
        if cached is not None:
            return list(cached)
        if src_head == dst_head:
            found = [(src_head,)]
            self._kshort[key] = found
            return list(found)
        first = self._seq(src_head, dst_head)
        to_dst = self.tree(dst_head)[0]
        weight = self._weight
        counts = self.spur_counts
        found = [first]
        seen = {first}
        candidates: list[tuple[int, tuple[NodeId, ...]]] = []
        while len(found) < k:
            base = found[-1]
            need = k - len(found)
            cap = max_weight
            root_w = 0
            banned: set[NodeId] = set()
            for j in range(len(base) - 1):
                if len(candidates) >= need:
                    cap = min(cap, heapq.nsmallest(need, candidates)[-1][0])
                if j:
                    root_w += weight[(base[j - 1], base[j])]
                    banned.add(base[j - 1])
                budget = cap - root_w
                if budget < 0:
                    break
                spur = base[j]
                root = base[: j + 1]
                # Yen's edge bans all leave the spur node: the next hops
                # of the found sequences that share this root.
                taken = {
                    p[j + 1] for p in found if len(p) > j + 1 and p[: j + 1] == root
                }
                first_hops = [
                    (w, v)
                    for w, v in self._adj[spur]
                    if v not in banned
                    and v not in taken
                    and w + to_dst.get(v, UNREACHABLE_W) <= budget
                ]
                if not first_hops:
                    counts["spurs_skipped"] += 1
                    continue
                counts["spur_searches"] += 1
                hit = self._spur(
                    spur, dst_head, first_hops, banned, budget, to_dst
                )
                if hit is None:
                    continue
                seq = root + hit[0][1:]
                if seq in seen:
                    continue
                seen.add(seq)
                heapq.heappush(candidates, (root_w + hit[1], seq))
            if not candidates:
                break
            _, best = heapq.heappop(candidates)
            found.append(best)
        self._kshort[key] = found
        return list(found)

    def walk_for_seq(self, seq: tuple[NodeId, ...]) -> tuple[NodeId, ...]:
        """The expanded backbone walk along an explicit head sequence.

        The multipath counterpart of :meth:`head_walk`: adjacent heads
        join through the selected links' stored gateway paths, oriented
        in walk direction; results are memoized per sequence so balanced
        batches expand each candidate once.

        Raises:
            InvalidParameterError: if consecutive heads are not joined by
                a selected link (via the virtual graph's link lookup).
        """
        if len(seq) < 2:
            return seq
        cached = self._seq_walks.get(seq)
        if cached is None:
            walk = list(self._segment(seq[0], seq[1]))
            for i in range(2, len(seq)):
                walk.extend(self._segment(seq[i - 1], seq[i])[1:])
            cached = tuple(walk)
            self._seq_walks[seq] = cached
        return cached

    def walk(
        self, oracle: PathOracle, source: NodeId, target: NodeId
    ) -> tuple[NodeId, ...]:
        """The full cluster-routing walk from ``source`` to ``target``.

        Same cluster: direct canonical path (members know their own
        cluster).  Different clusters: source -> head -> backbone -> head
        -> target.  The returned walk may revisit nodes (e.g. the source's
        head path overlapping the backbone); its *length* is what stretch
        measures.
        """
        cl = self._result.clustering
        if not (0 <= source < cl.graph.n and 0 <= target < cl.graph.n):
            raise InvalidParameterError("route endpoints out of range")
        if source == target:
            return (source,)
        hs, ht = cl.cluster_of(source), cl.cluster_of(target)
        if hs == ht:
            return oracle.path(source, target)
        walk: list[NodeId] = list(oracle.path(source, hs))
        walk.extend(self.head_walk(hs, ht)[1:])
        walk.extend(oracle.path(ht, target)[1:])
        return tuple(walk)


def route(
    result: BackboneResult,
    oracle: PathOracle,
    source: NodeId,
    target: NodeId,
) -> tuple[NodeId, ...]:
    """The cluster-routing walk from ``source`` to ``target``.

    Scalar convenience form: same-cluster pairs never touch the head
    graph; inter-cluster pairs build a transient :class:`HeadRouter` per
    call, so a loop over many pairs re-pays the head-graph setup every
    time — exactly the baseline the batch router
    (:class:`repro.traffic.router.BatchRouter`) amortizes.
    """
    cl = result.clustering
    if not (0 <= source < cl.graph.n and 0 <= target < cl.graph.n):
        raise InvalidParameterError("route endpoints out of range")
    if source == target:
        return (source,)
    if cl.cluster_of(source) == cl.cluster_of(target):
        return oracle.path(source, target)
    return HeadRouter(result).walk(oracle, source, target)


def table_sizes(result: BackboneResult) -> dict[NodeId, int]:
    """Per-node routing-table entry counts under cluster routing.

    Members store their cluster co-members; heads additionally store one
    backbone entry per other clusterhead.
    """
    cl = result.clustering
    out: dict[NodeId, int] = {}
    n_heads = len(result.heads)
    for h in cl.heads:
        size = len(cl.members(h))
        for u in cl.members(h):
            out[u] = size - 1  # routes to co-members
        out[h] = (size - 1) + (n_heads - 1)  # plus the backbone table
    return out


@dataclass(frozen=True)
class RoutingReport:
    """Sampled routing metrics for one backbone.

    Attributes:
        pairs: number of sampled (source, target) pairs.
        mean_stretch / max_stretch: walk length over shortest-path length.
        mean_table / max_table: cluster-routing table sizes.
        flat_table: the link-state baseline table size (n - 1).
    """

    pairs: int
    mean_stretch: float
    max_stretch: float
    mean_table: float
    max_table: int
    flat_table: int


def routing_report(
    result: BackboneResult,
    oracle: PathOracle,
    *,
    samples: int = 50,
    seed: int = 0,
    router: Optional[HeadRouter] = None,
) -> RoutingReport:
    """Sample random pairs and measure stretch + table sizes.

    Every sampled walk is validated edge-by-edge against the real graph
    before being counted.  One :class:`HeadRouter` is shared across the
    samples (pass ``router`` to share it further).
    """
    g = result.clustering.graph
    if g.n < 2:
        raise InvalidParameterError("routing needs at least two nodes")
    rng = np.random.default_rng(seed)
    pairs = [
        tuple(int(x) for x in rng.choice(g.n, size=2, replace=False))
        for _ in range(samples)
    ]
    hr = router or HeadRouter(result)
    walks = []
    for s, t in pairs:
        walk = hr.walk(oracle, s, t)
        for a, b in zip(walk, walk[1:]):
            if not g.has_edge(a, b):
                raise ValidationError(f"routing walk uses non-edge ({a},{b})")
        walks.append(walk)
    # One bulk pair-distance query: grouped batched rows on the lazy
    # backend, O(|label|) label joins per pair on the landmark backend.
    shortest = g.oracle.pair_distances(pairs)
    stretches = [
        (len(walk) - 1) / int(d) for walk, d in zip(walks, shortest)
    ]
    tables = table_sizes(result)
    sizes = list(tables.values())
    return RoutingReport(
        pairs=samples,
        mean_stretch=float(np.mean(stretches)),
        max_stretch=float(np.max(stretches)),
        mean_table=float(np.mean(sizes)),
        max_table=int(np.max(sizes)),
        flat_table=g.n - 1,
    )

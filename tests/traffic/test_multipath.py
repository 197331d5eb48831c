"""Multipath primitives and the load-adaptive ``balance=`` routing mode."""

import math

import numpy as np
import pytest

from repro.cds.routing import HeadRouter
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.net.topology import random_topology
from repro.traffic.load import measure_load
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs

from ..reference import (
    reference_candidate_records,
    reference_k_shortest_sequences,
)

#: Backbones the goal-bounded Yen is checked against the reference on:
#: a near-tree (AC-LMST), a tree (G-MST) and a cycle-rich mesh (NC-Mesh).
DIFF_ALGORITHMS = ("AC-LMST", "G-MST", "NC-Mesh")
#: Weight caps, as multiples of the pair's canonical weight.
CAP_FACTORS = (math.inf, 1.0, 1.25, 1.5, 2.0)


@pytest.fixture(scope="module")
def backbone():
    topo = random_topology(150, degree=7.0, seed=13)
    return build_backbone(khop_cluster(topo.graph, 2), "AC-LMST")


@pytest.fixture(scope="module")
def head_pairs(backbone):
    """A spread of distinct head pairs to exercise."""
    heads = backbone.heads
    return [
        (heads[i], heads[j])
        for i in range(0, len(heads), 3)
        for j in range(1, len(heads), 4)
        if heads[i] != heads[j]
    ][:40]


class TestKShortestSequences:
    def test_first_sequence_is_canonical(self, backbone, head_pairs):
        hr = HeadRouter(backbone)
        for a, b in head_pairs:
            seqs = hr.k_shortest_sequences(a, b, 4)
            assert seqs[0] == hr.head_sequence(a, b)

    def test_sequences_sorted_loopless_distinct(self, backbone, head_pairs):
        hr = HeadRouter(backbone)
        for a, b in head_pairs:
            seqs = hr.k_shortest_sequences(a, b, 4)
            assert 1 <= len(seqs) <= 4
            weights = [hr.seq_weight(s) for s in seqs]
            assert weights == sorted(weights)
            assert len(set(seqs)) == len(seqs)
            for s in seqs:
                assert s[0] == a and s[-1] == b
                assert len(set(s)) == len(s)  # loopless
                for u, v in zip(s, s[1:]):
                    assert hr.link_weight(u, v) >= 1  # real head edges

    def test_max_weight_bounds_detours(self, backbone, head_pairs):
        hr = HeadRouter(backbone)
        for a, b in head_pairs:
            w0 = hr.seq_weight(hr.head_sequence(a, b))
            bound = 1.5 * max(w0, 1)
            for s in hr.k_shortest_sequences(a, b, 4, max_weight=bound):
                assert hr.seq_weight(s) <= bound + 1e-9

    def test_k_one_is_just_canonical(self, backbone, head_pairs):
        hr = HeadRouter(backbone)
        a, b = head_pairs[0]
        assert hr.k_shortest_sequences(a, b, 1) == [hr.head_sequence(a, b)]

    def test_walk_for_seq_expands_segments(self, backbone, head_pairs):
        g = backbone.clustering.graph
        hr = HeadRouter(backbone)
        for a, b in head_pairs[:10]:
            for s in hr.k_shortest_sequences(a, b, 3):
                walk = hr.walk_for_seq(s)
                assert walk[0] == a and walk[-1] == b
                for u, v in zip(walk, walk[1:]):
                    assert g.has_edge(u, v)
                # the walk visits the sequence's heads in order
                it = iter(walk)
                assert all(h in it for h in s)


class TestYenAgainstReference:
    """The goal-bounded Yen returns the unpruned reference's lists exactly."""

    @pytest.fixture(scope="class", params=DIFF_ALGORITHMS)
    def diff_backbone(self, request):
        topo = random_topology(150, degree=7.0, seed=13)
        return build_backbone(khop_cluster(topo.graph, 2), request.param)

    def test_every_pair_k_and_cap(self, diff_backbone):
        hr = HeadRouter(diff_backbone)
        heads = diff_backbone.heads
        compared = 0
        detours = 0
        for a in heads:
            for b in heads:
                canon = max(hr.seq_weight(hr.head_sequence(a, b)), 1)
                for factor in CAP_FACTORS:
                    cap = factor * canon
                    # Unpruned Yen is incremental: the k-list is the
                    # first k entries of the 5-list.
                    ref = reference_k_shortest_sequences(
                        diff_backbone, a, b, 5, max_weight=cap
                    )
                    detours += len(ref) > 1
                    for k in range(1, 6):
                        got = hr.k_shortest_sequences(a, b, k, max_weight=cap)
                        assert got == ref[:k], (a, b, k, factor)
                        compared += 1
        assert compared == len(heads) ** 2 * len(CAP_FACTORS) * 5
        # Not vacuous: a connected head graph has detours iff it has a
        # cycle, i.e. at least as many links as heads.
        links = len(diff_backbone.selected_links)
        assert (detours > 0) == (links >= len(heads))
        # the bound did work: some spur nodes were skipped outright
        assert hr.spur_counts["spurs_skipped"] > 0


class TestLinkWeightContract:
    def test_any_virtual_link_and_key_error(self, backbone):
        hr = HeadRouter(backbone)
        vg = backbone.virtual_graph
        unselected = [
            link
            for link in vg.links()
            if (link.u, link.v) not in backbone.selected_links
        ]
        assert unselected, "fixture backbone should leave some links out"
        for link in vg.links():
            assert hr.link_weight(link.u, link.v) == link.weight
            assert hr.link_weight(link.v, link.u) == link.weight
        heads = backbone.heads
        absent = next(
            (a, b)
            for a in heads
            for b in heads
            if a < b and not vg.has_link(a, b)
        )
        with pytest.raises(KeyError):
            hr.link_weight(*absent)


class TestCandidateRecords:
    def test_batched_records_match_per_walk_unique(self, backbone, head_pairs):
        br = BatchRouter(backbone)
        hr = br.router
        # Overlapping groups, as the balance path builds them: the same
        # sequence may be a candidate of several groups.
        cand_seqs = [
            hr.k_shortest_sequences(a, b, 4)
            + [hr.alt_sequence(a, b, 8), hr.head_sequence(a, b)]
            for a, b in head_pairs
        ]
        got = br._candidate_records(cand_seqs)
        want = reference_candidate_records(
            hr, [s for seqs in cand_seqs for s in seqs]
        )
        assert list(got) == list(want)
        for seq, (un, cnt, links, sq) in want.items():
            g_un, g_cnt, g_links, g_sq = got[seq]
            assert g_un.dtype == un.dtype and g_un.tobytes() == un.tobytes()
            assert g_cnt.dtype == cnt.dtype and g_cnt.tobytes() == cnt.tobytes()
            assert g_links == links
            assert g_sq == sq


class TestTieVariants:
    def test_alt_sequences_keep_distance(self, backbone, head_pairs):
        """Seeded tie-breaking only reroutes among equal-cost paths."""
        hr = HeadRouter(backbone)
        for a, b in head_pairs:
            w0 = hr.seq_weight(hr.head_sequence(a, b))
            for variant in range(4):
                s = hr.alt_sequence(a, b, variant)
                assert s[0] == a and s[-1] == b
                assert hr.seq_weight(s) == w0

    def test_variants_deterministic_across_routers(self, backbone, head_pairs):
        h1, h2 = HeadRouter(backbone), HeadRouter(backbone)
        for a, b in head_pairs[:10]:
            for variant in range(3):
                assert h1.alt_sequence(a, b, variant) == h2.alt_sequence(
                    a, b, variant
                )


class TestBalancedRouting:
    @pytest.fixture(scope="class")
    def batches(self, backbone):
        g = backbone.clustering.graph
        wl = uniform_pairs(g.n, 600, seed=23, demand=2)
        canonical = BatchRouter(backbone).route_flows(wl)
        balancer = BatchRouter(backbone)
        balanced = balancer.route_flows(wl, balance=True)
        return wl, canonical, balanced, balancer

    def test_walks_are_real_edge_walks(self, backbone, batches):
        g = backbone.clustering.graph
        wl, _, balanced, _ = batches
        for i, walk in enumerate(balanced.walks):
            assert walk[0] == wl.sources[i]
            assert walk[-1] == wl.targets[i]
            for a, b in zip(walk, walk[1:]):
                assert g.has_edge(a, b)
        assert (balanced.hops >= balanced.shortest).all()

    def test_flow_conservation(self, backbone, batches):
        wl, _, balanced, _ = batches
        load = measure_load(backbone, balanced)
        d = wl.demands
        assert load.packet_hops == int((d * balanced.hops).sum())
        assert int(load.tx.sum()) == load.packet_hops
        assert int(load.rx.sum()) == load.packet_hops
        assert int(load.transit.sum()) == int((d * (balanced.hops - 1)).sum())

    def test_only_inter_cluster_walks_change(self, batches):
        """Balance swaps head walks; legs and intra flows are untouched."""
        wl, canonical, balanced, _ = batches
        for i, (seq, canon) in enumerate(
            zip(balanced.head_paths, canonical.head_paths)
        ):
            assert bool(seq) == bool(canon)
            if not seq:
                assert balanced.walks[i] == canonical.walks[i]
            else:
                assert (seq[0], seq[-1]) == (canon[0], canon[-1])

    def test_stretch_bound_respected(self, batches):
        wl, canonical, balanced, balancer = batches
        hr = balancer.router
        for seq, canon in zip(balanced.head_paths, canonical.head_paths):
            if seq:
                assert hr.seq_weight(seq) <= 1.5 * max(
                    hr.seq_weight(canon), 1
                )

    def test_deterministic(self, backbone, batches):
        wl, _, balanced, _ = batches
        again = BatchRouter(backbone).route_flows(wl, balance=True)
        assert again.walks == balanced.walks
        assert again.head_paths == balanced.head_paths

    def test_balance_does_not_hurt_fairness(self, backbone, batches):
        _, canonical, balanced, _ = batches
        base = measure_load(backbone, canonical)
        load = measure_load(backbone, balanced)
        assert load.backbone_fairness >= base.backbone_fairness

    def test_stats_published(self, batches):
        *_, balancer = batches
        stats = balancer.last_balance
        assert set(stats) == {
            "groups",
            "candidates",
            "moves",
            "flows_rerouted",
        }
        assert stats["groups"] > 0
        assert stats["candidates"] >= stats["groups"]

    def test_all_flows_stay_valid(self, batches):
        _, canonical, balanced, _ = batches
        assert balanced.valid is None
        assert balanced.num_valid == canonical.num_valid
        assert balanced.delivered_fraction() == 1.0

    def test_seed_changes_are_contained(self, backbone, batches):
        """A different balance seed still satisfies every invariant."""
        wl, canonical, _, _ = batches
        other = BatchRouter(backbone).route_flows(
            wl, balance=True, balance_seed=99
        )
        hr = BatchRouter(backbone).router
        for seq, canon in zip(other.head_paths, canonical.head_paths):
            assert bool(seq) == bool(canon)
            if seq:
                assert hr.seq_weight(seq) <= 1.5 * max(
                    hr.seq_weight(canon), 1
                )

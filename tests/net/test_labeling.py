"""Equivalence tests for the landmark backend, batched rows, and
incremental (post-removal) oracle states.

The load-bearing property of the whole acceleration layer: the
``landmark`` backend's label joins and the lazy backend's bit-packed
batched rows are *observationally identical* to plain per-source BFS —
on the paper's unit-disk instances, on structured large-diameter
scenarios (toroidal grid, ring of cliques), and on the incrementally
derived graphs churn produces via single-node removals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import grid_graph, ring_of_cliques, toroidal_grid
from repro.net.graph import UNREACHABLE, Graph
from repro.net.labeling import (
    LandmarkDistanceOracle,
    _build_pruned_labels_reference,
    build_pruned_labels,
)
from repro.net.oracle import (
    DIST_DTYPE,
    LazyDistanceOracle,
    build_distance_oracle,
    resolve_backend,
)
from repro.net.topology import random_topology

from ..conftest import connected_graphs, graphs
from ..reference import all_pairs_hops


def unit_disk(n: int, seed: int) -> Graph:
    """A connected unit-disk instance in the paper's regime."""
    return random_topology(n, degree=8.0, seed=seed).graph


#: The three scenario families the satellite task names.
SCENARIOS = [
    pytest.param(lambda: unit_disk(60, 11), id="unit-disk-60"),
    pytest.param(lambda: unit_disk(150, 13), id="unit-disk-150"),
    pytest.param(lambda: toroidal_grid(8, 9), id="toroidal-8x9"),
    pytest.param(lambda: toroidal_grid(12, 12), id="toroidal-12x12"),
    pytest.param(lambda: ring_of_cliques(6, 7), id="ring-of-cliques-6x7"),
    pytest.param(lambda: ring_of_cliques(12, 4), id="ring-of-cliques-12x4"),
]


def reference_rows(g: Graph) -> np.ndarray:
    """Ground truth: plain per-source CSR BFS rows."""
    ref = LazyDistanceOracle(g)
    return np.stack([ref.row(u) for u in range(g.n)])


@pytest.mark.parametrize("make", SCENARIOS)
def test_landmark_and_batched_agree_on_scenarios(make):
    g = make()
    truth = reference_rows(Graph(g.n, g.edges))
    lazy = build_distance_oracle(g, "lazy")
    landmark = build_distance_oracle(g, "landmark")
    assert isinstance(landmark, LandmarkDistanceOracle)
    # batched rows (all sources at once -> multiple bit-packed sweeps)
    assert np.array_equal(lazy.rows(range(g.n)), truth)
    # landmark pair queries against every truth entry
    rng = np.random.default_rng(7)
    us = rng.integers(0, g.n, 250)
    vs = rng.integers(0, g.n, 250)
    for u, v in zip(us.tolist(), vs.tolist()):
        assert landmark.distance(u, v) == int(truth[u, v])
    # bulk pair APIs
    pairs = list(zip(us.tolist(), vs.tolist()))
    assert np.array_equal(
        landmark.pair_distances(pairs), truth[us, vs].astype(DIST_DTYPE)
    )
    nodes = sorted({int(x) for x in rng.integers(0, g.n, 12)})
    assert np.array_equal(
        landmark.pairwise_distances(nodes),
        truth[np.ix_(nodes, nodes)],
    )


@pytest.mark.parametrize("make", SCENARIOS)
def test_backends_agree_after_incremental_removals(make):
    """Post-removal states: fast-path graphs + inherited caches stay exact."""
    g = make().use_distance_backend("lazy")
    rng = np.random.default_rng(3)
    # Warm caches so inheritance actually has something to carry over.
    for s in range(0, g.n, 7):
        g.oracle.ball(s, 2)
    for s in range(0, g.n, 17):
        g.oracle.row(s)
    removed: list[int] = []
    current = g
    for _ in range(4):
        x = int(rng.integers(0, g.n))
        while x in removed:
            x = int(rng.integers(0, g.n))
        removed.append(x)
        current = current.without_nodes([x])  # single-node fast path
        # reference: rebuilt cold from the surviving edge list
        ref = Graph(g.n, [e for e in g.edges if not set(e) & set(removed)])
        truth = reference_rows(ref)
        assert current.edges == ref.edges
        lazy_rows = current.oracle.rows(range(g.n))
        assert np.array_equal(lazy_rows, truth)
        # balls from the (possibly inherited) cache
        for s in range(0, g.n, 7):
            nodes, dists = current.oracle.ball(s, 2)
            ref_nodes = np.flatnonzero(
                (truth[s] <= 2) & (truth[s] < UNREACHABLE)
            )
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(dists, truth[s][ref_nodes])
        # landmark backend rebuilt on the derived graph stays exact
        landmark = build_distance_oracle(current, "landmark")
        qs = rng.integers(0, g.n, 60).reshape(-1, 2)
        for u, v in qs.tolist():
            assert landmark.distance(u, v) == int(truth[u, v])


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_landmark_rows_and_balls_match_lazy(g):
    # row/ball machinery is inherited from the lazy backend; pair queries
    # come from labels — all three must agree on arbitrary graphs.
    lazy = build_distance_oracle(g, "lazy")
    landmark = build_distance_oracle(g, "landmark")
    for u in range(g.n):
        assert np.array_equal(landmark.row(u), lazy.row(u))
        for v in range(g.n):
            assert landmark.distance(u, v) == int(lazy.row(u)[v])


@given(connected_graphs(max_n=12), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_labels_exact_after_chained_removals(g, removals):
    current = g.use_distance_backend("landmark")
    alive = list(range(g.n))
    for _ in range(min(removals, g.n - 1)):
        x = alive.pop(len(alive) // 2)
        current = current.without_nodes([x])
    oracle = current.distance_oracle("landmark")
    reference = LazyDistanceOracle(Graph(current.n, current.edges))
    for u in range(current.n):
        ref_row = reference.row(u)
        for v in range(current.n):
            assert oracle.distance(u, v) == int(ref_row[v])


def assert_labels_match_reference(g: Graph) -> None:
    """The 64-root sweep and the per-root pruned BFS agree byte for byte."""
    indptr, indices = g.csr_adjacency
    v_ranks, v_dists, v_order = build_pruned_labels(indptr, indices, g.n)
    r_ranks, r_dists, r_order = _build_pruned_labels_reference(
        indptr, indices, g.n
    )
    assert np.array_equal(v_order, r_order)
    assert len(v_ranks) == len(v_dists) == g.n
    for u in range(g.n):
        assert np.array_equal(v_ranks[u], r_ranks[u]), u
        assert np.array_equal(v_dists[u], r_dists[u]), u
        assert v_ranks[u].dtype == r_ranks[u].dtype
        assert v_dists[u].dtype == r_dists[u].dtype


def assert_canonical_labels(g: Graph) -> None:
    """``r`` is in ``L(v)`` iff no vertex ranked before ``r`` lies on a
    shortest ``r``-``v`` path (``v`` included), at distance ``d(r, v)``."""
    indptr, indices = g.csr_adjacency
    ranks, dists, order = build_pruned_labels(indptr, indices, g.n)
    hops = all_pairs_hops(g).astype(np.int64)
    for rank, r in enumerate(order.tolist()):
        earlier = order[:rank]
        via = hops[r, earlier][:, None] + hops[earlier, :]
        covered = (via == hops[r]).any(axis=0)
        expected = (hops[r] < UNREACHABLE) & ~covered
        for v in range(g.n):
            pos = np.flatnonzero(ranks[v] == rank)
            assert pos.size == int(expected[v]), (r, v)
            if pos.size:
                assert int(dists[v][pos[0]]) == hops[r, v], (r, v)


def sparse_random_graph(n: int, seed: int) -> Graph:
    """About one edge per node: isolated nodes and many components."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(n, 2)).tolist()
    return Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


class TestVectorizedConstruction:
    """The 64-root bit-packed builder vs the per-node reference."""

    @pytest.mark.parametrize(
        "make",
        SCENARIOS
        + [
            # Multi-block graphs where most ranks fall to the ID
            # tie-break, so lanes of one block block each other often.
            pytest.param(lambda: grid_graph(11, 12), id="grid-11x12"),
            pytest.param(lambda: ring_of_cliques(20, 7), id="ring-20x7"),
        ],
    )
    def test_labels_identical_to_reference(self, make):
        assert_labels_match_reference(make())

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_labels_identical_on_random_graphs(self, g):
        indptr, indices = g.csr_adjacency
        v = build_pruned_labels(indptr, indices, g.n)
        r = _build_pruned_labels_reference(indptr, indices, g.n)
        for u in range(g.n):
            assert np.array_equal(v[0][u], r[0][u])
            assert np.array_equal(v[1][u], r[1][u])

    def test_disconnected_and_isolated_nodes(self):
        g = Graph(6, [(0, 1), (1, 2), (4, 5)])  # node 3 isolated
        indptr, indices = g.csr_adjacency
        v = build_pruned_labels(indptr, indices, g.n)
        r = _build_pruned_labels_reference(indptr, indices, g.n)
        for u in range(g.n):
            assert np.array_equal(v[0][u], r[0][u])
            assert np.array_equal(v[1][u], r[1][u])
        # the isolated node still labels itself (exact self-distance 0)
        oracle = LandmarkDistanceOracle(g)
        assert oracle.distance(3, 3) == 0
        assert oracle.distance(3, 0) == UNREACHABLE

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_labels_identical_at_block_boundaries(self, n):
        # Root blocks are 64 lanes wide: one short of, exactly at, and
        # one past each block edge, connected and fragmented.
        assert_labels_match_reference(unit_disk(n, seed=n))
        assert_labels_match_reference(sparse_random_graph(n, seed=n))

    @given(graphs(max_n=70, max_edges=140))
    @settings(max_examples=40, deadline=None)
    def test_labels_identical_on_graphs_of_any_connectivity(self, g):
        assert_labels_match_reference(g)

    @given(graphs(max_n=24, max_edges=40))
    @settings(max_examples=40, deadline=None)
    def test_labels_follow_the_canonical_rule(self, g):
        assert_canonical_labels(g)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: unit_disk(150, 13), id="unit-disk-150"),
            pytest.param(lambda: grid_graph(9, 10), id="grid-9x10"),
            pytest.param(lambda: sparse_random_graph(140, 5), id="sparse-140"),
        ],
    )
    def test_multi_block_labels_follow_the_canonical_rule(self, make):
        assert_canonical_labels(make())

    def test_empty_graph(self):
        g = Graph(0)
        indptr, indices = g.csr_adjacency
        ranks, dists, order = build_pruned_labels(indptr, indices, 0)
        assert ranks == [] and dists == [] and order.size == 0


class TestDistDtypeContract:
    """The repro-lint R002 findings, frozen as behavior.

    ``build_pruned_labels`` once kept label distances in int64; they are
    DIST_DTYPE now.  An earlier sequential builder also ran the prune
    check's sentinel arithmetic (``UNREACHABLE + d``), which wraps
    negative in int32.  The 64-root sweep never adds to the sentinel (an
    entry's distance is the BFS depth that reached it), but every
    cross-component pair still answers through it, so a disconnected
    graph stays the family where a careless narrowing would leak the
    sentinel into a stored label or a join.
    """

    def test_label_distances_are_dist_dtype(self):
        g = toroidal_grid(6, 6)
        indptr, indices = g.csr_adjacency
        _, dists, _ = build_pruned_labels(indptr, indices, g.n)
        assert dists and all(d.dtype == DIST_DTYPE for d in dists)

    def test_sentinel_arithmetic_survives_disconnection(self):
        # Three components of very different shapes: a long path, a
        # clique, and a single edge.  Every prune check rooted in one
        # component sees the sentinel for hubs of the others.
        edges = [(i, i + 1) for i in range(9)]
        edges += [
            (10 + a, 10 + b) for a in range(5) for b in range(a + 1, 5)
        ]
        edges += [(15, 16)]
        g = Graph(17, edges)
        indptr, indices = g.csr_adjacency
        v_ranks, v_dists, v_order = build_pruned_labels(indptr, indices, g.n)
        r_ranks, r_dists, r_order = _build_pruned_labels_reference(
            indptr, indices, g.n
        )
        assert np.array_equal(v_order, r_order)
        for u in range(g.n):
            assert np.array_equal(v_ranks[u], r_ranks[u]), u
            assert np.array_equal(v_dists[u], r_dists[u]), u
            # the sentinel itself never leaks into a stored label
            assert (v_dists[u] < UNREACHABLE).all()
            assert (v_dists[u] >= 0).all()
        oracle = LandmarkDistanceOracle(g)
        assert oracle.distance(0, 12) == UNREACHABLE
        assert oracle.distance(16, 3) == UNREACHABLE
        assert oracle.distance(0, 9) == 9


class TestPrunedLabels:
    def test_labels_cover_all_pairs_exactly(self):
        g = ring_of_cliques(5, 4)
        indptr, indices = g.csr_adjacency
        ranks, dists, order = build_pruned_labels(indptr, indices, g.n)
        assert order.size == g.n
        # every node labels itself through some hub at distance 0
        for u in range(g.n):
            assert (dists[u] == 0).sum() == 1
            assert ranks[u].size >= 1
            # ranks are strictly increasing (sorted joins rely on this)
            assert (np.diff(ranks[u]) > 0).all()

    def test_degree_ranked_landmark_order(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        oracle = LandmarkDistanceOracle(g)
        oracle.distance(3, 4)  # trigger lazy label construction
        # hub 0 has degree 4: rank 0, and a small landmark set suffices
        assert oracle.landmarks(1) == (0,)
        stats = oracle.stats()
        assert stats.backend == "landmark"
        assert stats.label_entries > 0
        assert stats.pair_queries >= 1

    def test_labels_built_lazily(self):
        g = toroidal_grid(4, 4)
        oracle = LandmarkDistanceOracle(g)
        oracle.ball(0, 2)
        oracle.row(3)
        assert not oracle.labels_built  # ball/row queries never need labels
        assert oracle.distance(0, 5) >= 1
        assert oracle.labels_built

    def test_landmark_backend_resolution(self):
        assert resolve_backend("landmark") == "landmark"
        g = Graph(3, [(0, 1)])
        assert g.use_distance_backend("landmark").oracle.backend == "landmark"

    def test_label_sizes_stay_small_on_unit_disk(self):
        # The √n-landmark claim, operationally: average label size on a
        # unit-disk instance stays a small multiple of √n.
        g = unit_disk(150, 17)
        oracle = LandmarkDistanceOracle(g)
        oracle.distance(0, g.n - 1)
        avg = oracle.stats().label_entries / g.n
        assert avg <= 4.0 * np.sqrt(g.n)

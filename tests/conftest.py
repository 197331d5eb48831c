"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.net.graph import Graph
from repro.net.topology import Topology, random_topology


# --------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------- #


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 18, max_extra: int = 25):
    """Random connected graphs: a random spanning tree plus extra edges.

    The tree guarantees connectivity; the extra edges densify arbitrarily,
    so the strategy covers trees, sparse graphs and near-cliques.
    """
    n = draw(st.integers(min_n, max_n))
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.add((p, i))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 18, max_edges: int = 30):
    """Random simple graphs with no connectivity guarantee.

    Edges are drawn independently, so the strategy covers empty graphs,
    isolated nodes and several components as readily as connected ones.
    """
    n = draw(st.integers(min_n, max_n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 20):
    """Random labelled trees (connected, m = n - 1)."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.append((p, i))
    return Graph(n, edges)


#: The paper's k range.
ks = st.integers(1, 4)


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def topo100() -> Topology:
    """A 100-node, degree-6 connected unit-disk topology (paper workload)."""
    return random_topology(100, degree=6.0, seed=42)


@pytest.fixture(scope="session")
def topo60() -> Topology:
    """A smaller instance for the distributed-protocol tests."""
    return random_topology(60, degree=6.0, seed=7)


@pytest.fixture(scope="session")
def dense80() -> Topology:
    """A dense (D = 10) instance."""
    return random_topology(80, degree=10.0, seed=3)

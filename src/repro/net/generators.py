"""Deterministic structured topologies for tests, examples and edge cases.

These generators produce graphs whose hop distances, clusterings and gateway
sets can be worked out by hand, which the unit tests rely on heavily.  They
also exercise degenerate regimes the random generator rarely hits (paths
longer than 2k+1, stars, bridges between dense blobs).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from .graph import Graph
from .topology import Topology

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "toroidal_grid",
    "two_cliques_bridge",
    "ring_of_cliques",
    "caterpillar",
    "topology_from_graph",
]


def path_graph(n: int) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise InvalidParameterError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star: hub 0 connected to ``leaves`` leaf nodes ``1..leaves``."""
    if leaves < 0:
        raise InvalidParameterError("star needs leaves >= 0")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """4-connected grid, row-major numbering (node = r * cols + c)."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(rows * cols, edges)


def toroidal_grid(rows: int, cols: int) -> Graph:
    """4-connected grid with wraparound edges (a discrete torus).

    A deterministic large-N scenario: constant degree 4, diameter
    ``rows//2 + cols//2``, connected at any size — useful for scaling
    sweeps where the unit-disk generator's connectivity redraws would
    dominate.  Row-major numbering like :func:`grid_graph`.
    """
    if rows < 3 or cols < 3:
        raise InvalidParameterError("toroidal grid needs rows, cols >= 3")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            edges.append((u, r * cols + (c + 1) % cols))
            edges.append((u, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def two_cliques_bridge(clique_size: int, bridge_len: int) -> Graph:
    """Two cliques joined by a path of ``bridge_len`` intermediate nodes.

    Node layout: clique A = ``0..s-1``, bridge = ``s..s+b-1``, clique B =
    ``s+b..2s+b-1``.  The bridge attaches to node ``0`` of A and node
    ``s+b`` of B.  With ``bridge_len > 2k-1`` the two cliques land in
    different clusters for k-hop clustering, making gateway paths easy to
    reason about.
    """
    if clique_size < 1 or bridge_len < 0:
        raise InvalidParameterError("need clique_size >= 1 and bridge_len >= 0")
    s, b = clique_size, bridge_len
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    edges += [(s + b + i, s + b + j) for i in range(s) for j in range(i + 1, s)]
    chain = [0] + [s + i for i in range(b)] + [s + b]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(2 * s + b, edges)


def ring_of_cliques(cliques: int, clique_size: int) -> Graph:
    """``cliques`` cliques arranged in a ring, consecutive cliques bridged.

    Clique ``i`` occupies nodes ``i*s .. (i+1)*s - 1``; its node 0 links to
    the next clique's node 0.  A deterministic large-N scenario with heavy
    local density and long global distances — the regime where lazy
    ball-based clustering shines and all-pairs rows would hurt most.
    """
    if cliques < 3 or clique_size < 1:
        raise InvalidParameterError("need cliques >= 3 and clique_size >= 1")
    s = clique_size
    edges = []
    for i in range(cliques):
        base = i * s
        edges.extend(
            (base + a, base + b) for a in range(s) for b in range(a + 1, s)
        )
        edges.append((base, ((i + 1) % cliques) * s))
    return Graph(cliques * s, edges)


def caterpillar(spine: int, legs_per_node: int) -> Graph:
    """Caterpillar tree: a spine path with pendant leaves on every spine node.

    Spine nodes are ``0..spine-1``; leaves are appended afterwards in spine
    order, so leaf IDs are always larger than spine IDs (keeps lowest-ID
    clusterheads on the spine, which the tests exploit).
    """
    if spine < 1 or legs_per_node < 0:
        raise InvalidParameterError("need spine >= 1 and legs_per_node >= 0")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for u in range(spine):
        for _ in range(legs_per_node):
            edges.append((u, nxt))
            nxt += 1
    return Graph(nxt, edges)


def topology_from_graph(graph: Graph, *, spacing: float = 10.0) -> Topology:
    """Wrap an abstract graph in a :class:`Topology` with synthetic positions.

    Positions are laid out on a circle purely for plotting/examples; they do
    **not** satisfy the unit-disk property and must not be used to rebuild
    edges.  ``radius`` is set to NaN to make accidental reuse obvious.
    """
    n = graph.n
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = spacing * max(1.0, n / (2.0 * np.pi))
    positions = np.column_stack([r * np.cos(theta) + r, r * np.sin(theta) + r])
    return Topology(graph=graph, positions=positions, radius=float("nan"), area=(2 * r, 2 * r))

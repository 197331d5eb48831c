"""Random unit-disk topology generation with average-degree calibration.

The paper's simulation setup (§4): ``N`` nodes placed uniformly at random in
a restricted 100 x 100 area, identical transmission ranges, average node
degree ``D`` in {6, 10}, and an ideal MAC layer.  Disconnected samples are
useless for connected-clustering experiments, so the generator redraws until
the unit-disk graph is connected (standard practice in this literature, and
implied by the paper's Theorem 1 premise that ``G`` is connected).  Below
the connectivity threshold most draws are rejected, so rejection works on
each draw's edge arrays (an isolated-node test, then one CSR BFS) and only
the accepted draw becomes a :class:`~repro.net.graph.Graph`.

Two radius-calibration modes are offered:

* ``"analytic"`` — ``r = sqrt(D * A / (pi * N))`` equates the expected
  number of nodes in a transmission disk with ``D``; border effects make the
  realized mean degree slightly lower.
* ``"empirical"`` — bisect on ``r`` until the realized mean degree over a
  few position samples is within tolerance of ``D``; slower but tighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import CalibrationError, InvalidParameterError
from ..obs import counter as obs_counter
from ..obs import span
from ..types import IndexArray
from .geometry import PAPER_AREA, Area, random_positions
from .graph import Graph, component_labels

__all__ = [
    "Topology",
    "radius_for_degree",
    "calibrate_radius",
    "unit_disk_edges",
    "unit_disk_graph",
    "random_topology",
]


@dataclass(frozen=True)
class Topology:
    """A generated ad hoc network instance.

    Attributes:
        graph: the unit-disk connectivity graph.
        positions: ``(n, 2)`` node coordinates.
        radius: common transmission range used to build ``graph``.
        area: deployment rectangle.
        seed: seed of the RNG stream that produced the accepted sample.
        attempts: how many position draws were needed to get a connected
            sample (1 = first try); useful for reporting sampling bias.
    """

    graph: Graph
    positions: np.ndarray
    radius: float
    area: Area = PAPER_AREA
    seed: Optional[int] = None
    attempts: int = 1
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    def realized_degree(self) -> float:
        """Mean degree of the generated graph."""
        return self.graph.average_degree()

    def with_node(self, position: np.ndarray) -> "Topology":
        """The topology grown by one node at ``position`` (the arrival case).

        The new node takes ID ``n``; its attachment edges are every
        existing node within the common transmission ``radius``, computed
        with the same float expression as :func:`unit_disk_edges` so
        growth and from-scratch generation agree bit-identically at the
        radius knife-edge.  The underlying graph grows through
        :meth:`Graph.with_nodes` (CSR patching + oracle cache
        inheritance); an arrival outside everyone's range still joins the
        topology, just as an isolated node.
        """
        pos = np.asarray(position, dtype=np.float64).reshape(2)
        diff = self.positions - pos
        within = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= self.radius
        x = self.n
        grown = self.graph.with_nodes(
            1, [(int(u), x) for u in np.flatnonzero(within)]
        )
        return replace(
            self,
            graph=grown,
            positions=np.concatenate([self.positions, pos[None, :]]),
        )


def radius_for_degree(n: int, degree: float, area: Area = PAPER_AREA) -> float:
    """Analytic transmission range for a target average degree.

    Solves ``degree = (n - 1) * pi * r^2 / A`` (expected neighbors of a node
    whose disk lies fully inside the area).
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2 to talk about degree, got n={n}")
    if degree <= 0:
        raise InvalidParameterError(f"target degree must be positive, got {degree}")
    a = area[0] * area[1]
    return math.sqrt(degree * a / (math.pi * (n - 1)))


def _cell_binned_disk_edges(
    pos: np.ndarray, radius: float
) -> tuple[IndexArray, IndexArray]:
    """Unit-disk edges ``(ii, jj)`` via spatial hashing: O(n · local density) work.

    The one unit-disk edge routine: every consumer (graph construction,
    the connectivity-rejection sampler, mobility snapshots) goes through
    it.  Nodes are binned into a grid of cells slightly wider than
    ``radius``; only pairs in the same or adjacent cells can be within
    range, and each adjacent cell pair is visited once (half-neighborhood
    stencil), so no O(n²) distance matrix is ever formed.  The whole
    candidate-pair construction is array-level: nodes are sorted by cell
    key once, each stencil offset becomes one ``searchsorted`` join of all
    nodes against all target cells, and candidate pairs are materialized
    with ``repeat``/offset arithmetic — no Python per-cell loop.

    Returns two int64 arrays, one entry per unordered pair; the order of
    pairs and the orientation within a pair are unspecified.
    """
    n = pos.shape[0]
    if n < 2 or radius < 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # Cells wider than ``radius`` (never narrower than 2^-30 of the
    # coordinate extent, never zero) keep grid coordinates far below 2^31
    # and put any pair whose float distance can pass the radius test in
    # the same or adjacent cells despite rounding in ``pos / cell``.
    extent = float(np.abs(pos).max())
    cell = max(float(radius), extent / 2**30, np.finfo(np.float64).tiny)
    cells = np.floor(pos / (cell * (1.0 + 2.0**-16))).astype(np.int64)
    cx, cy = cells[:, 0], cells[:, 1]
    # Collision-free scalar cell key (|grid coordinates| < 2^31).
    shift = np.int64(1) << np.int64(32)
    key = cx * shift + cy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = np.flatnonzero(np.concatenate([[True], skey[1:] != skey[:-1]]))
    uniq_keys = skey[starts]
    bounds = np.concatenate([starts, [n]])
    pairs_i: list[np.ndarray] = []
    pairs_j: list[np.ndarray] = []
    # (0,0) covers within-cell pairs; the four forward offsets visit every
    # unordered pair of adjacent cells exactly once.
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1)):
        target = key + np.int64(dx) * shift + np.int64(dy)
        cell_pos = np.searchsorted(uniq_keys, target)
        cell_pos = np.clip(cell_pos, 0, uniq_keys.size - 1)
        hit = uniq_keys[cell_pos] == target
        src = np.flatnonzero(hit)
        if src.size == 0:
            continue
        lo = bounds[cell_pos[src]]
        hi = bounds[cell_pos[src] + 1]
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        # Concatenate [lo_i, hi_i) ranges without a Python loop.
        offsets = np.repeat(hi - np.cumsum(counts), counts) + np.arange(total)
        jj = order[offsets]
        ii = np.repeat(src, counts)
        if dx == 0 and dy == 0:
            keep = ii < jj  # each unordered within-cell pair once
            ii, jj = ii[keep], jj[keep]
        pairs_i.append(ii)
        pairs_j.append(jj)
    ii = np.concatenate(pairs_i)
    jj = np.concatenate(pairs_j)
    diff = pos[ii] - pos[jj]
    # Same float expression as Topology.with_node, so growth and
    # from-scratch generation agree at the radius knife-edge.
    ok = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= radius
    return ii[ok], jj[ok]


def unit_disk_edges(positions: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """The unit-disk edge set of ``positions`` without building a graph.

    The mobility loop diffs consecutive snapshots' edge sets to feed
    :meth:`Graph.with_edge_delta`, so it needs the raw edges — paying the
    ``Graph`` constructor for a throwaway object would negate part of the
    delta win.  Edge orientation is unspecified; normalize before set
    arithmetic.
    """
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    ii, jj = _cell_binned_disk_edges(np.asarray(positions, dtype=np.float64), radius)
    return list(zip(ii.tolist(), jj.tolist()))


def unit_disk_graph(positions: np.ndarray, radius: float) -> Graph:
    """Unit-disk graph: an edge wherever Euclidean distance <= ``radius``.

    Edges come from cell binning (:func:`unit_disk_edges`), so memory
    stays sub-quadratic at any ``n``.
    """
    pos = np.asarray(positions, dtype=np.float64)
    return Graph(pos.shape[0], unit_disk_edges(pos, radius))


def calibrate_radius(
    n: int,
    degree: float,
    area: Area = PAPER_AREA,
    *,
    rng: np.random.Generator,
    samples: int = 8,
    tol: float = 0.05,
    max_iter: int = 40,
) -> float:
    """Empirically bisect the radius so realized mean degree ~= ``degree``.

    Averages the realized mean degree over ``samples`` independent uniform
    placements at each candidate radius, then bisects.  ``tol`` is relative
    (0.05 = within 5 % of target).

    Raises:
        CalibrationError: if the bracket cannot be established or bisection
            does not converge in ``max_iter`` steps.
    """
    if degree >= n - 1:
        raise InvalidParameterError(
            f"target degree {degree} unreachable with n={n} (max is n-1)"
        )
    position_sets = [random_positions(n, area, rng) for _ in range(samples)]

    def realized(r: float) -> float:
        total = 0.0
        for pos in position_sets:
            m = _cell_binned_disk_edges(pos, r)[0].size
            total += 2.0 * m / n
        return total / len(position_sets)

    lo = 0.0
    hi = radius_for_degree(n, degree, area)
    grow = 0
    while realized(hi) < degree:
        hi *= 1.5
        grow += 1
        if grow > 30:
            raise CalibrationError("could not bracket target degree from above")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        got = realized(mid)
        if abs(got - degree) <= tol * degree:
            return mid
        if got < degree:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"radius calibration did not converge for n={n}, degree={degree}"
    )


def random_topology(
    n: int,
    degree: float,
    *,
    seed: int,
    area: Area = PAPER_AREA,
    calibration: str = "analytic",
    radius: Optional[float] = None,
    require_connected: bool = True,
    max_attempts: int = 5000,
) -> Topology:
    """Generate a random connected unit-disk topology (the paper's workload).

    Args:
        n: number of nodes (50..200 in the paper).
        degree: target average node degree (6 or 10 in the paper).
        seed: base seed; each redraw uses an independent child stream, so a
            given ``(n, degree, seed)`` is fully reproducible.
        area: deployment rectangle, default the paper's 100 x 100.
        calibration: ``"analytic"`` or ``"empirical"`` (see module docs).
        radius: explicit transmission range; overrides ``calibration`` when
            given (sweep runners calibrate once per (n, degree) and reuse).
        require_connected: redraw until the sample is connected.
        max_attempts: redraw budget before raising.

    Raises:
        CalibrationError: when no connected sample is found in budget —
            typically means the requested degree is too low for ``n``.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if calibration not in ("analytic", "empirical"):
        raise InvalidParameterError(f"unknown calibration mode {calibration!r}")
    root = np.random.default_rng(seed)
    if n == 1:
        return Topology(
            Graph(1), np.zeros((1, 2)), radius=0.0, area=area, seed=seed, attempts=1
        )
    if radius is None:
        if calibration == "analytic":
            radius = radius_for_degree(n, degree, area)
        else:
            radius = calibrate_radius(n, degree, area, rng=root)
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    isolated = 0
    with span("topology", n=n, degree=degree):
        for attempt in range(1, max_attempts + 1):
            positions = random_positions(n, area, root)
            ii, jj = _cell_binned_disk_edges(positions, radius)
            if require_connected:
                # Rejection happens on the edge arrays: most disconnected
                # draws have an isolated node, which one bincount finds;
                # the rest cost one CSR BFS.  Only the accepted draw pays
                # for the Graph constructor.
                deg = np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n)
                if not deg.all():
                    isolated += 1
                    continue
                if component_labels(*_edge_csr(ii, jj, deg)).any():
                    continue
            _publish_sampling(attempt, isolated)
            return Topology(
                graph=Graph(n, zip(ii.tolist(), jj.tolist())),
                positions=positions,
                radius=radius,
                area=area,
                seed=seed,
                attempts=attempt,
            )
    _publish_sampling(max_attempts, isolated)
    raise CalibrationError(
        f"no connected unit-disk sample in {max_attempts} attempts "
        f"(n={n}, degree={degree}, radius={radius:.2f}): observed acceptance "
        f"rate 0/{max_attempts}, {isolated / max(max_attempts, 1):.0%} of "
        "rejected draws had an isolated node; increase degree or max_attempts"
    )


def _edge_csr(
    ii: IndexArray, jj: IndexArray, deg: IndexArray
) -> tuple[IndexArray, IndexArray]:
    """CSR arrays of the undirected edge list ``(ii, jj)`` with degrees ``deg``."""
    indptr = np.zeros(deg.size + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    order = np.argsort(np.concatenate([ii, jj]), kind="stable")
    return indptr, np.concatenate([jj, ii])[order]


def _publish_sampling(attempts: int, isolated: int) -> None:
    obs_counter("topology.attempts").add(attempts)
    obs_counter("topology.isolated_rejects").add(isolated)

"""The benchmark's workloads, run in one process per workload.

``run.py`` starts this file as a child process with the thread pools of
OpenBLAS, OpenMP and MKL pinned to one thread; nothing else should call
it.  The child drives one workload through the public ``repro`` API from
a single thread, as a closed loop with one caller: the next operation
starts only after the previous one returned.

A run works on a fixed list of *inputs* drawn from the workload seed;
``--seconds`` sets how many (see :data:`INPUT_COST_S`), so two commits
measured with the same seed and length get the same inputs.  Each input
is prepared once (input generation, timed into ``setup_s``), then executed
once per round, in round-robin order, so the executions of one input lie
a whole round apart.  A run makes :data:`MIN_ROUNDS` rounds, and more
while the next one is expected to end within ``--seconds`` of the
child's start, so a run on a slow host lasts no longer.  An execution is
set-up (engine bootstrap, timed into ``setup_s``), the timed phase, and
output checks outside every timer.  With ``--trace 1`` every execution is followed by a traced
execution of the same input, and all of them must give the same digest.
Before every execution, and after the last, the child times a fixed
reference computation (:class:`Reference`) that gauges the host's speed.

The child prints one JSON object on its last line: raw samples, counters
and digests.  ``run.py`` turns them into the benchmark's metrics.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``paper-sweep`` — an input is one trial of every Figure 5/6 cell
  (n in 50..200, D in {6, 10}, k in 1..4): ``random_topology``,
  ``khop_cluster``, ``build_all_backbones`` on one shared ``PathOracle``,
  ``verify_backbone`` on every backbone.  An operation is an instance.
* ``traffic-oneshot`` / ``traffic-balance`` — an input is one
  ``repro-khop traffic`` instance.  Preparing it runs ``random_topology``,
  whose rejection sampling needs a seed-dependent, geometrically
  distributed number of draws (54 to 378 over five seeds at n=5000),
  far too spread for a bounded timing; the execution rebuilds the
  accepted unit-disk graph, then runs the pipeline, labels, routing and
  accounting.  An operation is a flow; latencies are per execution.
* ``service-churn`` — an input is a ``seeded_schedule``; an execution
  bootstraps a fresh ``ServiceEngine`` (set-up) and applies every event.
  An operation is an event.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from tracer import Tracer

from repro import (
    ALGORITHMS,
    BatchRouter,
    PathOracle,
    build_all_backbones,
    build_backbone,
    khop_cluster,
    make_workload,
    measure_load,
    random_topology,
    unit_disk_graph,
    verify_backbone,
)
from repro.cds.routing import routing_report
from repro.service import ServiceConfig, ServiceEngine
from repro.service.events import seeded_schedule
from repro.traffic.congestion import CongestionModel, congestion_report

#: Rounds a run is sized for: every input is executed once per round.
#: The shared host alternates between fast phases and phases about 1.5x
#: slower, each lasting seconds; every timing keeps the fastest of the
#: executions, which lie a round apart.
REPEATS = 3
#: Rounds every run makes, however slow the host; further rounds start
#: only while they are expected to end within ``--seconds``, so a run on
#: a host 1.5x slower than :data:`INPUT_COST_S` assumes still fits.
MIN_ROUNDS = 2


# --------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------- #

#: Mean :class:`Reference` pass time on a shared 2-core x86-64 VM.
#: End-to-end timings are reported in seconds at this host speed, because
#: that VM switched between a fast state and one ~1.6x slower, in a mix
#: that drifted over minutes (other tenants' load) and moved every
#: workload alike.
REFERENCE_S = 0.014
#: Reference passes before every execution and after the last one.
REFERENCE_PASSES = 4


class Reference:
    """A fixed computation that touches no ``repro`` code, timed to gauge host speed.

    One pass is four heap-driven shortest-path searches over a fixed
    random graph in pure Python plus a sort, a bincount and a gather over
    fixed numpy arrays: the mix of interpreter and array work the
    workloads do.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.adj = rng.integers(0, 2000, (2000, 6)).tolist()
        self.values = rng.random(100_000)
        self.index = rng.integers(0, 100_000, 100_000)
        self.samples: list[float] = []

    def measure(self) -> None:
        for _ in range(REFERENCE_PASSES):
            t0 = time.perf_counter()
            for source in range(4):
                dist = {source: 0}
                heap = [(0, source)]
                while heap:
                    d, u = heapq.heappop(heap)
                    if d > dist[u]:
                        continue
                    for v in self.adj[u]:
                        if d + 1 < dist.get(v, d + 2):
                            dist[v] = d + 1
                            heapq.heappush(heap, (d + 1, v))
            np.sort(self.values)
            np.bincount(self.index, minlength=len(self.values))
            self.values[self.index].sum()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """:data:`REFERENCE_S` over the mean pass time of the run.

        The mean follows the share of the run the host spent in its slow
        state; quantiles jump between the two states' times.
        """
        return REFERENCE_S / statistics.mean(self.samples)


def sub_seed(*parts: int) -> int:
    """A 31-bit seed derived from ``parts`` (stable across runs and hosts)."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def crc(obj: Any, start: int = 0) -> int:
    """CRC-32 of ``repr(obj)`` chained onto ``start``."""
    return zlib.crc32(repr(obj).encode(), start)


@dataclass
class Execution:
    """What one execution of one input measured and produced.

    ``latencies`` holds one ``(kind, seconds)`` sample per timed operation
    (instance, traffic run or event); ``attempted``/``failed`` count the
    workload's operations (instances, flows or events).
    """

    setup_s: float = 0.0
    wall_s: float = 0.0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: int = 0
    errors: list[str] = field(default_factory=list)


Check = Optional[Callable[[], None]]


def _oracle_counters(tr: Tracer, graph: Any, paths: Any) -> None:
    """Fold the graph oracle's and the path cache's counters into ``tr``."""
    if not tr.enabled:
        return
    gs = graph.oracle.stats()
    tr.add("oracle.rows_computed", gs.rows_computed)
    tr.add("oracle.balls_computed", gs.balls_computed)
    tr.peak("oracle.peak_cached_bytes", gs.peak_cached_bytes)
    tr.add("router.pair_queries", gs.pair_queries)
    tr.peak("labels.entries", gs.label_entries)
    ps = paths.stats()
    tr.add("paths.paths_computed", ps.paths_computed)
    tr.add("paths.path_hits", ps.path_hits)


# --------------------------------------------------------------------- #
# paper-sweep
# --------------------------------------------------------------------- #


class PaperSweep:
    """One trial of every Figure 5/6 cell, verified, per input."""

    ns = (50, 80, 110, 140, 170, 200)
    degrees = (6, 10)
    ks = (1, 2, 3, 4)

    def knobs(self) -> dict[str, Any]:
        return {
            "ns": self.ns, "degrees": self.degrees, "ks": self.ks,
            "algorithms": ALGORITHMS, "instances_per_input": 48, "verify": True,
        }

    def prepare(self, seed: int, tr: Tracer) -> list[tuple[int, int, int, int]]:
        return [
            (n, d, k, sub_seed(seed, n, d, k))
            for d in self.degrees
            for k in self.ks
            for n in self.ns
        ]

    def start(self, cells: list, tr: Tracer, workdir: Path) -> list:
        return cells

    def execute(self, cells: list, tr: Tracer, res: Execution) -> Check:
        digest = 0
        for n, d, k, seed in cells:
            t0 = time.perf_counter()
            res.attempted += 1
            try:
                with tr.span("topology"):
                    topo = random_topology(n, d, seed=seed)
                with tr.span("cluster"):
                    clustering = khop_cluster(topo.graph, k)
                with tr.span("cds"):
                    oracle = PathOracle(topo.graph)
                    backbones = build_all_backbones(clustering, ALGORITHMS, oracle=oracle)
                with tr.span("verify"):
                    for backbone in backbones.values():
                        verify_backbone(backbone)
            except Exception as exc:  # the benchmark counts and reports failures
                res.failed += 1
                res.errors.append(f"n={n} D={d} k={k}: {exc!r}")
                res.latencies.append(("instance", time.perf_counter() - t0))
                continue
            res.latencies.append(("instance", time.perf_counter() - t0))
            tr.add("topology.attempts", topo.attempts)
            tr.add("cluster.heads", clustering.num_clusters)
            _oracle_counters(tr, topo.graph, oracle)
            digest = crc(
                (
                    n, d, k, topo.attempts, clustering.heads,
                    [(a, b.cds_size, sorted(b.gateways)) for a, b in backbones.items()],
                ),
                digest,
            )
        res.digest = digest
        return None


# --------------------------------------------------------------------- #
# traffic-oneshot / traffic-balance
# --------------------------------------------------------------------- #


def _bad_walks(graph: Any, routed: Any) -> int:
    """Number of flows whose walk is not a real source-to-target route."""
    wl = routed.workload
    count = routed.num_flows
    bad = np.zeros(count, dtype=bool)
    if routed.valid is not None:
        bad |= ~np.asarray(routed.valid, dtype=bool)
    lengths = np.fromiter((len(w) for w in routed.walks), np.int64, count)
    first = np.fromiter((w[0] for w in routed.walks), np.int64, count)
    last = np.fromiter((w[-1] for w in routed.walks), np.int64, count)
    bad |= (first != wl.sources) | (last != wl.targets)
    hops = np.asarray(routed.hops, dtype=np.int64)
    bad |= hops != lengths - 1
    if len(routed.shortest):
        bad |= hops < np.asarray(routed.shortest, dtype=np.int64)
    # Every consecutive pair of a walk must be a graph edge.
    indptr, indices = graph.csr_adjacency
    n = graph.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    edge_keys = rows * n + np.asarray(indices, dtype=np.int64)
    flat = np.fromiter((v for w in routed.walks for v in w), np.int64)
    owner = np.repeat(np.arange(count), lengths)
    same = owner[1:] == owner[:-1]
    missing = ~np.isin(flat[:-1][same] * n + flat[1:][same], edge_keys)
    bad[owner[1:][same][missing]] = True
    return int(np.count_nonzero(bad))


@dataclass(frozen=True)
class Traffic:
    """The ``run_traffic`` pipeline, one public call per layer."""

    n: int
    degree: float
    k: int
    algorithm: str
    workload: str
    flows: int
    backend: str
    balance: bool
    radio_budget: Optional[float]

    def knobs(self) -> dict[str, Any]:
        return dict(self.__dict__)

    def prepare(self, seed: int, tr: Tracer) -> tuple[Any, int]:
        with tr.span("topology"):
            topo = random_topology(self.n, degree=self.degree, seed=seed)
        tr.add("topology.attempts", topo.attempts)
        return topo, seed

    def start(self, inp: tuple[Any, int], tr: Tracer, workdir: Path) -> tuple[Any, int]:
        return inp

    def execute(self, inp: tuple[Any, int], tr: Tracer, res: Execution) -> Check:
        topo, seed = inp
        t0 = time.perf_counter()
        try:
            with tr.span("topology"):
                # A fresh copy of the accepted sample: no oracle cache survives
                # from an earlier execution.
                graph = unit_disk_graph(topo.positions, topo.radius)
                graph.use_distance_backend(self.backend)
            with tr.span("cluster"):
                clustering = khop_cluster(graph, self.k)
            with tr.span("cds"):
                backbone = build_backbone(clustering, self.algorithm)
            with tr.span("labels"):
                graph.oracle.landmarks(1)
            with tr.span("workload"):
                wl = make_workload(self.workload, graph.n, self.flows, seed=seed)
            with tr.span("router"):
                batch = BatchRouter(backbone)
                routed = batch.route_flows(wl, with_shortest=True, balance=self.balance)
            congestion = None
            if self.radio_budget is not None:
                with tr.span("congestion"):
                    congestion = congestion_report(
                        CongestionModel.from_backbone(backbone, radio_budget=self.radio_budget),
                        routed,
                    )
            with tr.span("load"):
                load = measure_load(backbone, routed)
            with tr.span("routing_report"):
                report = routing_report(
                    backbone,
                    PathOracle(graph),
                    samples=min(50, self.flows),
                    seed=seed,
                    router=batch.router,
                )
        except Exception as exc:  # counted: every flow of the instance fails
            res.latencies.append(("instance", time.perf_counter() - t0))
            res.attempted += self.flows
            res.failed += self.flows
            res.errors.append(f"instance: {exc!r}")
            return None
        res.latencies.append(("instance", time.perf_counter() - t0))

        def check() -> None:
            res.attempted += routed.num_flows
            res.failed += _bad_walks(graph, routed)
            if graph.edges != topo.graph.edges:
                res.failed = routed.num_flows
                res.errors.append("rebuilt graph differs from the accepted sample")
            try:
                verify_backbone(backbone)
            except Exception as exc:  # a bad backbone fails every flow on it
                res.failed = routed.num_flows
                res.errors.append(f"backbone: {exc!r}")
            tr.add("cluster.heads", clustering.num_clusters)
            _oracle_counters(tr, graph, batch.path_oracle)
            for key in ("groups", "candidates", "flows_rerouted", "moves"):
                tr.add(f"balance.{key}", batch.last_balance.get(key, 0))
            tr.add("balance.flows_offered", routed.num_flows if self.balance else 0)
            res.digest = crc(
                (
                    topo.attempts, clustering.heads, backbone.cds_size,
                    sorted(backbone.gateways), crc(routed.walks),
                    load.packet_hops, load.max_node_load,
                    report.mean_table, report.max_table,
                    None if congestion is None else (
                        congestion.congested_links, congestion.dropped_packets
                    ),
                    sorted(batch.last_balance.items()),
                )
            )

        return check


# --------------------------------------------------------------------- #
# service-churn
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServiceChurn:
    """A fresh ``ServiceEngine`` fed one seeded schedule per execution."""

    n: int
    events: int

    def config(self, seed: int) -> ServiceConfig:
        return ServiceConfig(n=self.n, degree=8.0, k=2, base_loss=0.05, fsync=False, seed=seed)

    def knobs(self) -> dict[str, Any]:
        return {
            **self.config(0).to_record(), "seed": "per input", "events": self.events,
            "schedule": "seeded_schedule, default mix", "directory": "temporary, per execution",
        }

    def prepare(self, seed: int, tr: Tracer) -> tuple[ServiceConfig, tuple]:
        """The schedule, drawn on the initial topology as ``run_service`` does."""
        config = self.config(seed)
        with tr.span("topology"):
            topo = random_topology(config.n, degree=config.degree, seed=config.seed)
        tr.add("topology.attempts", topo.attempts)
        return config, seeded_schedule(topo, events=self.events, seed=config.seed)

    def start(self, inp: tuple[ServiceConfig, tuple], tr: Tracer, workdir: Path) -> tuple:
        config, schedule = inp
        directory = Path(tempfile.mkdtemp(prefix="svc-", dir=workdir))
        with tr.span("service.bootstrap"):
            engine = ServiceEngine(config, directory)
        return engine, schedule, directory

    def execute(self, state: tuple, tr: Tracer, res: Execution) -> Check:
        engine, schedule, directory = state
        every = engine.config.checkpoint_every
        for event in schedule:
            t0 = time.perf_counter()
            res.attempted += 1
            try:
                with tr.span(f"service.{event.kind}"):
                    engine.apply(event, checkpoint=False)
                # The engine's own cadence, driven from here so the write is
                # timed as its own layer; it stays in the event's latency.
                if every > 0 and engine.cursor % every == 0:
                    with tr.span("checkpoint"):
                        path = engine.checkpoint()
                    tr.add("checkpoint.writes")
                    tr.add("checkpoint.bytes", path.stat().st_size)
            except Exception as exc:  # counted; the loop keeps serving
                res.failed += 1
                res.errors.append(f"event {event.seq} {event.kind}: {exc!r}")
            res.latencies.append((event.kind, time.perf_counter() - t0))
            tr.add(f"service.{event.kind}.count")

        def check() -> None:
            report = engine.report()
            tr.add("service.incidents", len(engine.incidents))
            tr.add("service.khop_reruns", report.khop_reruns)
            tr.add("service.backbone_rebuilds", report.backbone_rebuilds)
            tr.add("service.repairs", report.repairs)
            tr.add("cluster.heads", report.heads)
            _oracle_counters(tr, engine.graph, engine.router.path_oracle)
            # The digest ``repro-khop serve`` prints as its fingerprint.
            res.digest = crc(engine.fingerprint())
            shutil.rmtree(directory, ignore_errors=True)

        return check


# --------------------------------------------------------------------- #
# run loop
# --------------------------------------------------------------------- #

WORKLOADS: dict[str, Any] = {
    "paper-sweep": PaperSweep(),
    "traffic-oneshot": Traffic(2000, 8.0, 2, "AC-LMST", "uniform", 10_000, "landmark", False, None),
    "traffic-balance": Traffic(500, 8.0, 2, "AC-LMST", "uniform", 2500, "landmark", True, 200.0),
    "service-churn": ServiceChurn(1000, 100),
}

#: Typical seconds one execution of one input takes, set-up included, on
#: a shared 2-core x86-64 VM; ``--seconds / (REPEATS * cost)`` inputs
#: fill a run.
INPUT_COST_S = {
    "paper-sweep": 1.6,
    "traffic-oneshot": 1.6,
    "traffic-balance": 1.25,
    "service-churn": 3.0,
}


def execute_once(workload: Any, inp: Any, tr: Tracer, workdir: Path) -> Execution:
    """Set up, time and check one execution of one input."""
    res = Execution()
    t0 = time.perf_counter()
    state = workload.start(inp, tr, workdir)
    res.setup_s = time.perf_counter() - t0
    tr.in_pass = True
    t0 = time.perf_counter()
    check = workload.execute(state, tr, res)
    res.wall_s = time.perf_counter() - t0
    tr.in_pass = False
    if check is not None:
        check()
    return res


def fastest(runs: list[Execution]) -> Execution:
    """Combine the executions of one input, keeping the fastest timings.

    Every operation's latency takes its minimum over the executions and
    the wall time is their sum, so a slow phase of the host spoils only
    the operations it overlaps; set-up takes the median; counts add up.
    """
    first = runs[0]
    latencies = [
        (kind, min(r.latencies[i][1] for r in runs))
        for i, (kind, _) in enumerate(first.latencies)
    ]
    return Execution(
        setup_s=statistics.median(r.setup_s for r in runs),
        wall_s=sum(s for _, s in latencies),
        latencies=latencies,
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        digest=first.digest,
        errors=[e for r in runs for e in r.errors],
    )


def summary(runs: list[list[Execution]], prepare_s: list[float]) -> dict[str, Any]:
    """The fastest-of timings per input, plus the summed wall of every execution."""
    results = [fastest(r) for r in runs]
    return {
        "setup_s": [p + r.setup_s for p, r in zip(prepare_s, results)],
        "wall_s": [r.wall_s for r in results],
        "wall_total": sum(r.wall_s for rs in runs for r in rs),
        "latencies": [lat for r in results for lat in r.latencies],
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "digests": [f"{r.digest:08x}" for r in results],
        "errors": [e for r in results for e in r.errors][:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    # A traced run executes every input twice as often, so it takes half
    # as many inputs to last about as long.
    per_input = REPEATS * INPUT_COST_S[args.workload] * (2 if args.trace else 1)
    count = max(1, round(args.seconds / per_input))

    prep_tracer = Tracer(enabled=bool(args.trace))
    tracer = Tracer(enabled=bool(args.trace))
    inputs, prepare_s = [], []
    for index in range(count):
        t0 = time.perf_counter()
        inputs.append(workload.prepare(sub_seed(args.seed, index), prep_tracer))
        prepare_s.append(time.perf_counter() - t0)

    reference = Reference()
    runs: list[list[Execution]] = [[] for _ in inputs]
    traced_runs: list[list[Execution]] = [[] for _ in inputs]
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for index, inp in enumerate(inputs):
            reference.measure()
            runs[index].append(execute_once(workload, inp, Tracer(False), args.workdir))
            if args.trace:
                traced_runs[index].append(execute_once(workload, inp, tracer, args.workdir))
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and 2 * now - round_start - start > args.seconds:
            break
    reference.measure()
    nondeterministic = [
        index for index in range(count)
        if len({r.digest for r in runs[index] + traced_runs[index]}) != 1
    ]

    out: dict[str, Any] = {
        "workload": args.workload,
        "knobs": workload.knobs(),
        "inputs": count,
        "repeats": rounds,
        "numpy": np.__version__,
        "untraced": summary(runs, prepare_s),
        "reference_s": reference.samples,
        "host_factor": reference.factor(),
        "nondeterministic_inputs": nondeterministic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out["traced"] = summary(traced_runs, prepare_s)
        out["trace"] = {
            "prepare_busy": prep_tracer.setup_busy,
            "prepare_counts": prep_tracer.counts,
            "setup_busy": tracer.setup_busy,
            "busy": tracer.busy,
            "counts": tracer.counts,
            "peaks": tracer.peaks,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Construction-pipeline benchmark: vectorized build path at N=10^4.

The tentpole claims this benchmark measures:

* **batched clustering** — ``khop_cluster``'s CSR key-propagation engine
  runs **>= 5x** faster than the scalar per-node reference at N=5000
  (>= 3x at the reduced CI case), producing an *identical* ``head_of``;
* **full-pipeline scale** — the whole construction path (batched
  clustering -> CDS backbone -> 64-root bit-packed landmark labels ->
  10^3 batch-routed flows) completes at **N=10^4** on the landmark
  backend, the scale the ROADMAP calls for.

The sweep covers N=2000 -> 10000 under ``REPRO_BENCH_FULL=1`` (``make
bench-pipeline``); the default/CI pass runs a reduced instance.  Strict
speedup margins are enforced under ``REPRO_BENCH_STRICT``; deliberate
runs persist per-stage timings (cluster / cds / labels / router) to
``BENCH_pipeline.json`` and print a one-line table per N for trajectory
tracking.  Per-stage timing comes from the ``repro.obs`` span tree — the
same instrumentation a ``--trace`` run exports — instead of hand-rolled
clock reads.
"""

import os
from contextlib import contextmanager

from conftest import persist_bench

from repro import obs
from repro.core.clustering import khop_cluster
from repro.core.pipeline import build_backbone
from repro.net.graph import Graph
from repro.net.topology import random_topology
from repro.traffic.router import BatchRouter
from repro.traffic.workloads import uniform_pairs

#: Sweep sizes, the scalar-vs-batched comparison size, and the strict gate.
FULL_CASE = dict(ns=(2000, 5000, 10000), compare_n=5000, flows=1000, gate=5.0)
QUICK_CASE = dict(ns=(2000,), compare_n=2000, flows=500, gate=3.0)

#: Average degree (the regime shared with the scaling/churn/traffic benches).
PIPELINE_DEGREE = 12.0

#: Cluster radius of the built backbones.
PIPELINE_K = 2


def _case():
    return FULL_CASE if os.environ.get("REPRO_BENCH_FULL") else QUICK_CASE


@contextmanager
def _tracing():
    """Obs layer on with clean state for the block, off (and clean) after."""
    obs.set_enabled(True)
    obs.reset()
    obs.reset_tracer()
    try:
        yield
    finally:
        obs.reset()
        obs.reset_tracer()
        obs.set_enabled(False)


def _build_stage_timings(n: int, flows: int) -> dict:
    """One full construction at size ``n``; returns per-stage seconds.

    The engine's own ``cluster``/``cds``/``labels`` spans supply the
    stage breakdown; only the routing stage (spanned in the traffic
    report driver, not the router itself) needs a local span.
    """
    topo = random_topology(n, degree=PIPELINE_DEGREE, seed=41)
    g = topo.graph.use_distance_backend("landmark")
    with _tracing():
        with obs.span("pipeline", n=n):
            clustering = khop_cluster(g, PIPELINE_K)
            backbone = build_backbone(clustering, "AC-LMST")
            # forces the 64-root bit-packed label construction
            g.oracle.label(0)
            with obs.span("router", flows=flows):
                routed = BatchRouter(backbone).route_flows(
                    uniform_pairs(n, flows, seed=43), with_shortest=True
                )
        (root,) = obs.take_finished()
    stage = {sp.name: sp.duration for sp in root.children}
    assert routed.num_flows == flows
    assert (routed.stretches() >= 1.0).all()
    return dict(
        n=n,
        k=PIPELINE_K,
        flows=flows,
        heads=len(backbone.heads),
        cds_size=backbone.cds_size,
        label_entries=g.oracle.stats().label_entries,
        cluster_seconds=round(stage["cluster"], 3),
        cds_seconds=round(stage["cds"], 3),
        labels_seconds=round(stage["labels"], 3),
        router_seconds=round(stage["router"], 3),
        mean_stretch=round(float(routed.stretches().mean()), 3),
    )


def test_bench_pipeline_clustering_batched_vs_scalar(benchmark):
    case = _case()
    n = case["compare_n"]
    topo = random_topology(n, degree=PIPELINE_DEGREE, seed=41)
    g = topo.graph

    batched = benchmark.pedantic(
        khop_cluster,
        args=(g, PIPELINE_K),
        kwargs=dict(engine="batched"),
        rounds=1,
        iterations=1,
    )
    with _tracing():
        with obs.span("compare", engine="batched") as sp_batched:
            khop_cluster(g, PIPELINE_K, engine="batched")
        # Scalar runs on a fresh graph so its oracle warm-up is counted,
        # the same cold start the batched engine just paid.
        g2 = Graph(g.n, g.edges)
        with obs.span("compare", engine="scalar") as sp_scalar:
            scalar = khop_cluster(g2, PIPELINE_K, engine="scalar")
        batched_s, scalar_s = sp_batched.duration, sp_scalar.duration

    assert batched.head_of == scalar.head_of  # identical clusterings
    assert batched.heads == scalar.heads

    speedup = scalar_s / max(batched_s, 1e-9)
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert speedup >= case["gate"], (
            f"batched clustering ({batched_s:.3f}s) should be >= "
            f"{case['gate']}x faster than the scalar engine "
            f"({scalar_s:.3f}s) at N={n}"
        )
    record = dict(
        n=n,
        k=PIPELINE_K,
        batched_seconds=round(batched_s, 3),
        scalar_seconds=round(scalar_s, 3),
        speedup=round(speedup, 1),
        heads=len(batched.heads),
        rounds=batched.rounds,
    )
    benchmark.extra_info.update(record)
    persist_bench(
        "BENCH_pipeline.json", {"benchmark": "clustering_batched", **record}
    )


def test_bench_pipeline_full_construction(benchmark):
    """cluster -> CDS -> landmark labels -> routed flows, N up to 10^4."""
    case = _case()
    ns = case["ns"]

    def sweep():
        return [_build_stage_timings(n, case["flows"]) for n in ns]

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = (
        f"{'N':>6} {'cluster':>9} {'cds':>9} {'labels':>9} {'router':>9}"
    )
    print("\n" + header)
    for rec in records:
        print(
            f"{rec['n']:>6} {rec['cluster_seconds']:>8.2f}s "
            f"{rec['cds_seconds']:>8.2f}s {rec['labels_seconds']:>8.2f}s "
            f"{rec['router_seconds']:>8.2f}s"
        )
        benchmark.extra_info[f"n{rec['n']}"] = rec
        persist_bench(
            "BENCH_pipeline.json", {"benchmark": "full_pipeline", **rec}
        )
    # The acceptance scale: the largest sweep point built a clustered,
    # labeled, routed network end to end.
    assert records[-1]["n"] == ns[-1]
    assert records[-1]["cds_size"] > 0
    assert records[-1]["label_entries"] > 0

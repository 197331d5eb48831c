"""Observability-layer overhead gate: traced vs untraced quick pipeline.

The obs layer promises a no-op fast path: with tracing disabled the
instrumented engine pays one flag test per publish site, and with it
enabled the span/counter bookkeeping stays negligible next to the real
work.  This benchmark runs the same quick traffic pipeline both ways on
CPU time and under ``REPRO_BENCH_STRICT`` enforces **median per-round
traced/untraced ratio <= 1.02** — the <= 2% overhead acceptance gate.

The topology is drawn once, outside the timed region: every timed run
gets a fresh, cache-cold copy of the same graph, so the denominator is
the instrumented stages (cluster, cds, labels, router, epochs) and not
rejection sampling.  Rounds are interleaved, each arm going first in
alternate rounds, and the gate reads the median of the per-round ratios,
which one noisy round cannot move.  Deliberate runs persist that median,
the older best-of ratio, and the traced run's per-stage span breakdown
to ``BENCH_obs.json``.
"""

import os
import statistics
import time
from dataclasses import replace

from conftest import persist_bench

from repro import obs
from repro.net.graph import Graph
from repro.net.topology import random_topology
from repro.traffic import report as traffic_report
from repro.traffic.report import run_traffic

#: The quick-pipeline case both arms run (identical seeds -> identical work).
OBS_CASE = dict(n=1000, degree=8.0, k=2, flows=500, seed=41)

#: Interleaved measurement rounds; the gate reads the median ratio.
ROUNDS = 15

#: The strict acceptance margin: traced within 2% of untraced.
OVERHEAD_GATE = 1.02


def _one_run(traced: bool) -> tuple[float, list]:
    """One pipeline run; returns (cpu seconds, finished root spans)."""
    obs.set_enabled(traced)
    obs.reset()
    obs.reset_tracer()
    try:
        t0 = time.process_time()
        report = run_traffic(**OBS_CASE)
        elapsed = time.process_time() - t0
        spans = obs.take_finished()
    finally:
        obs.reset()
        obs.reset_tracer()
        obs.set_enabled(False)
    assert report.load.packet_hops > 0
    assert bool(spans) == traced
    return elapsed, spans


def test_bench_obs_overhead_gate(benchmark, monkeypatch):
    # Warm both arms once (imports, allocator) on the full entry point,
    # topology stage included, before measuring.
    _one_run(False)
    _, warm_spans = _one_run(True)

    # From here on run_traffic receives the pre-drawn instance; each run
    # gets its own graph so no oracle cache carries between runs.
    topo = random_topology(
        OBS_CASE["n"], degree=OBS_CASE["degree"], seed=OBS_CASE["seed"]
    )
    fresh = [
        Graph(topo.graph.n, topo.graph.edges) for _ in range(2 * ROUNDS + 2)
    ]
    monkeypatch.setattr(
        traffic_report,
        "random_topology",
        lambda *args, **kwargs: replace(topo, graph=fresh.pop()),
    )
    _one_run(False)  # one untimed pair settles the pre-drawn path
    _one_run(True)

    untraced: list[float] = []
    traced: list[float] = []
    for i in range(ROUNDS):  # interleaved so drift hits both arms alike
        for arm in (False, True) if i % 2 == 0 else (True, False):
            (traced if arm else untraced).append(_one_run(arm)[0])
    ratios = [t / max(u, 1e-9) for t, u in zip(traced, untraced)]
    median_ratio = statistics.median(ratios)
    best_untraced, best_traced = min(untraced), min(traced)
    best_of_ratio = best_traced / max(best_untraced, 1e-9)
    monkeypatch.undo()
    benchmark.pedantic(_one_run, args=(False,), rounds=1, iterations=1)

    if os.environ.get("REPRO_BENCH_STRICT"):
        assert median_ratio <= OVERHEAD_GATE, (
            f"traced instrumented stages exceed the {OVERHEAD_GATE:.0%} "
            f"overhead gate over untraced: median per-round ratio "
            f"x{median_ratio:.3f} over {ROUNDS} rounds "
            f"({', '.join(f'{r:.3f}' for r in ratios)})"
        )

    # The traced arm measured the real pipeline: its span tree covers the
    # stages and its self-times telescope to the root duration.
    (root,) = warm_spans
    names = {sp.name for sp in root.walk()}
    assert {"traffic", "topology", "cluster", "cds", "router"} <= names
    covered = sum(sp.self_time for sp in root.walk())
    assert covered >= 0.90 * root.duration

    stage_seconds = {
        sp.name: round(sp.duration, 3) for sp in root.children
    }
    record = dict(
        benchmark="obs_overhead",
        **OBS_CASE,
        rounds=ROUNDS,
        timed="instrumented stages (topology drawn once, untimed)",
        untraced_seconds=round(statistics.median(untraced), 3),
        traced_seconds=round(statistics.median(traced), 3),
        overhead=round(median_ratio, 4),
        overhead_best_of=round(best_of_ratio, 4),
        stages=stage_seconds,
    )
    benchmark.extra_info.update(record)
    persist_bench("BENCH_obs.json", record)
    print(
        f"\nobs overhead (instrumented stages): median ratio "
        f"x{median_ratio:.3f} over {ROUNDS} rounds, best-of "
        f"x{best_of_ratio:.3f}; untraced median "
        f"{statistics.median(untraced):.3f}s (gate {OVERHEAD_GATE:.2f} "
        f"strict-only)"
    )

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The runner pins the OpenBLAS, OpenMP and MKL thread pools to one thread,
times the interpreter start and imports of the workload process in three
short probe processes, then runs the workload in one child process
(``workloads.py``).  It prints one ``record {...}`` line with the run
manifest (git sha, core count, Python and numpy versions, seed, knobs,
load average at the start), the output digest, the sample count behind
every median and percentile, the problems that made a run incorrect, the
host-speed factor with the timings before scaling, and the raw detail,
and then, as the last line, the result object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` ones.  The exit
code is non-zero, and no result is printed, when the workload process
fails or the checkout holds no ``src/repro`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170.0
IMPORT_PROBES = 3
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_PINS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_seconds(env: dict[str, str]) -> list[float]:
    """Wall time of interpreter start plus every import of the workload process."""
    samples = []
    for _ in range(IMPORT_PROBES):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "--help"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def end_to_end(detail: dict[str, Any], imports: list[float]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the timings before scaling, and the sample counts.

    ``wall_s`` is the mean over inputs of one execution's timed phase,
    each operation taken at its fastest execution.  Every timing is then
    scaled by the run's host-speed factor (``workloads.Reference``) to
    seconds at the reference speed; the unscaled values are returned too.
    """
    run = detail["untraced"]
    lat = [s for _, s in run["latencies"]]
    attempted = run["attempted"]
    raw = {
        "setup_s": statistics.median(imports) + statistics.median(run["setup_s"]),
        "wall_s": statistics.mean(run["wall_s"]),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * p90(lat),
    }
    scaled = {name: detail["host_factor"] * value for name, value in raw.items()}
    metrics = {
        **scaled,
        "ops_per_s": attempted / detail["repeats"] / detail["inputs"] / scaled["wall_s"],
        "peak_rss_mb": detail["peak_rss_mb"],
        "ok_fraction": 1.0 - run["failed"] / attempted,
    }
    samples = {
        "setup_s": len(run["setup_s"]),
        "wall_s": len(run["wall_s"]),
        "op_p50_ms": len(lat),
        "op_p90_ms": len(lat),
    }
    return metrics, raw, samples


#: Per-layer busy times recorded outside the timed pass, so they do not
#: count towards the traced wall time: metric -> (trace table, span, divisor).
SETUP_BUSY = {
    "topology.prepare_busy_s": ("prepare_busy", "topology", "inputs"),
    "service.bootstrap.busy_s": ("setup_busy", "service.bootstrap", "executions"),
}


def per_layer(detail: dict[str, Any], names: list[str]) -> tuple[dict, dict, list[str]]:
    """The traced run's busy times and counters, per input and execution.

    ``<layer>.busy_s`` is a layer's busy time inside the timed pass per
    execution, and ``trace.wall_s`` the traced wall time per execution, so
    the reported in-pass busy times must add up to no more than it.  Input
    preparation and set-up spans are reported under :data:`SETUP_BUSY`.
    Counters made while preparing an input are divided by the input
    count, those made while executing by the execution count.  Returns
    the metrics, the sample count behind each percentile, and the
    problems found (each one makes the run incorrect).
    """
    trace = detail["trace"]
    traced = detail["traced"]
    inputs = detail["inputs"]
    executions = inputs * detail["repeats"]
    per = {"inputs": inputs, "executions": executions}

    def count(name: str) -> float:
        prepared = trace["prepare_counts"].get(name, 0) / inputs
        return prepared + trace["counts"].get(name, 0) / executions

    by_kind: dict[str, list[float]] = {}
    for kind, s in traced["latencies"]:
        by_kind.setdefault(kind, []).append(s)
    structural = [
        s for kind in ("join", "leave", "move", "link_down", "link_up")
        for s in by_kind.get(kind, [])
    ]
    traced_wall = traced["wall_total"] / executions
    untraced_wall = detail["untraced"]["wall_total"] / executions
    hits = count("paths.path_hits")
    queries = hits + count("paths.paths_computed")
    offered = count("balance.flows_offered")
    derived = {
        "paths.hit_ratio": hits / queries if queries else 0.0,
        "balance.rerouted_ratio": count("balance.flows_rerouted") / offered if offered else 0.0,
        "service.flow.p90_ms": 1e3 * p90(by_kind["flow"]) if "flow" in by_kind else 0.0,
        "service.structural.p90_ms": 1e3 * p90(structural) if structural else 0.0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out: dict[str, float] = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in SETUP_BUSY:
            table, span, divisor = SETUP_BUSY[name]
            out[name] = trace[table].get(span, 0.0) / per[divisor]
        elif name in ("oracle.peak_cached_bytes", "labels.entries"):
            out[name] = trace["peaks"].get(name, 0)
        elif name.endswith(".busy_s"):
            out[name] = trace["busy"].get(name[: -len(".busy_s")], 0.0) / executions
        elif name != "trace.busy_share":
            out[name] = count(name)

    problems = []
    reported = set(names)
    for layer in trace["busy"]:
        if f"{layer}.busy_s" not in reported:
            problems.append(f"in-pass layer {layer!r} has no reported busy_s metric")
    spans = {(table, span) for table, span, _ in SETUP_BUSY.values()}
    for table in ("prepare_busy", "setup_busy"):
        for span in trace[table]:
            if (table, span) not in spans:
                problems.append(f"{table} span {span!r} has no reported metric")
    pass_busy = sum(
        value for name, value in out.items()
        if name.endswith(".busy_s") and name not in SETUP_BUSY
    )
    if pass_busy > traced_wall:
        problems.append(f"in-pass busy {pass_busy:.6f} s exceeds traced wall {traced_wall:.6f} s")
    if "trace.busy_share" in reported:
        out["trace.busy_share"] = pass_busy / traced_wall
    samples = {
        "service.flow.p90_ms": len(by_kind.get("flow", [])),
        "service.structural.p90_ms": len(structural),
    }
    return {name: out[name] for name in names}, samples, problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    imports = import_seconds(env)
    cmd = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"run.py: {args.workload} exited {proc.returncode}", file=sys.stderr)
        return 1
    detail = json.loads(proc.stdout.strip().splitlines()[-1])

    run = detail["untraced"]
    attempted, failed = run["attempted"], run["failed"]
    problems: list[str] = []
    unscaled: dict[str, float] = {}
    if args.trace:
        metrics, samples, problems = per_layer(detail, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        attempted += detail["traced"]["attempted"]
        failed += detail["traced"]["failed"]
    else:
        metrics, unscaled, samples = end_to_end(detail, imports)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if detail["nondeterministic_inputs"]:
        bad = detail["nondeterministic_inputs"]
        problems.append(f"digests differ across executions of inputs {bad}")
    correct = failed == 0 and not problems

    record = {
        "manifest": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": detail["numpy"],
            "loadavg_start": loadavg,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "knobs": detail["knobs"],
            "thread_pins": {var: "1" for var in THREAD_PINS},
        },
        "digest": f"{zlib.crc32(' '.join(run['digests']).encode()):08x}",
        "problems": problems,
        "samples": samples,
        "host_factor": detail["host_factor"],
        "unscaled": unscaled,
        "inputs": detail["inputs"],
        "import_s": imports,
        "detail": detail,
    }
    print("record " + json.dumps(record))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

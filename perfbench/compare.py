"""Compare a parent checkout against a change, workload by workload.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each of :data:`REPS` repetitions runs every workload once on each side
with the same seed, for ``run_seconds`` of the change's
``BENCHMARK.json``, interleaving the workloads and alternating which side
goes first, so slow drift on a shared machine hits both sides alike.
For every workload and end-to-end metric it prints both sides' medians
and quartiles, the fraction of pairs the change won (ties count for
neither side), and a verdict:

* ``unresolved`` — the parent's own quartile spread exceeds the metric's
  bound and the change does not beat every parent run;
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the bound;
* ``gain`` — at least 10 pairs ran, the change won at least 9 in 10 of
  them and the medians differ by more than the parent's quartile spread;
* ``within bound`` — otherwise.

A gain does not count on a workload where a change run was incorrect,
the change failed more operations than the parent, or an output digest
differs from the parent's on the same seed: the verdict then reads
``no gain (...)`` with the reasons.  The exit code is 1 when any metric
regressed or any change run was incorrect, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

WIN_RULE = 0.9
MIN_PAIRS = 10
REPS = MIN_PAIRS
#: Seed of the first repetition; repetition ``r`` uses ``SEED0 + r``.
SEED0 = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": record["digest"],
    }


def collect(sides: dict[str, Path], workloads: list[str], seconds: int) -> list[dict]:
    runs = []
    for rep in range(REPS):
        seed = SEED0 + rep
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                run = run_once(sides[side], workload, seed, seconds)
                run.update(side=side, workload=workload, rep=rep)
                runs.append(run)
                print(
                    f"rep {rep} {workload:16s} {side:6s} seed {seed} "
                    f"correct={run['correct']} digest={run['digest']}",
                    file=sys.stderr, flush=True,
                )
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict for one metric and the change's paired win fraction."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_fraction = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not beats_all:
        return "unresolved", win_fraction
    if worse_by > bound:
        return "REGRESSION", win_fraction
    if len(pairs) >= MIN_PAIRS and win_fraction >= WIN_RULE and abs(cm - pm) > (p3 - p1):
        return "gain", win_fraction
    return "within bound", win_fraction


def blockers(parent: list[dict], change: list[dict]) -> list[str]:
    """Reasons a gain on this workload does not count."""
    reasons = []
    if not all(r["correct"] for r in change):
        reasons.append("change incorrect")
    if sum(r["failed"] for r in change) > sum(r["failed"] for r in parent):
        reasons.append("change fails more operations")
    if any(p["digest"] != c["digest"] for p, c in zip(parent, change)):
        reasons.append("digests differ")
    return reasons


def report(runs: list[dict[str, Any]], spec: dict[str, Any]) -> int:
    status = 0
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for workload in workloads:
        by_side: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
        for r in sorted((r for r in runs if r["workload"] == workload), key=lambda r: r["rep"]):
            by_side[r["side"]].append(r)
        parent, change = by_side["parent"], by_side["change"]
        same = sum(p["digest"] == c["digest"] for p, c in zip(parent, change))
        blocked = blockers(parent, change)
        if not all(r["correct"] for r in change):
            status = 1
        print(
            f"\n{workload}: {len(parent)} pairs, identical digests {same}/{len(parent)}, "
            f"parent correct {all(r['correct'] for r in parent)}, "
            f"change correct {all(r['correct'] for r in change)}"
        )
        print(
            f"  {'metric':14s} {'parent median [q1, q3]':>34s} "
            f"{'change median [q1, q3]':>34s} {'wins':>5s} {'bound':>6s}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name] for r in parent]
            cv = [r["metrics"][name] for r in change]
            text, wins = verdict(pv, cv, metric["better"], metric["bound"])
            if text == "REGRESSION":
                status = 1
            if text == "gain" and blocked:
                text = f"no gain ({', '.join(blocked)})"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(
                f"  {name:14s} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {wins:5.2f} {metric['bound']:6.2f}  {text}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Parent-versus-change benchmark comparison.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = collect(
        {"parent": args.parent, "change": args.change},
        [w["name"] for w in spec["workloads"]],
        spec["run_seconds"],
    )
    return report(runs, spec)


if __name__ == "__main__":
    sys.exit(main())

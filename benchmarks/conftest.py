"""Benchmark conftest: import path + a shared default trial budget.

The benchmarks regenerate every paper artifact with a reduced trial budget
(full fidelity is the CLI's job: ``repro-khop all``).  Override with the
``REPRO_TRIALS`` environment variable.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Trials per cell used by the benchmark harness (small but statistically
#: meaningful; the shape assertions below are robust at this budget).
BENCH_TRIALS = int(os.environ.get("REPRO_TRIALS", "3"))

#: Reduced N grid for benchmark sweeps.
BENCH_NS = (50, 100, 150)


# --------------------------------------------------------------------- #
# perf-trajectory persistence
# --------------------------------------------------------------------- #

import json
import platform
import subprocess
import time

import numpy as np

#: Repo root — BENCH_*.json files land here so the perf trajectory is
#: tracked in version control alongside the code that produced it.
REPO_ROOT = Path(__file__).resolve().parents[1]


def git_sha() -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def persist_bench(filename: str, record: dict) -> None:
    """Append one benchmark record to a repo-root JSON trajectory file.

    Each file holds a list of records, newest last; a record is whatever
    the benchmark measured plus its provenance (timestamp, interpreter,
    git sha, core count, numpy version), so successive PRs can diff the
    trajectory and trace every record to the code and machine that made
    it (``BENCH_scaling.json``, ``BENCH_churn.json``).

    Only *deliberate* benchmark runs persist — ``REPRO_BENCH_STRICT`` /
    ``REPRO_BENCH_FULL`` / ``REPRO_BENCH_PERSIST`` set (the ``make
    bench-*`` targets and the CI smoke job).  A plain tier-1 ``make
    test`` must not dirty the version-controlled trajectory with reduced
    quick-case noise.
    """
    if not (
        os.environ.get("REPRO_BENCH_STRICT")
        or os.environ.get("REPRO_BENCH_FULL")
        or os.environ.get("REPRO_BENCH_PERSIST")
    ):
        return
    path = REPO_ROOT / filename
    try:
        history = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        history = []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            **record,
        }
    )
    path.write_text(json.dumps(history, indent=2) + "\n")

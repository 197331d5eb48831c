"""``persist_bench``: opt-in persistence with provenance on every record."""

import json

import numpy as np

from conftest import git_sha, persist_bench


def _isolate(monkeypatch, tmp_path):
    # Patch the globals persist_bench/git_sha actually read.
    monkeypatch.setitem(persist_bench.__globals__, "REPO_ROOT", tmp_path)
    for var in (
        "REPRO_BENCH_STRICT",
        "REPRO_BENCH_FULL",
        "REPRO_BENCH_PERSIST",
        "GIT_DIR",
        "GIT_WORK_TREE",
    ):
        monkeypatch.delenv(var, raising=False)


def test_records_carry_provenance(monkeypatch, tmp_path):
    _isolate(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_BENCH_PERSIST", "1")
    persist_bench("BENCH_x.json", {"benchmark": "x", "seconds": 1.5})
    persist_bench("BENCH_x.json", {"benchmark": "x", "seconds": 2.5})
    history = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [r["seconds"] for r in history] == [1.5, 2.5]
    for rec in history:
        assert rec["benchmark"] == "x"
        assert rec["numpy"] == np.__version__
        assert isinstance(rec["cpu_count"], int) and rec["cpu_count"] >= 1
        sha = rec["git_sha"]
        assert sha == "unknown" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )
        assert rec["timestamp"].endswith("Z") and rec["python"]


def test_sha_is_unknown_outside_a_checkout(monkeypatch, tmp_path):
    _isolate(monkeypatch, tmp_path)
    assert git_sha() == "unknown"


def test_plain_runs_do_not_persist(monkeypatch, tmp_path):
    _isolate(monkeypatch, tmp_path)
    persist_bench("BENCH_x.json", {"benchmark": "x"})
    assert not (tmp_path / "BENCH_x.json").exists()

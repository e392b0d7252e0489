"""Tests of the benchmark itself.

Run from the repository root (a few minutes; it builds every workload)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _counts(name: str, seed: int, n_requests: int, root: Path) -> dict:
    """The program's own counters after a fixed number of requests."""
    workload = WORKLOADS[name](root, seed)
    try:
        workload.setup()
        before = run._counter_totals()
        requests = workload.requests()
        for _ in range(n_requests):
            req = next(requests)
            req.result = req.call()
            assert req.check(req.result), f"{name} {req.op} mismatch"
        after = run._counter_totals()
        return {
            "obs": {k: after[k] - before[k] for k in run.COUNTERS},
            "cache": workload.cache_stats(),
            "wal": workload.wal_stats(),
            "disk_bytes": workload.disk_bytes(),
        }
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_fixed_seed(name, tmp_path):
    first = _counts(name, 7, 120, tmp_path / "a")
    second = _counts(name, 7, 120, tmp_path / "b")
    assert first == second
    assert first["obs"]["store.fragments_visited"] > 0


def _run(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "4", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_reports_every_metric_without_failures(name, trace):
    result = _run(name, 11, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_names_match_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

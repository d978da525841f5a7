"""Tests of the serving benchmark itself, on reduced-size workloads.

Run with::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs shrunk (small pools, short rounds, a one-second open
loop) and must still emit every metric ``BENCHMARK.json`` names, answer
every request as the oracle does, and pass the trace accounting check.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fleet  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(workloads, "POOL_PER_DOC", 12)
    monkeypatch.setattr(workloads, "REPLICA_POOL_PER_DOC", 8)
    monkeypatch.setattr(workloads, "PASS_REQUESTS", 256)
    monkeypatch.setattr(workloads, "COLD_PER_DOC", 40)
    monkeypatch.setattr(workloads, "SETUPS", 2)
    monkeypatch.setattr(workloads, "WRITE_PROBES", 8)
    monkeypatch.setattr(workloads, "WRITE_INTERVAL", 0.05)


def _result(capsys, *args) -> tuple[dict, dict]:
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(small, capsys, workload):
    info, result = _result(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0",
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert info["mismatches"] == []
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_and_fires_every_binding(small, capsys, workload):
    info, result = _result(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "1",
    )
    assert result["correct"] and info["mismatches"] == []
    assert info["silent_bindings"] == []
    # tracing_overhead compares equal work: the same writes on both sides.
    assert info["writes"]["traced"] == info["writes"]["untraced"]
    if workload == "replica-churn":
        assert info["writes"]["traced"] > 0
    assert all(check["ok"] for check in info["accounting"].values())
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert (ROOT / info["trace_file"]).is_file()


def test_wrong_answer_fails_by_name(small, capsys, monkeypatch):
    real = fleet.Fleet.expected

    def off_by_one(self, doc_id, xpath):
        return real(self, doc_id, xpath) + [10**9]

    monkeypatch.setattr(fleet.Fleet, "expected", off_by_one)
    info, result = _result(
        capsys, "--workload", "warm-zipf", "--seed", "3", "--seconds", "1",
        "--trace", "0",
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert info["mismatches"] and info["mismatches"][0].startswith("warm-up ")


def test_tail_percentile_keeps_ten_samples_above():
    samples = [float(i) for i in range(1, 501)]
    p50, tail, pct = workloads.percentiles(samples)
    assert p50 == 250.5
    assert sum(1 for s in samples if s > tail) == 10
    assert pct == pytest.approx(98.0)
    _, tail, pct = workloads.percentiles([float(i) for i in range(5000)])
    assert pct == pytest.approx(99.0) and tail == 4949.0
    with pytest.raises(ValueError):
        workloads.percentiles([1.0] * 10)


def test_timings_scale_to_reference_speed(monkeypatch):
    # A host at half the reference speed: every slice takes twice as long.
    monkeypatch.setattr(
        speed.HostSpeed, "slices",
        lambda self, count: [2 * speed.REFERENCE_S] * count,
    )
    outcome = workloads.Outcome("warm-zipf", kinds=Counter(view=1))
    outcome.tick()
    for _ in range(12):
        outcome.record(0.004, 0.003, 16)
    outcome.answered = 12 * 16
    outcome.record_write(0.010)
    started = outcome.start_setup()
    outcome.record_setup(started - 1.0)
    metrics = outcome.metrics()
    wall = 0.5 ** speed.ELASTICITY
    tail = 0.5 ** speed.TAIL_ELASTICITY
    assert metrics["latency_p50_ms"] == pytest.approx(4.0 * wall)
    assert metrics["latency_p99_ms"] == pytest.approx(3.0 * tail)
    assert metrics["throughput_qps"] == pytest.approx(16 / (0.004 * wall))
    assert metrics["write_p50_ms"] == pytest.approx(10.0 * wall)
    assert metrics["setup_s"] == pytest.approx(wall, rel=0.01)


def test_each_block_takes_the_speed_measured_during_it():
    r = speed.REFERENCE_S
    marks = [(0, r), (5, 2 * r), (12, 4 * r), (14, 4 * r)]
    assert speed.block_scales(marks, 20, 10, 1.0) == pytest.approx(
        [2 / 3, 1 / 4]
    )
    assert speed.block_scales(marks, 20, 10, 0.5) == pytest.approx(
        [(2 / 3) ** 0.5, 1 / 2]
    )
    # A block no slice fell in takes every slice's median.
    assert speed.block_scales(marks[:2], 20, 10, 1.0) == pytest.approx(
        [2 / 3, 2 / 3]
    )


def test_reference_slice_is_fixed_work():
    assert speed.reference_slice() == speed.reference_slice()


def test_containment_probe_fails_when_the_cache_moves(monkeypatch):
    from repro.core import containment

    monkeypatch.delattr(containment, "_CACHE")
    with pytest.raises(RuntimeError):
        workloads._containment_entries()


def test_accounting_flags_overlapping_spans():
    tracer = LayerTracer()
    tracer.phases.append(("timed", 0.0, 1.0))
    for start, end in ((0.1, 0.9), (0.2, 0.95)):  # top-level, overlapping
        tracer.binding.append(0)
        tracer.parent.append(-1)
        tracer.start.append(start)
        tracer.end.append(end)
    assert not tracer.account("timed")["ok"]
    tracer.end[0] = 0.2
    assert tracer.account("timed")["ok"]


def test_uninstall_restores_every_binding():
    from repro.catalog.server import CatalogServer

    original = CatalogServer.__dict__["serve_requests"]
    with LayerTracer():
        assert CatalogServer.__dict__["serve_requests"] is not original
    assert CatalogServer.__dict__["serve_requests"] is original


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = SPEC["command"] + [
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

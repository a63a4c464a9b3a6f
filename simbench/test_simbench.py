"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from simbench.run import measure  # noqa: E402
from simbench.workloads import WORKLOADS, BibwSweep, PutStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "ledger"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_declared_metrics(name, trace):
    workload = WORKLOADS[name](3, tiny=True)
    metrics, attempted, failed, failures = measure(workload, 0, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: unit for k, (_v, unit) in metrics.items()
    }
    assert attempted >= 1
    assert (failed, failures) == (0, [])
    assert all(math.isfinite(v) for v, _unit in metrics.values())
    if not trace:
        # Peak RSS is a process-wide high-water mark, so it is only
        # attributable to a workload in a fresh process (one per CLI run);
        # earlier tests in this process may already have set it higher.
        assert all(v > 0 for k, (v, _u) in metrics.items() if k != "peak_rss_mib")


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


class _LeakyFlow(BibwSweep):
    def _teardown(self, ctx, comm):
        # A copy still on the wire when the run is checked.
        ctx.runtime.fabric.copy("nvl:0->1", 1 << 30, tag="leak")
        ctx.engine.run(until=ctx.engine.now + 1e-3)
        return super()._teardown(ctx, comm)


class _LeakyHold(PutStream):
    def _teardown(self, ctx, comm):
        # A load hold acquired and never released.
        ctx.transfers.load.acquire(ctx.planner.plan(0, 1, 1 << 20))
        return super()._teardown(ctx, comm)


def test_leaked_flow_fails_the_operation():
    workload = _LeakyFlow(3, tiny=True)
    workload.setup()
    result = workload.run_op(workload.ops[0])
    assert result.failed == result.attempted == 1
    assert any("fabric flows still live" in f for f in result.failures)


def test_leaked_hold_fails_every_put_of_the_stream():
    workload = _LeakyHold(3, tiny=True)
    workload.setup()
    result = workload.run_op(workload.ops[0])
    assert result.attempted > 1
    assert result.failed == result.attempted
    assert any("load holds leaked" in f for f in result.failures)


def test_seed_fixes_inputs_and_simulated_outputs():
    a, b, c = (PutStream(s, tiny=True) for s in (5, 5, 6))
    assert a.streams == b.streams
    assert a.streams[0]["due"] != c.streams[0]["due"]
    for w in (a, b):
        w.setup()
    assert a.run_op(0).sim == b.run_op(0).sim


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "simbench", tmp_path / "simbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "put-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

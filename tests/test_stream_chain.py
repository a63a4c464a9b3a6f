"""Callback-chained streams: sticky failures, event ordering, counters,
stream lifecycle, and the process budget of the copy hot path."""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.gpu import GPURuntime, StreamError
from repro.sim import Engine
from repro.topology import systems
from repro.ucx import UCXContext
from repro.units import MiB, us


@pytest.fixture()
def rt():
    eng = Engine()
    return eng, GPURuntime(eng, systems.beluga())


def _poison_after(eng, runtime, stream, at=100 * us):
    """Enqueue a 64 MiB 0->1 copy on ``stream`` and hard-fail its channel
    mid-flight; returns the copy's completion event."""
    hop = runtime.topology.direct_hop(0, 1)
    first = runtime.copy_on_hop_async(hop, 64 * MiB, stream, tag="victim")
    eng.schedule_fn(at, lambda _arg: runtime.fabric.fail_channel(hop[0]))
    return first


class TestStickyFailure:
    def test_failed_copy_fails_every_later_op_with_same_exception(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        other = runtime.create_stream(1)
        ready = runtime.create_event("ready").record(other)

        first = _poison_after(eng, runtime, s)
        copy = runtime.peer_copy_async(0, 2, MiB, s, tag="later")
        delay = s.delay(1 * us)
        wait = s.wait_event(ready)
        mark = runtime.create_event("mark").record(s)
        tail = s.synchronize()
        eng.run()

        exc = first._exception
        assert exc is not None
        for ev in (copy, delay, wait, tail, mark.wait()):
            assert ev.triggered and ev._exception is exc
        # only the victim reached the fabric; the later copy never started
        assert runtime.fabric.stats_snapshot()["flows_admitted"] == 1
        assert s.poisoned and not other.poisoned

    def test_record_on_poisoned_stream_fails_cross_stream_waiters(self, rt):
        eng, runtime = rt
        s1 = runtime.create_stream(0)
        s2 = runtime.create_stream(2)
        first = _poison_after(eng, runtime, s1)
        arrived = runtime.create_event("arrived").record(s1)
        s2.wait_event(arrived)
        after = s2.delay(1 * us)
        eng.run()  # must drain, not deadlock on the never-reached marker
        assert arrived.wait()._exception is first._exception
        assert after._exception is first._exception
        assert arrived.complete_time is None


class TestOrdering:
    def test_occurrence_callbacks_run_before_marker_completion(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        s.delay(1 * us)
        ev = runtime.create_event("e").record(s)
        marker_done = s.synchronize()  # the marker is the stream's tail
        order = []
        marker_done.add_callback(lambda _e: order.append("marker"))
        ev.wait().add_callback(lambda _e: order.append("occurred"))
        eng.run()
        assert order == ["occurred", "marker"]
        assert ev.complete_time == pytest.approx(1 * us)

    def test_ops_completed_counts_successes_only(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)

        def crash():
            yield eng.timeout(1 * us)
            raise ValueError("kernel crash")

        s.delay(1 * us)
        runtime.peer_copy_async(0, 1, MiB, s)
        s.enqueue(crash, label="crash")
        s.delay(1 * us)
        runtime.peer_copy_async(0, 1, MiB, s)
        eng.run()
        assert s.ops_enqueued == 5
        assert s.ops_completed == 2

    def test_generic_op_factory_error_fails_op(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(0)
        done = s.enqueue(lambda: 42)  # not a generator
        later = s.delay(1 * us)
        eng.run()
        assert isinstance(done._exception, TypeError)
        assert later._exception is done._exception


class TestCounters:
    def test_rejected_copy_is_not_counted(self, rt):
        _eng, runtime = rt
        s = runtime.create_stream(0)
        runtime.peer_copy_async(0, 1, MiB, s)
        s.destroy()
        with pytest.raises(StreamError):
            runtime.peer_copy_async(0, 1, 3 * MiB, s)
        assert runtime.copies_issued == 1
        assert runtime.copy_bytes_requested == MiB

    def test_destroy_stream_unregisters(self, rt):
        eng, runtime = rt
        s = runtime.create_stream(1)
        done = s.delay(2 * us)
        runtime.destroy_stream(s)
        assert s.destroyed
        assert runtime.stats_snapshot()["streams_per_device"][1] == 0
        with pytest.raises(StreamError):
            s.delay(1 * us)
        eng.run()
        assert done.ok  # queued work still drains


def test_copy_engine_released_when_flow_fails():
    """A bounded copy engine is handed on when its copy's flow fails, so a
    copy queued behind it on another stream still runs."""
    eng = Engine()
    runtime = GPURuntime(eng, systems.beluga(), copy_engines=1)
    s1, s2 = runtime.create_stream(0), runtime.create_stream(0)
    first = _poison_after(eng, runtime, s1)
    second = runtime.peer_copy_async(0, 2, MiB, s2)  # waits for the engine
    eng.run()
    assert first._exception is not None
    assert second.ok and second.value.start == pytest.approx(100 * us)
    assert runtime._copy_engines[0].held() == 0


def test_recovery_destroys_dropped_streams():
    """A path reset after a mid-flight link failure destroys the dropped
    streams, so the runtime holds exactly the pooled ones afterwards."""
    eng = Engine()
    ctx = UCXContext(eng, systems.beluga())
    put = ctx.put(0, 1, 64 * MiB, tag="r")
    eng.schedule_fn(
        200 * us, lambda _arg: ctx.runtime.fabric.fail_channel("nvl:0->1")
    )
    result = eng.run(until=put)
    eng.run()
    assert result.retries >= 1
    pipe = ctx.pipeline.stats_snapshot()
    assert pipe["streams_reset"] >= 1
    per_device = ctx.runtime.stats_snapshot()["streams_per_device"]
    assert sum(per_device.values()) == pipe["stream_pool_size"]
    assert ctx.pipeline.leaked_streams() == []
    # a device-wide barrier no longer trips over the poisoned, dropped streams
    eng.run(until=ctx.runtime.synchronize_all())


def test_staged_execute_process_budget(monkeypatch):
    """The copy hot path runs no generator processes: a staged 8-chunk
    execute costs exactly one process per active path, none from gpu/."""
    eng = Engine()
    ctx = UCXContext(eng, systems.beluga())
    plan = ctx.planner.plan(0, 1, 256 * MiB)
    plan = dataclasses.replace(
        plan,
        assignments=tuple(
            dataclasses.replace(a, chunks=8) if a.path.is_staged else a
            for a in plan.assignments
        ),
    )
    active = plan.active_assignments
    assert sum(a.path.is_staged for a in active) >= 2

    callers = []
    original = Engine.process

    def counted(self, generator, name=""):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(self, generator, name)

    monkeypatch.setattr(Engine, "process", counted)
    results = eng.run(until=ctx.pipeline.execute(plan, tag="B"))
    monkeypatch.undo()

    assert len(results) == len(active)
    assert sum(r.chunks for r in results) == sum(
        8 if a.path.is_staged else 1 for a in active
    )
    assert callers == ["repro.ucx.pipeline"] * len(active)

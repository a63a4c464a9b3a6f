"""In-order GPU streams (cudaStream analogue).

A stream is a FIFO of operations: op *i+1* starts only after op *i*
finished, while different streams progress concurrently — exactly the
ordering contract the multi-path pipeline engine builds on (one stream per
path, chunks in order within a path).

Streams are callback-chained: each operation is a small record (one
:class:`_Op` subclass per kind — copy, delay, wait, mark, and a generic
generator op kept for :meth:`Stream.enqueue`), and the previous op's
completion event starts the next one through a callback.  No process runs
per op; a copy completes straight from its fabric flow's event.

Every op still takes the two engine heap hops of a process-per-op stream:
one when it is enqueued (:meth:`_Op.arm` links it behind the previous op)
and one when it becomes ready (:meth:`_Op.start`).  Same-timestamp heap
order decides the order of ``Fabric.copy`` calls — and with it per-channel
jitter draws and admission order — so the hops are what keeps simulated
timelines unchanged (``tests/test_golden_timelines.py`` pins them).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from repro.gpu.errors import StreamError
from repro.sim.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.event import GpuEvent
    from repro.sim.fabric import Fabric
    from repro.sim.resources import Semaphore
    from repro.topology.routing import Hop


class _Op:
    """One queued stream operation; ``done`` resolves when it finishes.

    Failures are sticky: an op whose predecessor failed fails with the same
    exception without starting, so one failed copy poisons every later op
    on the stream (CUDA's sticky-error behaviour, loosely).
    """

    __slots__ = ("stream", "done")

    def __init__(self, stream: "Stream") -> None:
        self.stream = stream
        self.done = Event(stream.engine)

    def arm(self, prev: Event | None) -> None:
        """Enqueue hop: wait for the previous op (``None`` if none)."""
        if prev is None:
            self.ready()
        else:
            prev.add_callback(self.on_prev)

    def on_prev(self, prev: Event) -> None:
        if prev._exception is None:
            self.ready()
        else:
            self.fail(prev._exception)

    def ready(self) -> None:
        """Ready hop: start on the next engine step at the current time."""
        engine = self.stream.engine
        engine.schedule_fn(engine.now, self.start)

    def start(self, _arg=None) -> None:
        raise NotImplementedError

    def succeed(self, value=None) -> None:
        self.stream.ops_completed += 1
        self.done.succeed(value)

    def fail(self, exc: BaseException) -> None:
        self.done.fail(exc)

    def settle(self, ev: Event) -> None:
        """Finish with the outcome of ``ev`` (a flow or an awaited event)."""
        if ev._exception is None:
            self.succeed(ev._value)
        else:
            self.fail(ev._exception)


class _Copy(_Op):
    """A DMA copy: one fabric flow, optionally holding a copy-engine slot
    from the moment it is granted until the flow settles."""

    __slots__ = ("fabric", "hop", "nbytes", "tag", "copy_engines")

    def __init__(self, stream, fabric, hop, nbytes, tag, copy_engines) -> None:
        super().__init__(stream)
        self.fabric = fabric
        self.hop = hop
        self.nbytes = nbytes
        self.tag = tag
        self.copy_engines = copy_engines

    def start(self, _arg=None) -> None:
        if self.copy_engines is None:
            self.issue()
        else:
            self.copy_engines.acquire().add_callback(self.issue)

    def issue(self, _granted=None) -> None:
        try:
            flow = self.fabric.copy(self.hop, self.nbytes, tag=self.tag)
        except Exception as exc:  # noqa: BLE001 - fails the op, like a flow
            if self.copy_engines is not None:
                self.copy_engines.release()
            self.fail(exc)
            return
        flow.add_callback(self.settle)

    def settle(self, ev: Event) -> None:
        if self.copy_engines is not None:
            self.copy_engines.release()
        super().settle(ev)


class _Delay(_Op):
    """A fixed-cost op (sync overheads, kernel stubs)."""

    __slots__ = ("seconds",)

    def __init__(self, stream, seconds: float) -> None:
        super().__init__(stream)
        self.seconds = seconds

    def start(self, _arg=None) -> None:
        engine = self.stream.engine
        engine.schedule_fn(engine.now + self.seconds, self.succeed)


class _Wait(_Op):
    """A dependency on another stream's recorded :class:`GpuEvent`."""

    __slots__ = ("target",)

    def __init__(self, stream, target: Event) -> None:
        super().__init__(stream)
        self.target = target

    def start(self, _arg=None) -> None:
        self.target.add_callback(self.settle)


class _Mark(_Op):
    """A :class:`GpuEvent` marker: its occurrence fires (before the op's own
    completion) once all earlier work drained; a poisoned stream fails the
    occurrence instead, so cross-stream waiters fail rather than hang."""

    __slots__ = ("gpu_event", "occurred")

    def __init__(self, stream, gpu_event: "GpuEvent", occurred: Event) -> None:
        super().__init__(stream)
        self.gpu_event = gpu_event
        self.occurred = occurred

    def start(self, _arg=None) -> None:
        self.gpu_event.complete_time = self.stream.engine.now
        self.occurred.succeed(None)
        self.succeed(None)

    def fail(self, exc: BaseException) -> None:
        if not self.occurred.triggered:
            self.occurred.fail(exc)
        super().fail(exc)


class _Gen(_Op):
    """A generic op: a generator factory run as its own process, whose
    start is the ready hop."""

    __slots__ = ("factory", "label")

    def __init__(self, stream, factory: Callable[[], Generator], label: str) -> None:
        super().__init__(stream)
        self.factory = factory
        self.label = label

    def ready(self) -> None:
        stream = self.stream
        try:
            proc = stream.engine.process(
                self.factory(), name=f"{stream.name}:{self.label}"
            )
        except Exception as exc:  # noqa: BLE001 - a bad factory fails the op
            self.fail(exc)
            return
        proc.add_callback(self.settle)


class Stream:
    """An in-order execution queue bound to a device."""

    def __init__(self, engine: Engine, device_id: int, name: str = "") -> None:
        self.engine = engine
        self.device_id = device_id
        self.name = name or f"stream(dev{device_id})"
        self._tail: Event | None = None  # completion of the last op
        self.destroyed = False
        self.ops_enqueued = 0
        self.ops_completed = 0  # successful ops only

    # ------------------------------------------------------------------
    def _push(self, op: _Op) -> Event:
        if self.destroyed:
            raise StreamError(f"{self.name}: enqueue after destroy")
        prev = self._tail
        self._tail = op.done
        self.ops_enqueued += 1
        self.engine.schedule_fn(self.engine.now, op.arm, prev)
        return op.done

    def enqueue(
        self, op_factory: Callable[[], Generator], label: str = ""
    ) -> Event:
        """Append a generic operation; returns the event of *this op's*
        completion.

        ``op_factory`` is called when all previously enqueued work has
        drained; it must return a generator (a sim process body).  Failures
        propagate to the returned event and poison subsequent ops.
        """
        return self._push(_Gen(self, op_factory, label))

    def copy(
        self,
        fabric: "Fabric",
        hop: "Hop",
        nbytes: int,
        *,
        tag: str = "",
        copy_engines: "Semaphore | None" = None,
    ) -> Event:
        """Enqueue a ``fabric.copy`` along ``hop``; the event carries the
        flow's result.  With ``copy_engines`` the copy first claims a slot
        and holds it until the flow settles (also on failure)."""
        return self._push(_Copy(self, fabric, hop, nbytes, tag, copy_engines))

    def delay(self, seconds: float) -> Event:
        """Enqueue a fixed-cost operation (sync overheads, kernel stubs)."""
        if seconds < 0:
            raise ValueError("negative delay")
        return self._push(_Delay(self, float(seconds)))

    def wait_event(self, gpu_event: "GpuEvent") -> Event:
        """Enqueue a dependency: later ops wait until ``gpu_event`` occurs."""
        return self._push(_Wait(self, gpu_event.wait()))

    def mark(self, gpu_event: "GpuEvent", occurred: Event) -> Event:
        """Enqueue ``gpu_event``'s marker (see :meth:`GpuEvent.record`):
        ``occurred`` resolves when all earlier work on the stream drained."""
        return self._push(_Mark(self, gpu_event, occurred))

    def synchronize(self) -> Event:
        """Sim event that triggers once all currently enqueued work drains."""
        if self._tail is None or self._tail.triggered:
            ev = self.engine.event()
            ev.succeed(None)
            return ev
        return self._tail

    @property
    def idle(self) -> bool:
        return self._tail is None or self._tail.triggered

    @property
    def poisoned(self) -> bool:
        """True once the last op failed: every later op would fail too."""
        tail = self._tail
        return tail is not None and tail._exception is not None

    def destroy(self) -> None:
        """Reject further enqueues; work already queued still drains."""
        self.destroyed = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name} queued={self.ops_enqueued - self.ops_completed}>"


__all__ = ["Stream"]

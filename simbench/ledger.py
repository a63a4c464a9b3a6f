"""The per-layer ledger: layer counters, span wrappers and a self-time split.

Three sources, all read from outside the program:

* **Counters** — :func:`layer_counts` sums each layer's ``stats_snapshot()``
  (and the planner/graph cache stats) of one drained simulation.
* **Spans** — :func:`instrument` wraps public entry points of each layer
  (class attributes and module functions, restored afterwards) so every call
  records a span: name, host start/end, parent span and the operation id.
  Generator entry points (``RankView.sendrecv``, the collectives) record one
  span per resume.  Spans stay in memory and are written out at the end.
* **Self time** — work that runs from engine callbacks (the fabric solve at
  flush, stream chain runners) has no public call around it, so each
  layer's host self time comes from a cProfile pass aggregated by
  ``repro.*`` package.  Time spent in code outside the layers (numpy, the
  standard library, ``repro.util``) is charged to the layer that called it.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from repro.units import MiB

# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
#: Counters aggregated by maximum across simulations; the rest are summed.
PEAK_COUNTS = ("service.peak_queue_depth", "loadgen.late_s")


def _ratio(hits, misses) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_counts(ctx, comm) -> dict:
    """Deterministic counters of one drained simulation, keyed by layer."""
    eng = ctx.engine.stats_snapshot()
    fab = ctx.runtime.fabric.stats_snapshot()
    gpu = ctx.runtime.stats_snapshot()
    pipe = ctx.pipeline.stats_snapshot()
    ipc = ctx.cuda_ipc.stats_snapshot()
    plan = ctx.planner.cache.stats()
    graph = ctx.graphs.stats()
    health = ctx.health.snapshot()
    svc = ctx.transfers.stats_snapshot()
    flight = ctx.flight.summary()
    counts = {
        "engine.events": eng["events_processed"],
        "engine.cancelled": eng["events_cancelled"],
        "fabric.copies": fab["flows_completed"],
        "fabric.admitted": fab["flows_admitted"],
        "fabric.recomputes": fab["rate_recomputes"],
        "fabric.fast_admits": fab["solver_fast_admits"],
        "fabric.flows_failed": fab["flows_failed"],
        "gpu.copies": gpu["copies_issued"],
        "gpu.streams_created": gpu["streams_created"],
        "gpu.ipc_hits": gpu["ipc_cache"]["hits"],
        "gpu.ipc_misses": gpu["ipc_cache"]["misses"],
        "pipeline.transfers": pipe["transfers_executed"],
        "pipeline.replayed": pipe["transfers_replayed"],
        "pipeline.chunks": pipe["chunks_executed"],
        "pipeline.paths_failed": pipe["paths_failed"],
        "cuda_ipc.puts": ipc["puts_issued"],
        "cuda_ipc.completed": ipc["puts_completed"],
        "cuda_ipc.eager": ipc["protocols"].get("eager", 0),
        "cuda_ipc.retries": ipc["recovery"]["retries"],
        "cuda_ipc.rerouted_bytes": ipc["recovery"]["rerouted_bytes"],
        "planner.hits": plan["hits"],
        "planner.misses": plan["misses"],
        "graph.hits": graph["hits"],
        "graph.misses": graph["misses"],
        "graph.compiles": graph["compiles"],
        "health.quarantines": health["quarantines"],
        "health.epoch": health["epoch"],
        "service.submitted": svc["submitted"],
        "service.queued": svc["dispatched_queued"],
        "service.queue_time_s": svc["queue_time_total"],
        "service.peak_queue_depth": svc["peak_queue_depth"],
        "flight.spans": flight["spans_recorded"],
        "flight.dropped": flight["dropped"],
        "mpi.messages_matched": 0,
        "mpi.bytes": 0,
    }
    if comm is not None:
        mpi = comm.stats_snapshot()
        counts["mpi.messages_matched"] = mpi["messages_matched"]
        counts["mpi.bytes"] = mpi["bytes_transferred"]
    return counts


def sum_counts(many) -> dict:
    """Aggregate per-simulation counters (peaks by max, the rest summed)."""
    total: dict = {}
    for counts in many:
        for key, value in counts.items():
            if key in PEAK_COUNTS:
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: parallel lists, parent by index, one op id each."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.current_op = -1
        self._stack: list[int] = []
        self.process_calls = 0

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [
            b - a for n, a, b in zip(self.names, self.t0, self.t1) if n == name
        ]

    def summary(self) -> dict:
        """Per span name: count, total and self host seconds.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.names)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.t1[sid] - self.t0[sid]
        out: dict = {}
        for sid, name in enumerate(self.names):
            d = self.t1[sid] - self.t0[sid]
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += d
            row["self_s"] += d - child[sid]
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        doc = {
            **meta,
            "summary": self.summary(),
            "names": names,
            "columns": ["name", "t0", "t1", "parent", "op"],
            "spans": [
                [index[n], round(a, 7), round(b, 7), p, o]
                for n, a, b, p, o in zip(
                    self.names, self.t0, self.t1, self.parent, self.op
                )
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _traced_call(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)

    return wrapper


def _traced_resumes(rec: SpanRecorder, name: str, gen):
    """Proxy a generator, recording one span per resume."""
    value, exc = None, None
    while True:
        sid = rec.open(name)
        try:
            out = gen.throw(exc) if exc is not None else gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(sid)
        try:
            value, exc = (yield out), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # forwarded into the wrapped generator
            value, exc = None, err


def _traced_gen(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _traced_resumes(rec, name, fn(*args, **kwargs))

    return wrapper


def _entry_points():
    """(owner, attribute, span name) for every wrapped public entry point."""
    import repro.bench.runner as runner
    import repro.mpi.collectives as collectives
    from repro.core.planner import PathPlanner
    from repro.gpu.runtime import GPURuntime
    from repro.mpi.comm import RankView
    from repro.obs.tracing import FlightRecorder
    from repro.runtime.service import TransferManager
    from repro.sim.engine import Engine
    from repro.sim.fabric import Fabric
    from repro.ucx.cuda_ipc import CudaIpcModule
    from repro.ucx.pipeline import PipelineEngine

    return [
        (Engine, "run", "Engine.run"),
        (Fabric, "copy", "Fabric.copy"),
        (GPURuntime, "copy_on_hop_async", "GPURuntime.copy_on_hop_async"),
        (PipelineEngine, "execute_settled", "PipelineEngine.execute_settled"),
        (CudaIpcModule, "put", "CudaIpcModule.put"),
        (PathPlanner, "plan", "PathPlanner.plan"),
        (TransferManager, "submit", "TransferManager.submit"),
        (RankView, "sendrecv", "RankView.sendrecv"),
        (collectives, "allreduce", "collectives.allreduce"),
        (collectives, "alltoall", "collectives.alltoall"),
        (FlightRecorder, "begin_trace", "FlightRecorder.begin_trace"),
        (FlightRecorder, "record_path", "FlightRecorder.record_path"),
        (FlightRecorder, "settle", "FlightRecorder.settle"),
        (runner, "calibrate_cached", "calibrate_cached"),
        (runner, "static_search", "static_search"),
    ]


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap every entry point (and count ``Engine.process`` calls)."""
    from repro.sim.engine import Engine

    saved = []
    try:
        for owner, attr, name in _entry_points():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            wrap = _traced_gen if inspect.isgeneratorfunction(fn) else _traced_call
            setattr(owner, attr, wrap(rec, name, fn))
        process = Engine.__dict__["process"]
        saved.append((Engine, "process", process))

        @functools.wraps(process)
        def counted(self, generator, name=""):
            rec.process_calls += 1
            return process(self, generator, name)

        Engine.process = counted
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ----------------------------------------------------------------------
# Self time by layer
# ----------------------------------------------------------------------
#: ``repro`` sub-package (or module) -> ledger layer, longest prefix wins.
LAYER_OF = {
    "sim.engine": "engine",
    "sim": "fabric",
    "gpu": "gpu",
    "ucx.pipeline": "pipeline",
    "ucx": "cuda_ipc",
    "core": "planner",
    "runtime": "service",
    "mpi": "mpi",
    "obs": "flight",
    "bench": "other",
    "cli": "other",
}
LAYERS = (
    "engine", "fabric", "gpu", "pipeline", "cuda_ipc", "planner", "service",
    "mpi", "flight", "other",
)


def _layer_of_file(filename: str) -> str | None:
    """Layer owning a source file; None for code charged to its caller."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path:
        return "other" if "/simbench/" in path else None
    module = path.rsplit(marker, 1)[1].removesuffix(".py").replace("/", ".")
    best = None
    for prefix, layer in LAYER_OF.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def layer_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Profiled self time per layer.

    A function outside the layers is charged to its callers in proportion
    to the time each call site spent in it, recursively.
    """
    raw = stats.stats
    weights: dict = {}

    def weights_of(func, depth=0) -> dict[str, float]:
        cached = weights.get(func)
        if cached is not None:
            return cached
        layer = _layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            total = sum(v[2] for v in callers.values())
            if depth > 8 or total <= 0:
                result = {"other": 1.0}
            else:
                weights[func] = {"other": 1.0}  # cycle guard
                result = {}
                for caller, v in callers.items():
                    share = v[2] / total
                    for lay, w in weights_of(caller, depth + 1).items():
                        result[lay] = result.get(lay, 0.0) + share * w
        weights[func] = result
        return result

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        for lay, w in weights_of(func).items():
            out[lay] += tt * w
    return out


def profiled(fn):
    """Run ``fn()`` under cProfile; returns (result, per-layer self time)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, layer_self_times(pstats.Stats(prof))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def per_layer_metrics(
    counts: dict,
    rec: SpanRecorder,
    self_time: dict[str, float],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    setup_spans: SpanRecorder,
    candidates: int,
    model_err_pct: float,
) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    c = counts
    copies = max(c["fabric.copies"], 1)
    puts = max(c["cuda_ipc.puts"], 1)
    submitted = max(c["service.submitted"], 1)
    transfers = max(c["pipeline.transfers"], 1)
    profiled_total = sum(self_time.values()) or 1.0
    plans = rec.durations("PathPlanner.plan")
    m = {}
    for layer in LAYERS:
        if layer != "other":
            m[f"{layer}.self_s"] = (
                traced_wall_s * self_time[layer] / profiled_total, "s"
            )
    m["other.self_s"] = (
        traced_wall_s - sum(v for v, _ in m.values()), "s"
    )
    m.update({
        "engine.events_per_copy": (c["engine.events"] / copies, "count"),
        "engine.processes_per_copy": (rec.process_calls / copies, "count"),
        "engine.cancelled": (c["engine.cancelled"], "count"),
        "fabric.recomputes_per_copy": (c["fabric.recomputes"] / copies, "count"),
        "fabric.fast_admit_ratio": (
            c["fabric.fast_admits"] / max(c["fabric.admitted"], 1), "ratio"
        ),
        "fabric.flows_failed": (c["fabric.flows_failed"], "count"),
        "gpu.copies_per_put": (c["gpu.copies"] / puts, "count"),
        "gpu.streams_created": (c["gpu.streams_created"], "count"),
        "gpu.ipc_hit_ratio": (_ratio(c["gpu.ipc_hits"], c["gpu.ipc_misses"]), "ratio"),
        "pipeline.chunks_per_put": (c["pipeline.chunks"] / transfers, "count"),
        "pipeline.replay_ratio": (c["pipeline.replayed"] / transfers, "ratio"),
        "pipeline.paths_failed": (c["pipeline.paths_failed"], "count"),
        "cuda_ipc.retries": (c["cuda_ipc.retries"], "count"),
        "cuda_ipc.rerouted_mib": (c["cuda_ipc.rerouted_bytes"] / MiB, "MiB"),
        "cuda_ipc.eager_frac": (
            c["cuda_ipc.eager"] / max(c["cuda_ipc.completed"], 1), "ratio"
        ),
        "planner.plan_us": (1e6 * sum(plans) / len(plans) if plans else 0.0, "us"),
        "planner.model_err_pct": (model_err_pct, "%"),
        "planner.hit_ratio": (_ratio(c["planner.hits"], c["planner.misses"]), "ratio"),
        "graph.hit_ratio": (_ratio(c["graph.hits"], c["graph.misses"]), "ratio"),
        "graph.compiles": (c["graph.compiles"], "count"),
        "health.quarantines": (c["health.quarantines"], "count"),
        "health.epoch": (c["health.epoch"], "count"),
        "service.queue_wait_us": (1e6 * c["service.queue_time_s"] / submitted, "us"),
        "service.peak_queue_depth": (c["service.peak_queue_depth"], "count"),
        "service.queued_frac": (c["service.queued"] / submitted, "ratio"),
        "mpi.messages_matched": (c["mpi.messages_matched"], "count"),
        "mpi.payload_mib": (c["mpi.bytes"] / MiB, "MiB"),
        "flight.spans": (c["flight.spans"], "count"),
        "flight.dropped": (c["flight.dropped"], "count"),
        "loadgen.late_us": (1e6 * c.get("loadgen.late_s", 0.0), "us"),
        "setup.calibrate_s": (sum(setup_spans.durations("calibrate_cached")), "s"),
        "setup.static_search_s": (sum(setup_spans.durations("static_search")), "s"),
        "setup.candidates": (candidates, "count"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_pct": (
            100.0 * (traced_wall_s / untraced_wall_s - 1.0), "%"
        ),
    })
    return m

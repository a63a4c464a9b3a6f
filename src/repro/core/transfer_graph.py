"""Compiled transfer graphs: the entries of the planner's plan cache.

Algorithm 1 caches one configuration per transfer shape (Lines 4-6).  Here
that cache entry is a :class:`TransferGraph`: the immutable
:class:`~repro.core.planner.TransferPlan` plus the per-path execution
schedule the pipeline engine runs, in the spirit of the paper group's
CUDA-Graphs follow-up, which treats the captured graph as the plan itself.

* :class:`CompiledPath` — one path's frozen execution schedule: the
  resolved :class:`~repro.core.planner.PathAssignment`, the pooled-stream
  keys, the chunk byte schedule, the precomputed ε sync cost, and the
  per-chunk tag/event-name suffixes (labels are ``tag``-dependent, so only
  their invariant parts can be frozen; execution concatenates
  ``label + suffix``).
* :class:`TransferGraph` — a cached plan whose schedule is compiled the
  first time the entry is executed.  A schedule is a pure function of its
  plan, so an entry stays valid exactly as long as its plan does.
* :class:`PlanCache` — the planner's LRU of graphs, which also counts
  compilations.  There is one per :class:`~repro.core.planner.PathPlanner`,
  and so one per transport context.

Uncached plans (recovery replans, offline search candidates) are compiled
on the fly by :func:`compile_plan`, so the pipeline has one execution path.
The key layout and the invalidation signals are documented on
:meth:`~repro.core.planner.PathPlanner.plan_key`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planner import PathAssignment, TransferPlan
    from repro.ucx.pipeline import PipelineEngine


@dataclass(frozen=True)
class CompiledPath:
    """One path's frozen execution schedule (see module docstring)."""

    assignment: "PathAssignment"
    #: Pooled-stream keys, resolved per execution (streams are dropped
    #: after faults, so binding Stream objects would reuse poisoned queues).
    stream_keys: tuple[tuple, ...]
    #: Devices the streams live on, parallel to ``stream_keys``.
    stream_devices: tuple[int, ...]
    #: Chunk byte schedule (empty for direct paths).
    chunk_sizes: tuple[int, ...]
    #: Precomputed staging sync cost (0.0 for direct paths).
    epsilon: float = 0.0
    #: Per-chunk tag/event-name suffixes appended to the path label.
    h1_suffixes: tuple[str, ...] = ()
    event_suffixes: tuple[str, ...] = ()
    h2_suffixes: tuple[str, ...] = ()


@dataclass(eq=False)
class TransferGraph:
    """A cached planner decision plus its lazily compiled schedule."""

    plan: "TransferPlan"
    #: One :class:`CompiledPath` per active assignment; ``None`` until the
    #: entry is first executed (see :meth:`PlanCache.compile`).
    paths: tuple[CompiledPath, ...] | None = None
    compile_wall_s: float = 0.0
    #: Executions served from this entry after the first.
    replays: int = 0

    @property
    def amortized_setup_s(self) -> float:
        """Compile cost spread over every execution the graph served."""
        return self.compile_wall_s / (1 + self.replays)


def compile_plan(
    plan: "TransferPlan", pipeline: "PipelineEngine"
) -> tuple[CompiledPath, ...]:
    """Freeze a plan's per-path execution schedules.

    Everything the pipeline derives per path that does not depend on the
    transfer's tag is resolved here: stream-pool keys, chunk byte splits,
    the ε sync cost, and the invariant suffix of every per-chunk tag and
    event name.
    """
    compiled = []
    for a in plan.active_assignments:
        path_id = a.path.path_id
        if not a.path.is_staged:
            compiled.append(
                CompiledPath(
                    assignment=a,
                    stream_keys=((plan.src, plan.dst, path_id, "direct"),),
                    stream_devices=(plan.src,),
                    chunk_sizes=(),
                )
            )
            continue
        stage_dev = a.path.via if a.path.via is not None else plan.src
        chunks = pipeline._chunk_sizes(a.nbytes, a.chunks)
        n = len(chunks)
        compiled.append(
            CompiledPath(
                assignment=a,
                stream_keys=(
                    (plan.src, plan.dst, path_id, "h1"),
                    (plan.src, plan.dst, path_id, "h2"),
                ),
                stream_devices=(plan.src, stage_dev),
                chunk_sizes=tuple(chunks),
                epsilon=pipeline.runtime.sync_cost(via_gpu=a.path.via is not None),
                h1_suffixes=tuple(f":h1:{c}" for c in range(n)),
                event_suffixes=tuple(f":c{c}" for c in range(n)),
                h2_suffixes=tuple(f":h2:{c}" for c in range(n)),
            )
        )
    return tuple(compiled)


class PlanCache(LRUCache):
    """The planner's LRU of :class:`TransferGraph` entries."""

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)
        self.compiles = 0
        self.compile_wall_s = 0.0

    def compile(self, graph: TransferGraph, pipeline: "PipelineEngine") -> None:
        """Compile ``graph``'s schedule unless an earlier execution did."""
        if graph.paths is not None:
            return
        wall0 = time.perf_counter()
        graph.paths = compile_plan(graph.plan, pipeline)
        graph.compile_wall_s = time.perf_counter() - wall0
        self.compiles += 1
        self.compile_wall_s += graph.compile_wall_s

    def stats(self) -> dict:
        return {
            **super().stats(),
            "compiles": self.compiles,
            "compile_wall_s": self.compile_wall_s,
        }

    def report_rows(self) -> list[dict]:
        """Per-entry rows for ``cli graphs``: replays and amortised cost."""
        rows = []
        for key, graph in self._data.items():
            plan = graph.plan
            rows.append({
                "src": plan.src,
                "dst": plan.dst,
                "nbytes": plan.nbytes,
                "mode": key[0],
                "paths": plan.num_active_paths,
                "chunks": sum(a.chunks for a in plan.active_assignments),
                "replays": graph.replays,
                "compile_us": graph.compile_wall_s * 1e6,
                "amortized_us": graph.amortized_setup_s * 1e6,
            })
        rows.sort(key=lambda r: -r["replays"])
        return rows


__all__ = ["CompiledPath", "TransferGraph", "PlanCache", "compile_plan"]

"""The cuda_ipc transport module (paper Fig. 2a, Steps 3–4).

Every GPU-to-GPU transfer lands here.  The module

* charges the per-request software overhead and opens (cached) IPC handles;
* picks the protocol: **eager** below the rendezvous threshold — a single
  copy on the best single path — or **rendezvous** with a handshake;
* for rendezvous transfers, obtains the path configuration from one of
  three sources matching the paper's evaluated configurations: the runtime
  model (*dynamic*), a fixed offline distribution (*static*), or the single
  direct path (*baseline*);
* hands the configuration to the pipeline engine (Step 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.chunking import effective_params
from repro.core.planner import PathAssignment, TransferPlan
from repro.core.transfer_graph import TransferGraph
from repro.gpu.errors import PathUnavailable, TransferTimeout
from repro.sim.engine import Event
from repro.topology.routing import enumerate_paths
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.ucx.context import UCXContext

#: Per-request software cost, paid by every non-empty put.
REQUEST_OVERHEAD = 0.4 * us
#: Eager-protocol send cost (below the rendezvous threshold).
EAGER_OVERHEAD = 1.0 * us
#: Rendezvous RTS/CTS handshake cost.
RNDV_OVERHEAD = 3.0 * us
#: First recovery backoff; doubles per retry.
RETRY_BACKOFF = 25 * us


@dataclass(frozen=True)
class PutResult:
    """Completion record of a one-sided PUT."""

    src: int
    dst: int
    nbytes: int
    protocol: str  # "eager" | "rndv"
    mode: str  # "dynamic" | "static" | "single"
    start: float
    end: float
    #: Replans forced by path failures/timeouts (0 on the happy path).
    retries: int = 0
    #: Bytes that had to be re-routed over surviving paths.
    rerouted_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Mean bandwidth; defined as 0.0 for zero-byte and zero-duration
        transfers (a 0-byte put completes in pure overhead time)."""
        return self.nbytes / self.duration if self.duration > 0 else 0.0


class CudaIpcModule:
    """Routes transfers through the planner and pipeline engine."""

    def __init__(self, context: "UCXContext") -> None:
        self.context = context
        self.puts_issued = 0
        self.puts_completed = 0
        self.bytes_put = 0
        self.protocol_counts = {"eager": 0, "rndv": 0}
        self.mode_counts = {"dynamic": 0, "static": 0, "single": 0}
        # Recovery accounting (see DESIGN.md §5d)
        self.puts_recovered = 0
        self.puts_failed = 0
        self.path_failovers = 0
        self.retries_total = 0
        self.rerouted_bytes = 0

    # ------------------------------------------------------------------
    def put(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        tag: str = "",
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> Event:
        """One-sided PUT; returns the process event (value: PutResult).

        Every put routes through the context's :class:`TransferManager`
        (admission control, coalescing, load tracking); the manager calls
        back into :meth:`start_put` to issue the actual transfer.
        ``deadline``/``timeout`` (absolute/relative completion bound) flow
        through to the manager's deadline-aware admission (DESIGN.md §5h).
        """
        if nbytes < 0:
            raise ValueError("negative PUT size")
        return self.context.transfers.submit(
            src, dst, nbytes, tag=tag, deadline=deadline, timeout=timeout
        )

    def start_put(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        tag: str = "",
        trace: tuple[int, int] = (-1, -1),
        deadline_at: float | None = None,
    ) -> Event:
        """Issue a PUT directly, bypassing the transfer service.

        This is the pre-service issue path, kept as the manager's dispatch
        target and as the bit-identity reference for tests.  Application
        code should call :meth:`put`.

        ``trace`` is the flight-recorder identity (``trace_id, root_sid``)
        minted at admission; a standalone call (no manager in front) mints
        its own trace here so every put has a complete story.
        ``deadline_at`` is the absolute completion bound the recovery loop
        honours (backoff sleeps are capped at the remaining budget).
        """
        self.puts_issued += 1
        flight = self.context.flight
        trace_id, root_sid = trace
        owns_root = False
        if trace_id < 0 and flight.enabled:
            trace_id, root_sid = flight.begin_trace(
                "transfer", {"src": src, "dst": dst, "nbytes": nbytes, "tag": tag}
            )
            owns_root = True
        ev = self.context.engine.process(
            self._put_proc(
                src, dst, nbytes, tag, self.puts_issued, trace_id, root_sid,
                deadline_at=deadline_at,
            ),
            name=f"put:{src}->{dst}",
        )
        if owns_root:
            ev.add_callback(
                lambda e, t=trace_id, r=root_sid: self._settle_trace(t, r, e)
            )
        return ev

    def _settle_trace(self, trace_id: int, root_sid: int, ev: Event) -> None:
        """Standalone puts: record ``settle`` and close the root span."""
        flight = self.context.flight
        attrs = {"ok": ev.ok}
        if ev.ok:
            result = ev.value
            attrs["retries"] = result.retries
            attrs["rerouted_bytes"] = result.rerouted_bytes
        flight.settle(trace_id, root_sid, attrs)

    def _put_proc(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: str,
        seq: int,
        trace_id: int = -1,
        root_sid: int = -1,
        deadline_at: float | None = None,
    ):
        ctx = self.context
        cfg = ctx.config
        engine = ctx.engine
        flight = ctx.flight
        tracing = flight.enabled and trace_id >= 0
        start = engine.now
        # One label names the put span AND prefixes its per-path pipeline
        # spans/copy tags, so the critical-path analyzer can join them.
        label = tag or f"put{seq}"

        if nbytes == 0:
            # Zero-byte PUT: a transport-level no-op.  Completes at the
            # current time with no planning, pipeline work, or chunk lists
            # (the chunker rejects 0-byte splits); bandwidth is 0.0.
            self.puts_completed += 1
            self.protocol_counts["eager"] += 1
            self.mode_counts["single"] += 1
            if ctx.obs is not None:
                ctx.obs.spans.record(
                    label,
                    "put",
                    f"put:{src}->{dst}",
                    start,
                    start,
                    seq=seq,
                    src=src,
                    dst=dst,
                    nbytes=0,
                    protocol="eager",
                    mode="single",
                )
            return PutResult(
                src=src,
                dst=dst,
                nbytes=0,
                protocol="eager",
                mode="single",
                start=start,
                end=start,
            )

        # Per-request software cost + (cached) IPC handle translation.
        yield engine.timeout(REQUEST_OVERHEAD)
        yield ctx.runtime.open_ipc(src, dst)

        eager = nbytes < cfg.rndv_threshold
        if eager:
            yield engine.timeout(EAGER_OVERHEAD)
            mode = "single"
            protocol = "eager"
        else:
            yield engine.timeout(RNDV_OVERHEAD)
            protocol = "rndv"
            if not cfg.multipath:
                mode = "single"
            elif cfg.static_shares:
                mode = "static"
            else:
                mode = "dynamic"
        # Overload coupling: the manager's governor may request a cheaper
        # plan (the degrade level joins the plan cache key), and its retry
        # budget meters the recovery loop below.  Both are inert at the
        # defaults (degrade 0, budget disabled).
        manager = ctx.transfers
        budget = manager.retry_budget
        if not budget.enabled:
            budget = None
        graph = self._acquire_plan(
            src, dst, nbytes, mode, trace_id, root_sid, manager.degrade_level
        )
        plan = graph.plan

        # ------------------------------------------------------------------
        # Execute, recovering from path failures/timeouts: each round runs
        # the current plan to a settled outcome; failed paths' missing bytes
        # are replanned over the surviving paths (bounded retries with
        # exponential backoff — a flapping link needs the pause to settle).
        # With recovery disabled by config, the legacy fail-fast path runs
        # with zero extra machinery (timeline-invariance escape hatch).
        # ------------------------------------------------------------------
        resilient = cfg.max_path_retries > 0 or cfg.deadline_factor is not None
        health = ctx.health
        obs = ctx.obs
        # The service's load tracker: each execution round registers its
        # plan's per-channel footprint so other transfers planning while
        # this one moves bytes see the fabric as loaded.  Acquired *after*
        # planning (a transfer never derates against itself), released as
        # soon as the round settles (recovery replans against current load).
        tracker = manager.load
        budget_fallback_used = False
        exec_start = engine.now
        retries = 0
        delivered = 0
        rerouted = 0
        fault_time: float | None = None
        failed_paths: set[str] = set()
        current = plan
        attempt_label = label
        # Flight-span state: round 0's path spans parent to the trace root;
        # each retry round's parent to its open recovery.retry[k] span.
        exec_parent = root_sid
        retry_sid = -1
        while True:
            hold = tracker.acquire(current)
            try:
                if resilient:
                    settled = yield ctx.pipeline.execute_settled(
                        current,
                        tag=attempt_label,
                        deadline_factor=cfg.deadline_factor,
                        trace=(trace_id, exec_parent),
                        graph=graph,
                    )
                    execs, faults = settled.executions, settled.faults
                else:
                    execs = yield ctx.pipeline.execute(
                        current,
                        tag=attempt_label,
                        trace=(trace_id, exec_parent),
                        graph=graph,
                    )
                    faults = ()
            finally:
                tracker.release(hold)
            delivered += sum(e.nbytes for e in execs)
            delivered += sum(f.delivered for f in faults)
            if tracing and retry_sid >= 0:
                # the retry's story (backoff + replan + re-execution)
                # ends when its execution round settles
                flight.finish(retry_sid, faults=len(faults))
                retry_sid = -1
            if health is not None:
                now = engine.now
                for e in execs:
                    health.record_success(src, dst, e.path_id, now=now)
                for f in faults:
                    health.record_failure(src, dst, f.path_id, now=now)
            if not faults:
                break
            graph = None  # recovery replans are uncached
            if fault_time is None:
                fault_time = min(f.end for f in faults)
            failed_paths.update(f.path_id for f in faults)
            self.path_failovers += len(faults)
            if obs is not None:
                m = obs.metrics
                m.counter("recovery.failovers").inc(len(faults))
                for f in faults:
                    if isinstance(f.error, TransferTimeout):
                        m.counter("recovery.timeouts").inc()
                    else:
                        m.counter("recovery.link_failures").inc()
            remaining = nbytes - delivered
            if remaining <= 0:
                break  # every byte landed despite the late error
            if retries >= cfg.max_path_retries:
                self.puts_failed += 1
                if obs is not None:
                    obs.metrics.counter("recovery.puts_failed").inc()
                raise PathUnavailable(
                    src,
                    dst,
                    failed=tuple(sorted(failed_paths)),
                    message=(
                        f"put {label!r}: {remaining} of {nbytes} bytes "
                        f"undeliverable after {retries} retries "
                        f"(failed paths: {', '.join(sorted(failed_paths))})"
                    ),
                )
            retries += 1
            self.retries_total += 1
            backoff = RETRY_BACKOFF * (2 ** (retries - 1))
            budget_scale = 0  # >0 once registered for collective backoff
            if budget is not None:
                if budget.try_consume((src, dst), engine.now):
                    # Collective backoff: scale by how many transfers are
                    # concurrently in recovery (a lone retry keeps the
                    # classic schedule; a storm of N spreads over ~N windows).
                    budget_scale = budget.begin_backoff()
                    backoff *= budget_scale
                else:
                    if obs is not None:
                        obs.metrics.counter("overload.budget_denied").inc()
                    if budget_fallback_used:
                        # Budget dry and the fallback already ran: fail fast
                        # instead of burning more backoff on a dead pair.
                        self.puts_failed += 1
                        if obs is not None:
                            obs.metrics.counter("recovery.puts_failed").inc()
                        raise PathUnavailable(
                            src,
                            dst,
                            failed=tuple(sorted(failed_paths)),
                            message=(
                                f"put {label!r}: retry budget exhausted with "
                                f"{remaining} of {nbytes} bytes undelivered "
                                f"(failed paths: {', '.join(sorted(failed_paths))})"
                            ),
                        )
                    # One unmetered host-staging fallback replan, no backoff:
                    # the widened-exclusion ladder in _replan already prefers
                    # host staging once GPU paths have failed.
                    budget_fallback_used = True
                    backoff = 0.0
                    if obs is not None:
                        obs.metrics.counter("overload.budget_fallbacks").inc()
            if deadline_at is not None:
                # Deadline-aware backoff: never sleep past the remaining
                # budget, and fail immediately once it is gone.
                remaining_t = deadline_at - engine.now
                if remaining_t <= 0:
                    self.puts_failed += 1
                    if obs is not None:
                        obs.metrics.counter("recovery.puts_failed").inc()
                        obs.metrics.counter("deadline.recovery_timeouts").inc()
                    if budget_scale:
                        budget.end_backoff()
                    raise TransferTimeout(
                        f"put:{src}->{dst}",
                        deadline_at,
                        message=(
                            f"put {label!r}: deadline t={deadline_at:.6g}s "
                            f"exhausted during recovery ({remaining} of "
                            f"{nbytes} bytes undelivered)"
                        ),
                    )
                backoff = min(backoff, remaining_t)
            if tracing:
                retry_sid = flight.begin(
                    f"recovery.retry[{retries}]",
                    trace_id,
                    parent=root_sid,
                    attrs={
                        "failed_paths": sorted(failed_paths),
                        "backoff": backoff,
                        "rerouted_bytes": remaining,
                    },
                )
                exec_parent = retry_sid
            if backoff > 0:
                yield engine.timeout(backoff)
            if budget_scale:
                budget.end_backoff()
            if tracing:
                wall0 = time.perf_counter()
                flight.active_trace = trace_id
            try:
                current = self._replan(src, dst, remaining, failed_paths)
            finally:
                if tracing:
                    flight.active_trace = -1
            if tracing:
                wall = time.perf_counter() - wall0
                flight.record(
                    "plan",
                    trace_id,
                    parent=retry_sid,
                    attrs={
                        "mode": "replan",
                        "paths": 0 if current is None else current.num_active_paths,
                        "wall_time_s": wall,
                    },
                    stage_value=wall,
                )
            if current is None:
                if retry_sid >= 0:
                    flight.finish(retry_sid, ok=False)
                self.puts_failed += 1
                if obs is not None:
                    obs.metrics.counter("recovery.puts_failed").inc()
                raise PathUnavailable(
                    src, dst, failed=tuple(sorted(failed_paths))
                )
            rerouted += remaining
            self.rerouted_bytes += remaining
            attempt_label = f"{label}:r{retries}"
            if obs is not None:
                m = obs.metrics
                m.counter("recovery.retries").inc()
                m.counter("recovery.retried_bytes").inc(remaining)

        end = engine.now
        self.puts_completed += 1
        self.bytes_put += nbytes
        self.protocol_counts[protocol] += 1
        self.mode_counts[mode] += 1
        if retries > 0:
            self.puts_recovered += 1
        if obs is not None:
            obs.spans.record(
                label,
                "put",
                f"put:{src}->{dst}",
                start,
                end,
                seq=seq,
                src=src,
                dst=dst,
                nbytes=nbytes,
                protocol=protocol,
                mode=mode,
                paths=plan.num_active_paths,
                predicted=plan.predicted_time,
                retries=retries,
            )
            obs.metrics.histogram("cuda_ipc.put_nbytes").observe(nbytes)
            if retries > 0:
                # Per-put recovery overhead: first fault -> completion.
                obs.metrics.counter("recovery.puts_recovered").inc()
                obs.spans.record(
                    f"{label}:recovery",
                    "recovery",
                    f"put:{src}->{dst}",
                    fault_time if fault_time is not None else exec_start,
                    end,
                    retries=retries,
                    rerouted_bytes=rerouted,
                    failed_paths=sorted(failed_paths),
                )
            # Closed-loop feedback: only dynamic rndv plans carry a real
            # model prediction (single/static use placeholder times), the
            # prediction covers the pipeline execution interval only, and
            # fault-lengthened intervals would poison the recalibrator —
            # recovered puts are excluded.
            if mode == "dynamic" and protocol == "rndv" and retries == 0:
                obs.feedback(plan, end - exec_start, now=end)
        return PutResult(
            src=src,
            dst=dst,
            nbytes=nbytes,
            protocol=protocol,
            mode=mode,
            start=start,
            end=end,
            retries=retries,
            rerouted_bytes=rerouted,
        )

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        return {
            "puts_issued": self.puts_issued,
            "puts_completed": self.puts_completed,
            "bytes_put": self.bytes_put,
            "protocols": dict(self.protocol_counts),
            "modes": dict(self.mode_counts),
            "recovery": {
                "puts_recovered": self.puts_recovered,
                "puts_failed": self.puts_failed,
                "path_failovers": self.path_failovers,
                "retries": self.retries_total,
                "rerouted_bytes": self.rerouted_bytes,
            },
        }

    # ------------------------------------------------------------------
    def _load_snapshot(self):
        """Current-load snapshot for planning, or None (contention-blind).

        Only consulted when ``contention_aware`` is on; the snapshot is
        taken at plan time, so the recovery loop's replans automatically
        price the fabric as it is *now*, not as it was at submission.
        """
        if not self.context.config.contention_aware:
            return None
        return self.context.transfers.load.snapshot()

    def _acquire_plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        trace_id: int,
        parent_sid: int,
        degrade: int,
    ) -> TransferGraph:
        """The transfer's plan-cache entry, compiled for execution.

        A hit is one key build plus one LRU get and records a
        ``plan.graph_hit`` flight span; a miss plans, caches the plan and
        records ``plan``.  Either way the entry's schedule is compiled on
        its first execution.

        For dynamic plans the load snapshot and the health query are taken
        exactly once, before the lookup, because both feed the key.
        :meth:`PathHealthRegistry.excluded` has a probe side effect
        (quarantined -> probing when the probe is due), so a second query
        could see a different exclusion set.
        """
        ctx = self.context
        cfg = ctx.config
        planner = ctx.planner
        cache = planner.cache
        flight = ctx.flight
        tracing = flight.enabled and trace_id >= 0
        obs = ctx.obs
        timed = tracing or obs is not None
        wall0 = time.perf_counter() if timed else 0.0
        load = None
        exclude = cfg.exclude_paths
        if mode == "dynamic":
            load = self._load_snapshot()
            if load is not None and load.is_idle:
                load = None
            quarantined = ctx.health.excluded(src, dst, now=ctx.engine.now)
            exclude = tuple(sorted(set(exclude) | set(quarantined)))
            key = planner.plan_key(
                src, dst, nbytes, cfg.include_host, cfg.max_gpu_staged,
                exclude, () if load is None else load.bucket_key(), degrade,
            )
        else:
            key = (mode, src, dst, nbytes)
        graph = cache.get(key)
        if graph is not None:
            graph.replays += 1
            kind = "plan.graph_hit"
            plan = graph.plan
        else:
            kind = "plan"
            if tracing:
                flight.active_trace = trace_id
            try:
                plan = self._make_plan(src, dst, nbytes, mode, exclude, load, degrade)
            finally:
                if tracing:
                    flight.active_trace = -1
            graph = TransferGraph(plan)
            cache.put(key, graph)
        if timed:
            wall = time.perf_counter() - wall0
            if tracing:
                flight.record(
                    kind,
                    trace_id,
                    parent_sid,
                    attrs={
                        "mode": mode,
                        "paths": plan.num_active_paths,
                        "predicted": plan.predicted_time,
                        "wall_time_s": wall,
                    },
                    stage_value=wall,
                )
            if obs is not None and kind == "plan.graph_hit":
                planner.observe_graph_hit(
                    plan, wall, load, trace_id if tracing else -1
                )
        cache.compile(graph, ctx.pipeline)
        return graph

    def _make_plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        mode: str,
        exclude: tuple[str, ...] = (),
        load=None,
        degrade: int = 0,
    ) -> TransferPlan:
        """Plan a cache miss in ``mode`` (synchronous: zero simulated time).

        Dynamic plans exclude ``exclude`` (the configured exclusions plus
        the quarantined paths).  If quarantining left no candidate, fall
        back to the configured set — a quarantined path is still a better
        bet than failing outright.
        """
        if mode == "single":
            return self._single_path_plan(src, dst, nbytes)
        if mode == "static":
            return self._static_plan(src, dst, nbytes)
        cfg = self.context.config
        planner = self.context.planner
        kwargs = {
            "include_host": cfg.include_host,
            "max_gpu_staged": cfg.max_gpu_staged,
            "load": load,
            "degrade": degrade,
            "use_cache": False,
        }
        try:
            return planner.plan(src, dst, nbytes, exclude=exclude, **kwargs)
        except ValueError:
            if set(exclude) == set(cfg.exclude_paths):
                raise
        return planner.plan(src, dst, nbytes, exclude=cfg.exclude_paths, **kwargs)

    def _replan(
        self, src: int, dst: int, remaining: int, failed_paths: set[str]
    ) -> TransferPlan | None:
        """Plan the missing bytes over paths that are still believed alive.

        Recovery widens the candidate set to include host staging even when
        the config disabled it (graceful degradation beats an exclusion
        preference), but config-excluded paths stay excluded.  If failures
        plus quarantines rule out everything, the per-put failure memory is
        forgiven and the full set retried — a flapping link may be back up.
        Returns ``None`` only when no candidate path exists at all.
        """
        ctx = self.context
        cfg = ctx.config
        base = set(cfg.exclude_paths)
        health = ctx.health
        if health is not None:
            base |= set(health.excluded(src, dst, now=ctx.engine.now))
        for exclude in (base | failed_paths, base, set(cfg.exclude_paths)):
            try:
                paths = enumerate_paths(
                    ctx.topology,
                    src,
                    dst,
                    include_host=True,
                    max_gpu_staged=cfg.max_gpu_staged,
                    exclude=tuple(sorted(exclude)),
                )
            except ValueError:
                continue
            # Paths we are about to retry despite an earlier failure are
            # forgiven, so a later fault on them counts as fresh.
            failed_paths -= {p.path_id for p in paths}
            return ctx.planner.plan_for_paths(
                src, dst, remaining, paths, load=self._load_snapshot()
            )
        return None

    # ------------------------------------------------------------------
    def _paths(self, src: int, dst: int, *, single: bool = False):
        cfg = self.context.config
        if single:
            # Prefer the direct path; degenerate systems fall back to the
            # first available (host-staged on PCIe-only nodes).
            return enumerate_paths(
                self.context.topology, src, dst, include_host=True
            )
        return enumerate_paths(
            self.context.topology,
            src,
            dst,
            include_host=cfg.include_host,
            max_gpu_staged=cfg.max_gpu_staged,
            exclude=cfg.exclude_paths,
        )

    def _assignment(self, path, nbytes: int, theta: float, chunks: int) -> PathAssignment:
        params = self.context.planner.store.path_params(path)
        return PathAssignment(
            path=path,
            params=params,
            effective=effective_params(params, None),
            theta=theta,
            nbytes=nbytes,
            chunks=chunks,
        )

    def _single_path_plan(self, src: int, dst: int, nbytes: int) -> TransferPlan:
        paths = self._paths(src, dst, single=True)
        best = paths[0]  # canonical order puts direct first when it exists
        a = self._assignment(best, nbytes, 1.0, 1)
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=(a,),
            predicted_time=max(a.params.alpha1, 1e-12),
        )

    def _static_plan(self, src: int, dst: int, nbytes: int) -> TransferPlan:
        cfg = self.context.config
        paths = self._paths(src, dst)
        # Static shares are tuned offline on one reference pair; apply them
        # to any pair by *role*: "direct" -> the direct path, "gpu:*" ->
        # the i-th GPU-staged candidate of this pair, "host" -> host.
        by_kind = {p.path_id: p for p in paths if p.via is None}
        gpu_staged = [p for p in paths if p.via is not None]
        resolved = []
        staged_cursor = 0
        for share in cfg.static_shares:
            if share.path_id.startswith("gpu:"):
                if staged_cursor >= len(gpu_staged):
                    raise KeyError(
                        f"static share {share.path_id!r} has no staged "
                        f"candidate left for pair ({src}, {dst})"
                    )
                resolved.append((gpu_staged[staged_cursor], share))
                staged_cursor += 1
            elif share.path_id in by_kind:
                resolved.append((by_kind[share.path_id], share))
            else:
                raise KeyError(
                    f"static share references unavailable path {share.path_id!r} "
                    f"for pair ({src}, {dst})"
                )
        assignments = []
        assigned = 0
        for i, (path, share) in enumerate(resolved):
            is_last = i == len(resolved) - 1
            nb = nbytes - assigned if is_last else int(share.fraction * nbytes)
            assigned += nb
            assignments.append(
                self._assignment(path, nb, share.fraction, share.chunks)
            )
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=tuple(assignments),
            predicted_time=max(a.params.alpha1 for a in assignments),
        )


__all__ = ["CudaIpcModule", "PutResult"]

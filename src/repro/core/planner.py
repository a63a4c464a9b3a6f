"""Algorithm 1: the runtime path-configuration planner.

Given (src, dst, message size, candidate paths) the planner

1. checks the configuration cache (Lines 4–6);
2. resolves each path's calibrated link parameters (Lines 7–15);
3. computes the pipelined effective Ω_i, Δ_i with the φ linearisation and
   the sequential-initiation correction of Line 18 (Lines 16–21);
4. solves the equal-time system for θ* (Lines 22–26);
5. converts fractions into aligned byte shares, gives the rounding
   leftover to the direct path (Lines 27–29), and caches the result.

The computation is O(paths) per miss and O(1) per hit, which is what makes
the <0.1 % runtime-overhead claim of §5 hold (see the planner-overhead
bench).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chunking import (
    EffectiveParams,
    effective_params,
    fit_phi_for_sizes,
    linear_chunks,
    phi_at,
)
from repro.core.optimizer import optimal_fractions
from repro.core.params import ParameterStore, PathParams
from repro.core.transfer_graph import PlanCache, TransferGraph
from repro.topology.node import NodeTopology
from repro.topology.routing import PathDescriptor, PathKind, enumerate_paths
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.runtime.load import LoadSnapshot

#: Byte shares are rounded down to this multiple (GPU copies want aligned
#: buffers); the remainder goes to the direct path.
ALIGNMENT = 256

#: Message-size window used to fit φ when no calibrated value exists.
DEFAULT_PHI_SIZES = tuple(int(2**i * MiB) for i in range(1, 10))  # 2MiB..512MiB


@dataclass(frozen=True)
class PathAssignment:
    """One path's share of a planned transfer."""

    path: PathDescriptor
    params: PathParams
    effective: EffectiveParams
    theta: float
    nbytes: int
    chunks: int

    def describe(self) -> str:
        return (
            f"{self.path.path_id}: theta={self.theta:.4f} "
            f"bytes={self.nbytes} chunks={self.chunks}"
        )


@dataclass(frozen=True)
class TransferPlan:
    """The planner's output: byte shares and chunk counts per path."""

    src: int
    dst: int
    nbytes: int
    assignments: tuple[PathAssignment, ...]
    predicted_time: float
    from_cache: bool = False

    @property
    def predicted_bandwidth(self) -> float:
        return self.nbytes / self.predicted_time if self.predicted_time > 0 else 0.0

    # cached: plans are frozen and these are walked once per execution
    # round plus once per recorded plan span (cached_property writes the
    # instance __dict__ directly, which frozen dataclasses permit)
    @cached_property
    def active_assignments(self) -> tuple[PathAssignment, ...]:
        return tuple(a for a in self.assignments if a.nbytes > 0)

    @cached_property
    def num_active_paths(self) -> int:
        return len(self.active_assignments)

    def assignment_for(self, path_id: str) -> PathAssignment:
        for a in self.assignments:
            if a.path.path_id == path_id:
                return a
        raise KeyError(path_id)

    def theta_vector(self) -> np.ndarray:
        return np.array([a.theta for a in self.assignments])

    def describe(self) -> str:
        lines = [
            f"TransferPlan GPU{self.src}->GPU{self.dst} n={self.nbytes} "
            f"T*={self.predicted_time * 1e6:.1f}us "
            f"BW*={self.predicted_bandwidth / 1e9:.1f}GB/s"
        ]
        lines += [f"  {a.describe()}" for a in self.assignments]
        return "\n".join(lines)


class PathPlanner:
    """Algorithm 1 with configuration cache.

    Parameters
    ----------
    topology:
        The node description (used for path enumeration and ε fallbacks).
    store:
        Calibrated parameters (Fig. 2a Step 1/2).  Defaults to the
        topology's ground-truth parameters.
    pipelining:
        Use the φ-linearised pipelined reductions of Eq. (22) for staged
        paths; ``False`` falls back to the non-pipelined Eq. (11)
        (the no-pipelining ablation).
    sequential_initiation:
        Apply the Line-18 correction: path *i*'s Δ accumulates the launch
        latencies of the paths scheduled before it.
    alignment:
        Byte shares are rounded down to this multiple (GPU copies want
        aligned buffers); the remainder goes to the direct path.
    max_chunks:
        Upper bound on per-path chunk counts (pipeline queue depth).
    phi_mode:
        How the topology constants φ of Eq. (19) are obtained:
        ``"per-size"`` (default) anchors φ at the current message size —
        the paper's ``c·f(n)`` form, exact at the anchor point;
        ``"calibrated"`` uses a single global constant per path (from the
        parameter store, or a window fit) — the cheaper variant used as an
        ablation.
    """

    def __init__(
        self,
        topology: NodeTopology,
        store: ParameterStore | None = None,
        *,
        pipelining: bool = True,
        sequential_initiation: bool = True,
        cache_capacity: int = 512,
        alignment: int = ALIGNMENT,
        max_chunks: int = 64,
        phi_sizes: Sequence[int] = DEFAULT_PHI_SIZES,
        phi_mode: str = "per-size",
        obs: "Observability | None" = None,
        flight=None,
    ) -> None:
        if phi_mode not in ("per-size", "calibrated"):
            raise ValueError("phi_mode must be 'per-size' or 'calibrated'")
        if alignment < 1:
            raise ValueError("alignment must be >= 1")
        if max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        self.topology = topology
        self.store = store if store is not None else ParameterStore.ground_truth(topology)
        self.pipelining = pipelining
        self.sequential_initiation = sequential_initiation
        self.alignment = alignment
        self.max_chunks = max_chunks
        self.phi_sizes = tuple(phi_sizes)
        self.phi_mode = phi_mode
        #: The one plan cache: key -> :class:`TransferGraph` (see plan_key).
        self.cache = PlanCache(cache_capacity)
        self._phi_cache: dict[str, float] = {}
        #: Optional observability bundle; every guard below is one
        #: ``is not None`` check so the uninstrumented path stays free.
        self.obs = obs
        #: Optional FlightRecorder: decisions made while the transport has
        #: a trace open (``flight.active_trace``) carry that trace id, so
        #: the decision log joins against the flight recorder's spans.
        self.flight = flight

    # ------------------------------------------------------------------
    @staticmethod
    def plan_key(
        src: int,
        dst: int,
        nbytes: int,
        include_host: bool = True,
        max_gpu_staged: int | None = None,
        exclude: tuple[str, ...] = (),
        load_key: tuple = (),
        degrade: int = 0,
    ) -> tuple:
        """The cache key of a dynamic plan; ``exclude`` must be sorted.

        Everything Algorithm 1 reads that can differ between two calls on
        one planner is in the key: the shape, the candidate-set knobs, the
        excluded paths (the transport merges quarantined paths in, so the
        set carries every health input to planning), the bucketed load and
        the degrade level.  Planner knobs are fixed per planner, and
        ``UCXContext.reconfigure`` builds a new planner, so no config
        fingerprint is needed.  Parameter-store changes are not keyed:
        :meth:`refresh_params` evicts the entries they make stale, and
        :meth:`invalidate_path` evicts entries routing over a quarantined
        path.  The transport caches its static and single-path plans in the
        same LRU under ``(mode, src, dst, nbytes)``.
        """
        return (
            "dynamic", src, dst, nbytes, include_host, max_gpu_staged,
            exclude, load_key, degrade,
        )

    def plan(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        include_host: bool = True,
        max_gpu_staged: int | None = None,
        exclude: Iterable[str] = (),
        use_cache: bool = True,
        load: "LoadSnapshot | None" = None,
        degrade: int = 0,
    ) -> TransferPlan:
        """Plan a transfer over all (non-excluded) available paths.

        ``load`` is an optional per-channel in-flight snapshot (from the
        :class:`~repro.runtime.load.LoadTracker`); when given, every hop's β
        is derated by ``1/(1 + load)`` with the *bucketed* flow count of the
        hop's busiest channel, and the bucketed form joins the cache key —
        equal buckets produce identical plans, so caching stays sound.  An
        idle snapshot keys (and plans) identically to ``load=None``.

        ``degrade`` requests a *cheaper* plan under overload (DESIGN.md
        §5h): level 1 caps the candidate set at two paths (direct first)
        and quarters the chunk budget, level 2 collapses to a single path
        with one chunk.  The level joins the cache key, so degraded and
        full plans coexist in the cache.
        """
        obs = self.obs
        t0 = time.perf_counter() if obs is not None else 0.0
        exclude = tuple(sorted(exclude))
        degrade = max(0, min(int(degrade), 2))
        if load is not None and load.is_idle:
            load = None
        key = self.plan_key(
            src, dst, int(nbytes), include_host, max_gpu_staged, exclude,
            () if load is None else load.bucket_key(), degrade,
        )
        if use_cache:
            graph = self.cache.get(key)
            if graph is not None:
                cached = graph.plan
                plan = TransferPlan(
                    src=cached.src,
                    dst=cached.dst,
                    nbytes=cached.nbytes,
                    assignments=cached.assignments,
                    predicted_time=cached.predicted_time,
                    from_cache=True,
                )
                if obs is not None:
                    self._observe_plan(obs, plan, time.perf_counter() - t0, load)
                return plan
        paths = enumerate_paths(
            self.topology,
            src,
            dst,
            include_host=include_host,
            max_gpu_staged=max_gpu_staged,
            exclude=exclude,
        )
        if degrade:
            paths = self._degrade_paths(paths, degrade)
        plan = self.plan_for_paths(
            src, dst, nbytes, paths, load=load,
            max_chunks=self._degraded_max_chunks(degrade),
        )
        if use_cache:
            self.cache.put(key, TransferGraph(plan))
        if obs is not None:
            self._observe_plan(obs, plan, time.perf_counter() - t0, load)
        return plan

    def _observe_plan(
        self,
        obs: "Observability",
        plan: TransferPlan,
        wall_time_s: float,
        load: "LoadSnapshot | None" = None,
    ) -> None:
        """Record one decision (cold on the uninstrumented path)."""
        load_bucket = self._plan_load_bucket(plan, load)
        flight = self.flight
        trace_id = (
            flight.active_trace
            if flight is not None and flight.enabled
            else -1
        )
        obs.decisions.log_plan(
            plan,
            cache_hit=plan.from_cache,
            wall_time_s=wall_time_s,
            load_bucket=load_bucket,
            trace_id=trace_id,
        )
        m = obs.metrics
        m.counter("planner.plans").inc()
        if plan.from_cache:
            m.counter("planner.cache_hits").inc()
        else:
            m.counter("planner.plans_computed").inc()
        m.timer("planner.plan_wall").observe(wall_time_s)
        m.histogram("planner.nbytes").observe(plan.nbytes)
        if load is not None:
            m.counter("contention.loaded_plans").inc()
            m.histogram("contention.load_bucket").observe(load_bucket)
            if plan.from_cache:
                m.counter("contention.cache_hits").inc()

    def observe_graph_hit(
        self,
        plan: TransferPlan,
        wall_time_s: float,
        load: "LoadSnapshot | None",
        trace_id: int,
    ) -> None:
        """Record a transfer served from the cache without a planner call."""
        obs = self.obs
        obs.decisions.log_plan(
            plan,
            cache_hit=True,
            wall_time_s=wall_time_s,
            load_bucket=self._plan_load_bucket(plan, load),
            trace_id=trace_id,
            graph=True,
        )
        m = obs.metrics
        m.counter("planner.plans").inc()
        m.counter("planner.cache_hits").inc()
        m.counter("planner.graph_hits").inc()

    @staticmethod
    def _plan_load_bucket(
        plan: TransferPlan, load: "LoadSnapshot | None"
    ) -> int:
        """Worst bucketed hop load the plan was derated against (0 = idle)."""
        if load is None:
            return 0
        return max(
            (
                load.hop_load(hop)
                for a in plan.active_assignments
                for hop in a.path.hops
            ),
            default=0,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _degrade_paths(
        paths: Sequence[PathDescriptor], degrade: int
    ) -> list[PathDescriptor]:
        """Degradation ladder over the candidate set (direct path first)."""
        direct = [p for p in paths if p.kind is PathKind.DIRECT]
        rest = [p for p in paths if p.kind is not PathKind.DIRECT]
        ordered = direct + rest
        limit = 1 if degrade >= 2 else 2
        return ordered[:limit]

    def _degraded_max_chunks(self, degrade: int) -> int | None:
        """Chunk-budget cap per degrade level (None = planner default)."""
        if degrade <= 0:
            return None
        if degrade == 1:
            return max(1, self.max_chunks // 4)
        return 1

    # ------------------------------------------------------------------
    def plan_for_paths(
        self,
        src: int,
        dst: int,
        nbytes: int,
        paths: Sequence[PathDescriptor],
        *,
        load: "LoadSnapshot | None" = None,
        max_chunks: int | None = None,
    ) -> TransferPlan:
        """Algorithm 1 body for an explicit candidate-path list.

        With ``load`` given, per-hop bandwidths are derated by
        ``β/(1 + load)`` before θ* is solved (see :meth:`plan`).
        ``max_chunks`` overrides the planner-wide chunk budget (used by
        the overload degradation ladder).
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        if not paths:
            raise ValueError("at least one path required")
        chunk_budget = max_chunks if max_chunks is not None else self.max_chunks
        if load is not None and load.is_idle:
            load = None
        if nbytes == 0:
            zero = [
                PathAssignment(
                    path=p,
                    params=self._params_for(p, 0.0),
                    effective=effective_params(self._params_for(p, 0.0), None),
                    theta=1.0 if i == 0 else 0.0,
                    nbytes=0,
                    chunks=1,
                )
                for i, p in enumerate(paths)
            ]
            first = zero[0].params
            return TransferPlan(
                src=src, dst=dst, nbytes=0, assignments=tuple(zero),
                predicted_time=first.alpha1,
            )

        # Lines 7-21: per-path parameters and effective reductions, with the
        # sequential-initiation accumulation of Line 18.
        params_list: list[PathParams] = []
        effectives: list[EffectiveParams] = []
        accumulated = 0.0
        theta_ref = 1.0 / len(paths)
        for p in paths:
            params = self._params_for(p, accumulated, load)
            params_list.append(params)
            phi = (
                self._phi_for(params, nbytes, theta_ref)
                if (self.pipelining and p.is_staged)
                else None
            )
            effectives.append(effective_params(params, phi))
            if self.sequential_initiation:
                launch = (
                    self.store.launch_overhead
                    if self.store.launch_overhead > 0
                    else params.alpha1
                )
                accumulated += launch

        # Lines 22-26: equal-time fractions.
        keep = next(
            (i for i, p in enumerate(paths) if p.kind is PathKind.DIRECT), None
        )
        solution = optimal_fractions(
            params_list,
            nbytes,
            omegas=[e.omega for e in effectives],
            deltas=[e.delta for e in effectives],
            keep=keep,
        )

        # Lines 27-29: byte shares, aligned, leftover to the direct path.
        shares = [
            int(theta * nbytes) // self.alignment * self.alignment
            for theta in solution.theta
        ]
        leftover = nbytes - sum(shares)
        sink = keep if keep is not None else int(np.argmax(solution.theta))
        shares[sink] += leftover

        assignments = []
        for p, params, eff, share in zip(paths, params_list, effectives, shares):
            theta = share / nbytes
            if p.is_staged and share > 0 and self.pipelining:
                phi = (
                    eff.phi
                    if eff.phi is not None
                    else self._phi_for(params, nbytes, theta)
                )
                chunks = linear_chunks(
                    params, theta, nbytes, phi, max_chunks=chunk_budget,
                )
            else:
                chunks = 1
            assignments.append(
                PathAssignment(
                    path=p,
                    params=params,
                    effective=eff,
                    theta=theta,
                    nbytes=share,
                    chunks=chunks,
                )
            )
        # Predicted time re-evaluated at the *rounded* shares:
        predicted = max(
            a.theta * nbytes * a.effective.omega + a.effective.delta
            for a in assignments
            if a.nbytes > 0
        )
        return TransferPlan(
            src=src,
            dst=dst,
            nbytes=nbytes,
            assignments=tuple(assignments),
            predicted_time=float(predicted),
        )

    # ------------------------------------------------------------------
    def refresh_params(self, hops: Iterable[tuple] | None = None) -> int:
        """Pick up in-place parameter-store changes (online recalibration).

        Cached plans embed resolved :class:`PathParams`, so a store update
        alone is invisible until the affected entries are dropped.  With
        ``hops`` given, only plans whose assignments cross one of those
        hops are invalidated (the drift controller refits per hop); with
        ``None`` everything goes.  The φ memo is cleared either way —
        φ derives from (α̂, β̂, ε̂).  Returns the number of plans dropped.
        """
        self._phi_cache.clear()
        if hops is None:
            return self.cache.invalidate(lambda key, graph: True)
        hopset = {tuple(h) for h in hops}
        if not hopset:
            return 0
        return self.cache.invalidate(
            lambda key, graph: any(
                tuple(h) in hopset
                for a in graph.plan.assignments
                for h in a.path.hops
            )
        )

    # ------------------------------------------------------------------
    def invalidate_path(self, src: int, dst: int, path_id: str) -> int:
        """Drop cached plans for a pair that route bytes over ``path_id``.

        Called when the path-health registry quarantines a path: cached
        plans embedding it would keep steering bytes onto a dead link even
        though new planning excludes it (exclusions are part of the cache
        key, so only *stale* entries need dropping).  Returns the number of
        plans invalidated.
        """
        return self.cache.invalidate(
            lambda key, graph: graph.plan.src == src
            and graph.plan.dst == dst
            and any(
                a.path.path_id == path_id and a.nbytes > 0
                for a in graph.plan.assignments
            )
        )

    # ------------------------------------------------------------------
    def predict_time(self, src: int, dst: int, nbytes: int, **kwargs) -> float:
        """Model-predicted completion time of the optimal configuration."""
        return self.plan(src, dst, nbytes, **kwargs).predicted_time

    def predict_bandwidth(self, src: int, dst: int, nbytes: int, **kwargs) -> float:
        return self.plan(src, dst, nbytes, **kwargs).predicted_bandwidth

    # ------------------------------------------------------------------
    def _params_for(
        self,
        path: PathDescriptor,
        initiation: float,
        load: "LoadSnapshot | None" = None,
    ) -> PathParams:
        params = self.store.path_params(path)
        if load is not None:
            params = self._derate_for_load(params, path, load)
        if self.sequential_initiation and initiation > 0:
            params = params.with_initiation(initiation)
        return params

    @staticmethod
    def _derate_for_load(
        params: PathParams, path: PathDescriptor, load: "LoadSnapshot"
    ) -> PathParams:
        """β/(1 + load) contention derate, per hop, with bucketed loads.

        ``load`` counts *other* in-flight flows (the caller acquires its own
        hold only after planning), so an uncontended hop keeps its idle β.
        Under max-min fair sharing of one saturated channel the derate is
        exact; elsewhere it is a first-order correction (DESIGN.md §5e).
        """
        first = load.hop_load(path.hops[0])
        changes: dict[str, float] = {}
        if first > 0:
            changes["beta1"] = params.beta1 / (1.0 + first)
        if len(path.hops) > 1:
            second = load.hop_load(path.hops[1])
            if second > 0:
                changes["beta2"] = params.beta2 / (1.0 + second)
        if not changes:
            return params
        return replace(params, **changes)

    def _phi_for(
        self, params: PathParams, nbytes: int, theta_ref: float
    ) -> float:
        """φ per the configured mode (see class docstring)."""
        if self.phi_mode == "per-size":
            return phi_at(params, theta_ref, nbytes)
        cached = self._phi_cache.get(params.path_id)
        if cached is not None:
            return cached
        if params.path_id in self.store._phi:  # calibrated value wins
            phi = self.store.phi(params.path_id)
        else:
            phi = fit_phi_for_sizes(params, self.phi_sizes)
        self._phi_cache[params.path_id] = phi
        return phi


def plan_transfer(
    topology: NodeTopology,
    src: int,
    dst: int,
    nbytes: int,
    *,
    store: ParameterStore | None = None,
    **kwargs,
) -> TransferPlan:
    """One-shot convenience wrapper around :class:`PathPlanner`."""
    planner = PathPlanner(topology, store)
    return planner.plan(src, dst, nbytes, **kwargs)


__all__ = ["PathPlanner", "TransferPlan", "PathAssignment", "plan_transfer"]

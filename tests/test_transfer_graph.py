"""The plan cache: compiled transfer graphs as the planner's cache entries.

Lifecycle coverage: a miss plans and caches, the first execution compiles,
later same-shape puts replay.  Each remaining invalidation signal (drift
refits, path quarantine, load buckets, reconfigure) gets one test; health
transitions that leave a pair's exclusion set unchanged must not cost a
recompile.  Bit-identity of cached executions against the uncached
reference is pinned by the ``cache:*`` digests in
``tests/test_golden_timelines.py``.
"""

from __future__ import annotations

import pytest

from repro.core.planner import TransferPlan
from repro.core.transfer_graph import TransferGraph, compile_plan
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext
from repro.ucx.pipeline import PipelineEngine
from repro.units import MiB
from repro.util.cache import LRUCache


def _context(config: TransportConfig | None = None, *, obs=None) -> tuple:
    eng = Engine()
    ctx = UCXContext(
        eng,
        systems.beluga(),
        config=config if config is not None else TransportConfig(),
        obs=obs,
    )
    return eng, ctx


def _run_puts(eng, ctx, shapes, pair=(0, 1)):
    events = [
        ctx.put(pair[0], pair[1], n, tag=f"g{i}") for i, n in enumerate(shapes)
    ]
    return [eng.run(until=ev) for ev in events]


def _entries(ctx) -> list[TransferGraph]:
    return list(ctx.graphs._data.values())


class TestReplay:
    def test_repeated_shapes_compile_once_and_replay(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 5)
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 4
        assert ctx.pipeline.transfers_replayed == 5

    def test_distinct_shapes_compile_separately(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB, 2 * MiB, 8 * MiB, 2 * MiB])
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 2
        assert stats["hits"] == 2

    def test_eager_puts_replay_too(self):
        eng, ctx = _context()
        nbytes = 64 * 1024  # below the rndv threshold: eager single-path
        results = _run_puts(eng, ctx, [nbytes] * 4)
        assert all(r.protocol == "eager" for r in results)
        assert ctx.graphs.stats()["hits"] == 3

    def test_amortized_setup_cost_drops_with_replays(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 10)
        (row,) = ctx.graphs.report_rows()
        assert row["replays"] == 9
        assert row["amortized_us"] == pytest.approx(row["compile_us"] / 10)

    def test_planner_entry_is_compiled_on_first_execution(self):
        eng, ctx = _context()
        ctx.planner.plan(0, 1, 8 * MiB)  # caches the plan, no schedule yet
        (entry,) = _entries(ctx)
        assert entry.paths is None
        _run_puts(eng, ctx, [8 * MiB])
        assert _entries(ctx) == [entry]
        assert len(entry.paths) == entry.plan.num_active_paths
        assert ctx.graphs.stats()["compiles"] == 1


class TestOneCache:
    def test_context_holds_exactly_one_plan_lru(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB, 64 * 1024])
        _run_puts(eng, ctx, [4 * MiB], pair=(2, 3))
        # every LRU reachable from the context, and the ones holding plans
        seen, stack, lrus = set(), [ctx], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, LRUCache):
                lrus.append(obj)
            if type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
        plan_lrus = [
            c for c in lrus
            if any(isinstance(v, (TransferGraph, TransferPlan)) for v in c._data.values())
        ]
        assert plan_lrus == [ctx.planner.cache]
        assert ctx.graphs is ctx.planner.cache
        assert len(ctx.graphs) == 3

    def test_health_excluded_queried_once_per_dynamic_put(self):
        eng, ctx = _context()
        calls = []
        excluded = ctx.health.excluded

        def counting(*args, **kwargs):
            calls.append(args)
            return excluded(*args, **kwargs)

        ctx.health.excluded = counting
        _run_puts(eng, ctx, [8 * MiB])  # miss
        assert len(calls) == 1
        _run_puts(eng, ctx, [8 * MiB])  # hit
        assert len(calls) == 2
        assert ctx.graphs.stats()["hits"] == 1


class TestInvalidation:
    def test_drift_refit_evicts_all_graphs(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 3)
        assert len(ctx.graphs) == 1
        ctx.planner.refresh_params()  # full refit
        assert len(ctx.graphs) == 0
        _run_puts(eng, ctx, [8 * MiB])
        assert ctx.graphs.stats()["compiles"] == 2  # forced recompilation

    def test_targeted_refit_evicts_only_crossing_graphs(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB], pair=(0, 1))
        _run_puts(eng, ctx, [8 * MiB], pair=(2, 3))
        assert len(ctx.graphs) == 2
        # refit a hop only the (0, 1) plan crosses
        hop = ctx.topology.direct_hop(0, 1)
        ctx.planner.refresh_params(hops=[hop])
        remaining = [g.plan for g in _entries(ctx)]
        assert len(remaining) == 1
        assert (remaining[0].src, remaining[0].dst) == (2, 3)

    def test_quarantine_evicts_matching_graphs(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB])
        assert len(ctx.graphs) == 1
        path_id = _entries(ctx)[0].plan.active_assignments[0].path.path_id
        # two consecutive failures quarantine the path; the registry's
        # on_quarantine callback evicts through the planner
        ctx.health.record_failure(0, 1, path_id, now=eng.now)
        ctx.health.record_failure(0, 1, path_id, now=eng.now)
        assert len(ctx.graphs) == 0
        assert ctx.graphs.stats()["invalidations"] >= 1

    def test_health_transition_elsewhere_keeps_replaying(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 2)
        assert ctx.graphs.stats()["compiles"] == 1
        # a failure on another pair's path demotes it healthy -> suspect:
        # a health transition (the epoch moves) that changes nothing this
        # pair's planning reads
        epoch_before = ctx.health.epoch
        ctx.health.record_failure(2, 3, "direct", now=eng.now)
        assert ctx.health.epoch > epoch_before
        _run_puts(eng, ctx, [8 * MiB])
        stats = ctx.graphs.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_load_bucket_change_compiles_per_bucket(self):
        cfg = TransportConfig(contention_aware=True)
        eng, ctx = _context(cfg)
        # sequential puts plan at idle load; concurrent ones see each
        # other's holds, so their load buckets (and cache keys) differ
        for i in range(2):
            eng.run(until=ctx.put(0, 1, 8 * MiB, tag=f"s{i}"))
        assert ctx.graphs.stats()["compiles"] == 1
        evs = [ctx.put(0, 1, 8 * MiB, tag=f"c{i}") for i in range(2)]
        for ev in evs:
            eng.run(until=ev)
        # the second concurrent put planned against the first one's load:
        # a fresh bucket means a fresh key and a fresh compile
        assert ctx.graphs.stats()["compiles"] >= 2
        load_keys = {key[7] for key in ctx.graphs._data}
        assert len(load_keys) >= 2

    def test_reconfigure_rebuilds_graph_cache(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 2)
        old = ctx.graphs
        ctx.reconfigure(ctx.config.with_(max_chunks=8))
        assert ctx.graphs is not old
        assert len(ctx.graphs) == 0
        assert ctx.graphs is ctx.planner.cache


class TestRecovery:
    def test_fault_keeps_entry_and_recovery_runs_uncached(self):
        from repro.sim.faults import FaultSchedule, LinkDown

        eng, ctx = _context()
        topo = ctx.topology
        (r0,) = _run_puts(eng, ctx, [8 * MiB])
        fault_at = eng.now + 0.4 * r0.duration
        FaultSchedule(
            LinkDown(topo.direct_hop(0, 1)[0], at=fault_at, duration=1e3)
        ).attach(ctx.runtime.fabric)
        ev = ctx.put(0, 1, 8 * MiB, tag="faulted")
        result = eng.run(until=ev)
        assert result.retries > 0
        # the faulted round replayed the entry; each recovery round ran an
        # uncached replan compiled on the fly
        pipe = ctx.pipeline.stats_snapshot()
        assert pipe["transfers_replayed"] == 2
        assert pipe["transfers_executed"] == 2 + result.retries
        assert ctx.graphs.stats()["compiles"] == 1


class TestObservability:
    def test_decision_log_marks_graph_hits(self):
        obs = Observability()
        eng, ctx = _context(obs=obs)
        _run_puts(eng, ctx, [8 * MiB] * 3)
        graph_records = [r for r in obs.decisions.records if r.graph]
        assert len(graph_records) == 2
        assert all(r.cache_hit for r in graph_records)
        assert obs.decisions.graph_hits == 2
        assert obs.decisions.summary()["graph_hits"] == 2
        assert obs.metrics.counter("planner.graph_hits").value == 2

    def test_flight_records_graph_hit_spans(self):
        eng, ctx = _context()
        _run_puts(eng, ctx, [8 * MiB] * 3)
        spans = list(ctx.flight.iter_spans())
        kinds = [s.kind for s in spans]
        assert kinds.count("plan.graph_hit") == 2
        assert kinds.count("plan") == 1
        hit = next(s for s in spans if s.kind == "plan.graph_hit")
        assert hit.attrs["wall_time_s"] >= 0.0

    def test_collector_exposes_graph_stats(self):
        obs = Observability()
        eng, ctx = _context(obs=obs)
        _run_puts(eng, ctx, [8 * MiB] * 3)
        snap = obs.metrics.snapshot()
        assert snap["transfer_graph"]["hits"] == 2


class TestChunkMemo:
    def test_chunk_sizes_contract_preserved(self):
        # the unbound static call style some callers rely on
        assert PipelineEngine._chunk_sizes(10, 3) == [4, 3, 3]
        assert PipelineEngine._chunk_sizes(7, 7) == [1] * 7
        with pytest.raises(ValueError):
            PipelineEngine._chunk_sizes(0, 4)

    def test_chunk_sizes_memoized(self):
        first = PipelineEngine._chunk_sizes(123457, 11)
        again = PipelineEngine._chunk_sizes(123457, 11)
        assert again is first  # served from the memo


class TestCompilePlan:
    def test_compiled_schedule_matches_cold_derivation(self):
        eng, ctx = _context()
        plan = ctx.planner.plan(0, 1, 8 * MiB)
        compiled = compile_plan(plan, ctx.pipeline)
        assert len(compiled) == len(plan.active_assignments)
        for cp, a in zip(compiled, plan.active_assignments):
            assert cp.assignment is a
            if not a.path.is_staged:
                assert cp.stream_keys == ((0, 1, a.path.path_id, "direct"),)
                continue
            assert list(cp.chunk_sizes) == ctx.pipeline._chunk_sizes(
                a.nbytes, a.chunks
            )
            assert cp.epsilon == ctx.pipeline.runtime.sync_cost(
                via_gpu=a.path.via is not None
            )
            # label + suffix spells the per-chunk tags and event names
            assert cp.h1_suffixes[0] == ":h1:0"
            assert cp.event_suffixes[-1] == f":c{len(cp.chunk_sizes) - 1}"

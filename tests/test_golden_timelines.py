"""Golden simulated timelines: fixed sha256 digests of whole runs.

The invariance suite compares two modes of the *same* code, so a change to
a layer both modes share (the GPU streams, the copy path) moves both sides
together and passes unnoticed.  These digests were generated once and are
compared against stored values: a refactor meant only to make the simulator
faster must reproduce every one of them bit for bit.

Each digest covers every :class:`~repro.sim.trace.Tracer` record (channel,
tag, exact start/end floats, bytes) in order, the final ``engine.now``, the
engine's ``events_processed`` count, and — where a transport context is
involved — the kind and timestamps of every flight-recorder span.  The
scenarios run with 1 % lognormal channel jitter, so any reordering of
same-timestamp ``Fabric.copy`` calls also changes the jitter draws.

A change that is *meant* to move simulated timelines regenerates the
fixture and says why in its description::

    PYTHONPATH=src python tests/test_golden_timelines.py --write
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.bench.baselines import dynamic_config
from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.bench.omb import osu_bibw
from repro.bench.runner import PATH_CONFIGS
from repro.gpu import GPURuntime
from repro.sim import Engine, Tracer
from repro.sim.faults import FaultSchedule, LinkDown, StallInjector
from repro.topology import systems
from repro.topology.routing import enumerate_paths
from repro.ucx import TransportConfig, UCXContext
from repro.ucx.tuning import StaticShare
from repro.units import MiB

# ``repro.bench`` re-exports a ``calibrate`` function under the module name
calibrate_mod = importlib.import_module("repro.bench.calibrate")

FIXTURE = Path(__file__).with_name("golden_timelines.json")
SYSTEMS = ("beluga", "narval")
JITTER_SEED = 11
JITTER_SIGMA = 0.01


def _jitter():
    return default_jitter_factory(JITTER_SEED, JITTER_SIGMA)


def timeline_digest(engine: Engine, tracer: Tracer, flight=None, extra=()) -> str:
    """sha256 over a run's whole observable timeline (floats as hex)."""
    h = hashlib.sha256()
    for r in tracer.records:
        h.update(
            f"{r.channel}|{r.tag}|{float(r.start).hex()}|{float(r.end).hex()}"
            f"|{float(r.nbytes).hex()}\n".encode()
        )
    h.update(f"now={engine.now.hex()}|events={engine.events_processed}\n".encode())
    if flight is not None:
        for span in flight.iter_spans():
            h.update(f"{span.kind}|{span.t0.hex()}|{span.t1.hex()}\n".encode())
    for value in extra:
        h.update(f"{value!r}\n".encode())
    return h.hexdigest()


def _context(system: str, config: TransportConfig | None = None):
    engine, tracer = Engine(), Tracer()
    ctx = UCXContext(
        engine,
        systems.by_name(system),
        config=config,
        tracer=tracer,
        jitter_factory=_jitter(),
    )
    return engine, tracer, ctx


# ----------------------------------------------------------------------
# Scenarios: each returns its digest
# ----------------------------------------------------------------------
def run_bibw(system: str, label: str, window: int) -> str:
    """One osu_bibw point (dynamic multi-path series)."""
    env = BenchEnvironment(
        topology=systems.by_name(system),
        config=dynamic_config(**PATH_CONFIGS[label]),
        jitter_factory=_jitter(),
        trace=True,
    )
    result = osu_bibw(env, 8 * MiB, window=window, iterations=1, warmup=1)
    ctx = env.last_context
    return timeline_digest(
        ctx.engine, ctx.tracer, ctx.flight, extra=(result.elapsed.hex(),)
    )


def run_failover(system: str) -> str:
    """A 64 MiB put whose direct channel hard-fails mid-flight."""
    engine, tracer, ctx = _context(system)
    channel = ctx.topology.direct_hop(0, 1)[0]
    put = ctx.put(0, 1, 64 * MiB, tag="failover")
    engine.schedule_fn(
        200e-6, lambda _arg: ctx.runtime.fabric.fail_channel(channel)
    )
    result = engine.run(until=put)
    engine.run()
    return timeline_digest(
        engine, tracer, ctx.flight,
        extra=(result.end.hex(), result.retries, result.rerouted_bytes),
    )


def run_watchdog(system: str) -> str:
    """A put stuck on a stalled channel, unstuck by the deadline watchdog."""
    engine, tracer, ctx = _context(system, TransportConfig(deadline_factor=1.5))
    channel = ctx.topology.direct_hop(0, 1)[0]
    FaultSchedule(StallInjector(channel, at=150e-6, duration=5e-3)).attach(
        ctx.runtime.fabric
    )
    put = ctx.put(0, 1, 32 * MiB, tag="watchdog")
    result = engine.run(until=put)
    engine.run()
    assert ctx.pipeline.watchdog_timeouts >= 1
    return timeline_digest(
        engine, tracer, ctx.flight,
        extra=(result.end.hex(), result.retries, result.rerouted_bytes),
    )


def run_copy_engines(system: str) -> str:
    """Bounded copy engines: three streams on GPU 0 contend for one engine,
    with a cross-stream event dependency riding along."""
    engine, tracer = Engine(), Tracer()
    runtime = GPURuntime(
        engine,
        systems.by_name(system),
        tracer=tracer,
        jitter_factory=_jitter(),
        copy_engines=1,
    )
    streams = [runtime.create_stream(0) for _ in range(3)]
    for rnd in range(2):
        for dst, s in zip((1, 2, 3), streams):
            runtime.peer_copy_async(
                0, dst, (4 + rnd) * MiB, s, tag=f"ce:{rnd}:{dst}"
            )
    marker = runtime.create_event("ce:marker")
    marker.record(streams[0])
    streams[1].wait_event(marker)
    streams[1].delay(5e-6)
    runtime.peer_copy_async(0, 2, 2 * MiB, streams[1], tag="ce:after")
    engine.run()
    return timeline_digest(engine, tracer)


def run_calibrate_probe(system: str) -> str:
    """``bench/calibrate.py``'s unpipelined staged probe on every staged
    path kind (GPU-staged and host-staged) of the 0 -> 1 pair."""
    topology = systems.by_name(system)
    digests = []
    for path in enumerate_paths(topology, 0, 1, include_host=True):
        if not path.is_staged:
            continue
        made: list[GPURuntime] = []

        def runtime_factory(engine, topo, **kwargs):
            runtime = GPURuntime(engine, topo, tracer=Tracer(), **kwargs)
            made.append(runtime)
            return runtime

        original = calibrate_mod.GPURuntime
        calibrate_mod.GPURuntime = runtime_factory
        try:
            elapsed = calibrate_mod._measure_staged_k1(
                topology, path, 4 * MiB, _jitter()
            )
        finally:
            calibrate_mod.GPURuntime = original
        (runtime,) = made
        digests.append(
            timeline_digest(
                runtime.engine, runtime.tracer, extra=(path.path_id, elapsed.hex())
            )
        )
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# ----------------------------------------------------------------------
# Plan-cache scenarios: hits, misses, evictions, invalidations and
# recovery replans.  Digested without flight spans, so they pin what the
# cache serves, not how a lookup is labelled.
# ----------------------------------------------------------------------
def _cache_digest(engine: Engine, tracer: Tracer, results) -> str:
    return timeline_digest(engine, tracer, extra=tuple(results))


def _run_in_order(engine: Engine, events) -> list:
    return [engine.run(until=ev) for ev in events]


def _cache_context(config: TransportConfig | None = None, **knobs):
    return _context("beluga", (config or TransportConfig()).with_(**knobs))


def _repeated_shapes(fault_at: float | None = None, **knobs):
    """Same-shape puts on 0 -> 1 plus one on 2 -> 3, one at a time per pair."""
    engine, tracer, ctx = _cache_context(max_inflight_per_pair=1, **knobs)
    if fault_at is not None:
        FaultSchedule(
            LinkDown(ctx.topology.direct_hop(0, 1)[0], at=fault_at, duration=1e3)
        ).attach(ctx.runtime.fabric)
    sizes = (8 * MiB, 8 * MiB, 2 * MiB, 8 * MiB, 2 * MiB, MiB, MiB)
    events = [ctx.put(0, 1, n, tag=f"t{i}") for i, n in enumerate(sizes)]
    events.append(ctx.put(2, 3, 4 * MiB, tag="x"))
    results = _run_in_order(engine, events)
    return engine, tracer, results


def run_cache_repeated(linkdown: bool, **knobs) -> str:
    """Repeated shapes; optionally the direct link dies mid-way through the
    second put, so later same-shape puts run after a recovery."""
    fault_at = None
    if linkdown:
        _e, _t, base = _repeated_shapes(**knobs)
        fault_at = base[0].duration + 0.45 * base[1].duration
    engine, tracer, results = _repeated_shapes(fault_at, **knobs)
    if linkdown:
        assert any(r.retries > 0 for r in results)
    return _cache_digest(engine, tracer, results)


def run_cache_many_shapes() -> str:
    """More than 256 distinct (pair, size) shapes over all 12 pairs, mixing
    eager and rendezvous sizes, with a 2 ms outage of one NVLink: shapes
    recur after many others and across health transitions."""
    engine, tracer, ctx = _cache_context(max_inflight_per_pair=2)
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    sizes = [k * 128 * 1024 for k in range(1, 9)] + [
        k * MiB + 4096 * k for k in range(1, 18)
    ]
    rng = random.Random(7)
    shapes = [(p, n) for p in pairs for n in sizes]
    order = shapes + [rng.choice(shapes) for _ in range(300)]
    rng.shuffle(order)
    FaultSchedule(
        LinkDown(ctx.topology.direct_hop(0, 1)[0], at=2e-3, duration=2e-3)
    ).attach(ctx.runtime.fabric)
    events = [
        ctx.put(s, d, n, tag=f"m{i}") for i, ((s, d), n) in enumerate(order)
    ]
    results = _run_in_order(engine, events)
    assert len(set(order)) > 256
    assert any(r.retries > 0 for r in results)
    return _cache_digest(engine, tracer, results)


def run_cache_static_and_single() -> str:
    """Repeated static-shares puts, then repeated single-path puts."""
    static = TransportConfig(
        static_shares=(
            StaticShare("direct", 0.6),
            StaticShare("gpu:2", 0.25, chunks=4),
            StaticShare("host", 0.15, chunks=2),
        )
    )
    digests = []
    for config in (static, TransportConfig.single_path()):
        engine, tracer, ctx = _cache_context(config)
        events = [
            ctx.put(0, 1, n, tag=f"s{i}")
            for i, n in enumerate((8 * MiB, 8 * MiB, 3 * MiB, 8 * MiB, 3 * MiB))
        ]
        digests.append(_cache_digest(engine, tracer, _run_in_order(engine, events)))
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def run_cache_degrade() -> str:
    """A queue burst drives the governor to SHEDDING (degrade level 2) and
    back down, so plans are made at every degrade level."""
    engine, tracer, ctx = _cache_context(
        max_inflight_per_pair=1,
        overload_pressured_depth=2,
        overload_shedding_depth=4,
    )
    events = [
        ctx.put(0, 1, n, tag=f"d{i}")
        for i, n in enumerate((4 * MiB, 4 * MiB, 8 * MiB) * 3)
    ]
    assert ctx.transfers.degrade_level == 2
    results = _run_in_order(engine, events)
    return _cache_digest(engine, tracer, results)


def run_cache_contention() -> str:
    """Rounds of concurrent contention-aware puts on pairs sharing links:
    within a round each put plans against a different load bucket, and
    later rounds repeat the first round's buckets."""
    engine, tracer, ctx = _cache_context(contention_aware=True)
    results = []
    for rnd in range(3):
        events = [
            ctx.put(s, d, (8 + 4 * (i % 2)) * MiB, tag=f"c{rnd}.{i}")
            for i, (s, d) in enumerate(((0, 1), (0, 2), (3, 1), (2, 1), (0, 1)))
        ]
        results += _run_in_order(engine, events)
    return _cache_digest(engine, tracer, results)


def scenarios() -> dict:
    """Scenario id -> zero-argument callable returning its digest."""
    table = {}
    for system in SYSTEMS:
        for label in PATH_CONFIGS:
            for window in (1, 16):
                table[f"bibw:{system}:{label}:w{window}"] = (
                    lambda s=system, lab=label, w=window: run_bibw(s, lab, w)
                )
        table[f"failover:{system}"] = lambda s=system: run_failover(s)
        table[f"watchdog:{system}"] = lambda s=system: run_watchdog(s)
        table[f"copy_engines:{system}"] = lambda s=system: run_copy_engines(s)
        table[f"calibrate_probe:{system}"] = lambda s=system: run_calibrate_probe(s)
    table["cache:beluga:repeated"] = lambda: run_cache_repeated(False)
    table["cache:beluga:repeated_linkdown"] = lambda: run_cache_repeated(True)
    table["cache:beluga:many_shapes"] = run_cache_many_shapes
    table["cache:beluga:static_single"] = run_cache_static_and_single
    table["cache:beluga:degrade"] = run_cache_degrade
    table["cache:beluga:contention"] = run_cache_contention
    return table


SCENARIOS = scenarios()


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_timeline_matches_golden_digest(scenario):
    assert SCENARIOS[scenario]() == _golden()[scenario]


@pytest.mark.parametrize("linkdown", [False, True], ids=["plain", "linkdown"])
def test_cache_digest_without_flight_recorder(linkdown):
    """Cached executions do not depend on the recorder's bookkeeping."""
    scenario = "cache:beluga:repeated" + ("_linkdown" if linkdown else "")
    digest = run_cache_repeated(linkdown, flight_recorder=False)
    assert digest == _golden()[scenario]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_timelines.py --write")
    FIXTURE.write_text(
        json.dumps({k: fn() for k, fn in sorted(SCENARIOS.items())}, indent=2)
        + "\n"
    )
    print(f"wrote {len(SCENARIOS)} digests to {FIXTURE}")

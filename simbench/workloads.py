"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into a fixed list of operations, builds its
set-up through the public bench API (``get_setup``, ``get_static_shares``,
``configs_for``) and runs one operation per call of :meth:`Workload.run_op`
in a fresh simulation.  The simulator only ever sees the generated inputs.

* ``bibw-sweep`` — reduced Fig. 6: closed-loop ``osu_bibw`` points.
* ``collective-sweep`` — reduced Fig. 7: Allreduce and Alltoall on four
  ranks with seeded float32 payloads whose results are checked.
* ``put-stream`` — an open loop of Poisson-timed ``UCXContext.put`` calls
  over every ordered beluga pair, with one seeded link outage.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from repro.bench.baselines import direct_config, dynamic_config
from repro.bench.collectives import COLLECTIVES
from repro.bench.env import REDUCE_BANDWIDTH, BenchEnvironment
from repro.bench.experiments.fig6_bibw import predicted_bibw
from repro.bench.omb import osu_bibw
from repro.bench.runner import (
    PATH_CONFIGS,
    clear_caches,
    configs_for,
    get_setup,
    get_static_shares,
)
from repro.core.collective_model import CollectiveModel
from repro.core.planner import PathPlanner
from repro.sim.faults import FaultSchedule, LinkDown
from repro.units import GB, KiB, MiB

from simbench.checks import teardown_failures
from simbench.ledger import layer_counts

#: Run-to-run scatter of every simulated channel (lognormal sigma); its seed
#: is the workload seed.
JITTER_SIGMA = 0.01
SERIES = ("direct", "static", "dynamic")


@dataclass
class OpResult:
    """Outcome of one operation: work done, checks, and simulated outputs."""

    attempted: int
    failed: int
    copies: int  # completed fabric flows (simulated copies)
    sim: tuple  # deterministic simulated outputs, compared across passes
    counts: dict  # summed layer counters, see ledger.layer_counts
    failures: list[str] = field(default_factory=list)


class _Env(BenchEnvironment):
    """A bench environment that also keeps the communicator it created."""

    last_comm = None

    @classmethod
    def of(cls, env: BenchEnvironment) -> "_Env":
        return cls(**{f.name: getattr(env, f.name) for f in fields(env)})

    def fresh(self, size=None):
        engine, ctx, comm = super().fresh(size)
        self.last_comm = comm
        return engine, ctx, comm


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Workload:
    """Base class: seeded operations, a set-up, and per-op execution.

    Subclasses take ``tiny=True`` to shrink their inputs to a smoke-test
    size (the benchmark's own tests use it).
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list = []
        self.candidates = 0  # static-search candidates of the last set-up

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op) -> OpResult:
        raise NotImplementedError

    def sim_metrics(self, results: list[OpResult]) -> tuple[dict, int, int]:
        """Simulated end-to-end metrics of one pass, plus (attempted, failed)
        of any reference operations the metrics needed."""
        raise NotImplementedError

    def _teardown(self, ctx, comm) -> list[str]:
        return teardown_failures(ctx, comm)

    def _finish(self, env: _Env, sim: tuple, failures: list[str]) -> OpResult:
        ctx, comm = env.last_context, env.last_comm
        failures = failures + self._teardown(ctx, comm)
        return OpResult(
            attempted=1,
            failed=1 if failures else 0,
            copies=ctx.runtime.fabric.flows_completed,
            sim=sim,
            counts=layer_counts(ctx, comm),
            failures=failures,
        )


# ----------------------------------------------------------------------
class BibwSweep(Workload):
    """Reduced Fig. 6 sweep through ``osu_bibw`` (closed loop)."""

    name = "bibw-sweep"
    iterations = 1
    err_min_size = 8 * MiB  # the model-error verdict is stated above 4 MB

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            self.systems, self.labels = ("beluga",), ("2_GPUs",)
            self.windows, self.sizes = (1,), (16 * MiB,)
        else:
            self.systems = ("beluga", "narval")
            self.labels = ("2_GPUs", "3_GPUs", "3_GPUs_w_host")
            self.windows, self.sizes = (1, 16), (4 * MiB, 16 * MiB, 64 * MiB)
        self.ops = [
            (system, label, window, n, series)
            for system in self.systems
            for label in self.labels
            for window in self.windows
            for n in self.sizes
            for series in SERIES
        ]

    def setup(self) -> None:
        clear_caches()
        self.setups, self.configs, self.candidates = {}, {}, 0
        for system in self.systems:
            setup = get_setup(
                system, jitter_seed=self.seed, jitter_sigma=JITTER_SIGMA
            )
            self.setups[system] = setup
            for label in self.labels:
                for n in self.sizes:
                    found = get_static_shares(setup, label, n)
                    self.candidates += found.candidates_evaluated
                    self.configs[system, label, n] = configs_for(setup, label, n)

    def run_op(self, op) -> OpResult:
        system, label, window, n, series = op
        env = _Env.of(self.setups[system].env(self.configs[system, label, n][series]))
        result = osu_bibw(
            env, n, window=window, iterations=self.iterations, warmup=1
        )
        return self._finish(env, (result.elapsed, result.bytes_moved), [])

    def sim_metrics(self, results):
        by_op = {op: r.sim for op, r in zip(self.ops, results)}
        dyn, speedups, errs, lat = [], [], [], []
        for (system, label, window, n, series), (elapsed, moved) in by_op.items():
            if series != "dynamic":
                continue
            bw = moved / elapsed
            direct_elapsed, direct_moved = by_op[system, label, window, n, "direct"]
            dyn.append(bw)
            speedups.append(bw / (direct_moved / direct_elapsed))
            lat.append(elapsed / (self.iterations * window))
            if n >= self.err_min_size:
                pred = predicted_bibw(self.setups[system], label, n)
                errs.append(abs(pred - bw) / bw)
        return _sim(dyn, speedups, errs, lat), 0, 0


# ----------------------------------------------------------------------
class CollectiveSweep(Workload):
    """Reduced Fig. 7 sweep: Allreduce (recursive) and Alltoall (Bruck)."""

    name = "collective-sweep"
    ranks = 4
    iterations, warmup = 1, 1
    err_min_size = 4 * MiB

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            self.systems, self.labels, self.sizes = ("beluga",), ("2_GPUs",), (4 * MiB,)
        else:
            self.systems = ("beluga", "narval")
            self.labels = ("2_GPUs", "3_GPUs")
            self.sizes = (1 * MiB, 4 * MiB, 16 * MiB)
        self.collectives = ("allreduce", "alltoall")
        self.ops = [
            (system, coll, label, n, series)
            for system in self.systems
            for coll in self.collectives
            for label in self.labels
            for n in self.sizes
            for series in SERIES
        ]
        # Integer-valued float32 payloads: the reduction is exact, so the
        # Allreduce result must equal the elementwise sum bit for bit.
        self.payloads = {}
        for i, n in enumerate(self.sizes):
            rng = _rng(seed, 1, i)
            elems = n // 4
            self.payloads[n] = [
                rng.integers(-1000, 1000, elems).astype(np.float32)
                for _ in range(self.ranks)
            ]
        self.expected_sum = {
            n: np.sum(p, axis=0, dtype=np.float32) for n, p in self.payloads.items()
        }

    @staticmethod
    def _hint(n: int) -> int:
        # The static shares are tuned at the collective's dominant step size
        # (half the per-rank vector), as the Fig. 7 experiment does.
        return max(1 * MiB, n // 2)

    def setup(self) -> None:
        clear_caches()
        self.setups, self.configs, self.candidates = {}, {}, 0
        for system in self.systems:
            setup = get_setup(
                system, jitter_seed=self.seed, jitter_sigma=JITTER_SIGMA
            )
            self.setups[system] = setup
            for label in self.labels:
                for n in self.sizes:
                    hint = self._hint(n)
                    found = get_static_shares(setup, label, hint)
                    self.candidates += found.candidates_evaluated
                    self.configs[system, label, n] = configs_for(setup, label, hint)

    def _check(self, coll: str, n: int, rank: int, out) -> bool:
        if coll == "allreduce":
            return np.array_equal(out, self.expected_sum[n])
        # Alltoall: block j of the result is what rank j sent to this rank.
        payloads = self.payloads[n]
        for j, got in enumerate(out):
            blocks = np.array_split(payloads[j], self.ranks)
            width = min(b.size for b in blocks)
            if not np.array_equal(got, blocks[rank][:width]):
                return False
        return True

    def run_op(self, op) -> OpResult:
        system, coll, label, n, series = op
        env = _Env.of(self.setups[system].env(self.configs[system, label, n][series]))
        engine, _ctx, comm = env.fresh(self.ranks)
        fn = COLLECTIVES[coll]
        payloads = self.payloads[n]
        marks, wrong = {}, []

        def program(view):
            data = payloads[view.rank]
            out = None
            for it in range(self.warmup + self.iterations):
                if it == self.warmup:
                    yield from view.barrier()
                    if view.rank == 0:
                        marks["start"] = engine.now
                out = yield from fn(view, data)
                yield from view.barrier()
            if view.rank == 0:
                marks["stop"] = engine.now
            if not self._check(coll, n, view.rank, out):
                wrong.append(view.rank)

        engine.run(until=comm.run_ranks(program))
        latency = (marks["stop"] - marks["start"]) / self.iterations
        failures = [f"{coll} result wrong on ranks {wrong}"] if wrong else []
        return self._finish(env, (latency,), failures)

    def sim_metrics(self, results):
        by_op = {op: r.sim[0] for op, r in zip(self.ops, results)}
        bws, speedups, errs, lat = [], [], [], []
        models = {}
        for (system, coll, label, n, series), latency in by_op.items():
            if series != "dynamic":
                continue
            bws.append(n / latency)
            speedups.append(by_op[system, coll, label, n, "direct"] / latency)
            lat.append(latency)
            if n >= self.err_min_size:
                key = (system, label)
                if key not in models:
                    setup = self.setups[system]
                    models[key] = CollectiveModel(
                        PathPlanner(setup.topology, setup.store),
                        reduce_bandwidth=REDUCE_BANDWIDTH[system],
                        include_host=False,
                        max_gpu_staged=PATH_CONFIGS[label]["max_gpu_staged"],
                    )
                pred = getattr(models[key], coll)(self.ranks, n).total
                errs.append(abs(pred - latency) / latency)
        return _sim(bws, speedups, errs, lat), 0, 0


# ----------------------------------------------------------------------
class PutStream(Workload):
    """Open loop of seeded Poisson puts with one mid-stream link outage."""

    name = "put-stream"
    system = "beluga"
    #: Offered load: at this rate the per-pair cap queues about 1 % of the
    #: puts on beluga and the queue stays short (no growing backlog).
    rate = 80_000.0  # puts per simulated second
    inflight_per_pair = 4
    pool_size = 48
    min_size, max_size = 64 * KiB, 8 * MiB

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed)
        self.puts = 200 if tiny else 3000
        self.ops = [0] if tiny else [0, 1, 2, 3]
        self.streams = [self._make_stream(k) for k in self.ops]

    def _make_stream(self, k: int) -> dict:
        rng = _rng(self.seed, 2, k)
        # Stratified log-uniform size pool: one size per log-spaced stratum,
        # so the pool's mean (and thus the offered byte load) barely moves
        # with the seed while every size is still seeded.
        lo, span = math.log(self.min_size), math.log(self.max_size / self.min_size)
        strata = (np.arange(self.pool_size) + rng.uniform(0, 1, self.pool_size))
        pool = (np.exp(lo + strata / self.pool_size * span) // 256 * 256).astype(int)
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        due = np.cumsum(rng.exponential(1.0 / self.rate, self.puts))
        pair_idx = rng.integers(0, len(pairs), self.puts)
        size_idx = rng.integers(0, self.pool_size, self.puts)
        src, dst = pairs[rng.integers(0, len(pairs))]
        end = float(due[-1])
        return {
            "due": due.tolist(),
            "pairs": [pairs[i] for i in pair_idx],
            "sizes": [int(pool[i]) for i in size_idx],
            "fault": (f"nvl:{src}->{dst}", end * rng.uniform(0.4, 0.5), 0.1 * end),
        }

    def setup(self) -> None:
        clear_caches()
        self.setup_obj = get_setup(
            self.system, jitter_seed=self.seed, jitter_sigma=JITTER_SIGMA
        )
        base = dynamic_config().with_(max_inflight_per_pair=self.inflight_per_pair)
        self.cfg = {
            "dynamic": base,
            "direct": direct_config(base),
        }

    def run_op(self, op, series: str = "dynamic") -> OpResult:
        stream = self.streams[op]
        env = _Env.of(self.setup_obj.env(self.cfg[series]))
        engine, ctx, _comm = env.fresh()
        channel, at, duration = stream["fault"]
        FaultSchedule(LinkDown(channel, at, duration)).attach(ctx.runtime.fabric)
        due, pairs, sizes = stream["due"], stream["pairs"], stream["sizes"]
        events = []
        late = [0.0]

        def generator():
            for i, t in enumerate(due):
                if t > engine.now:
                    yield engine.timeout(t - engine.now)
                late[0] = max(late[0], engine.now - t)
                src, dst = pairs[i]
                events.append(ctx.put(src, dst, sizes[i]))

        engine.process(generator(), name="put-stream")
        engine.run()
        results, bad = [], 0
        for ev in events:
            if ev.triggered and ev.ok:
                results.append(ev.value)
            else:
                results.append(None)
                bad += 1
        teardown = self._teardown(ctx, None)
        failures = ([f"{bad} puts did not deliver"] if bad else []) + teardown
        attempted = len(due)
        # A broken invariant taints every put of the stream.
        failed = attempted if teardown else bad
        sim = tuple(
            (r.start, r.end, r.retries, r.protocol) if r is not None else None
            for r in results
        )
        counts = layer_counts(ctx, None)
        counts["loadgen.late_s"] = late[0]
        return OpResult(
            attempted=attempted,
            failed=failed,
            copies=ctx.runtime.fabric.flows_completed,
            sim=sim,
            counts=counts,
            failures=failures,
        )

    def sim_metrics(self, results):
        lat, bws, errs, speedups = [], [], [], []
        attempted = failed = 0
        planner = PathPlanner(self.setup_obj.topology, self.setup_obj.store)
        cfg = self.cfg["dynamic"]
        for op, dyn in zip(self.ops, results):
            stream = self.streams[op]
            # Reference replay of the same stream over the single direct path.
            ref = self.run_op(op, series="direct")
            attempted += ref.attempted
            failed += ref.failed
            for i, (rec, base) in enumerate(zip(dyn.sim, ref.sim)):
                if rec is None:
                    continue
                due, n = stream["due"][i], stream["sizes"][i]
                latency = rec[1] - due
                lat.append(latency)
                bws.append(n / latency)
                if base is not None:
                    speedups.append((base[1] - due) / latency)
                if n >= 1 * MiB and rec[2] == 0:  # rendezvous, not recovered
                    src, dst = stream["pairs"][i]
                    pred = planner.predict_time(
                        src, dst, n,
                        include_host=cfg.include_host,
                        max_gpu_staged=cfg.max_gpu_staged,
                    )
                    took = rec[1] - rec[0]
                    errs.append(abs(pred - took) / took)
        return _sim(bws, speedups, errs, lat), attempted, failed


def _sim(bws, speedups, errs, latencies) -> dict:
    return {
        "sim_bw_gbps": _geomean(bws) / GB,
        "sim_speedup": _geomean(speedups),
        "model_err_pct": 100.0 * float(np.mean(errs)),
        "sim_p50_us": _pct(latencies, 50) * 1e6,
        "sim_p99_us": _pct(latencies, 99) * 1e6,
    }


WORKLOADS = {w.name: w for w in (BibwSweep, CollectiveSweep, PutStream)}

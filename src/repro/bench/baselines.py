"""The paper's three evaluated configurations (§5) as config factories.

* **Direct Path** (baseline) — the stock single-path cuda_ipc behaviour;
* **Static Path Distribution** — a fixed distribution found by *offline
  exhaustive search* on the target system, per message size (the
  methodology of [35]);
* **Dynamic Path Distribution** — the runtime model (this paper).

:func:`static_search` performs the exhaustive search over a θ grid on the
simplex × a chunk-count menu, keeping the fastest simulated transfer — the
expensive offline step the paper's model replaces.  The model also makes
that exact search cheap: it seeds the incumbent, and a per-candidate lower
bound skips every candidate that provably cannot win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

from repro.bench.env import BenchEnvironment
from repro.core.chunking import effective_params
from repro.core.planner import PathAssignment, PathPlanner, TransferPlan
from repro.sim.noise import jitter_floor
from repro.topology.routing import enumerate_paths
from repro.ucx.pipeline import PipelineEngine
from repro.ucx.tuning import StaticShare, TransportConfig


def simplex_grid(num_paths: int, steps: int):
    """All fraction vectors with components i/steps summing to 1."""
    if num_paths == 1:
        yield (1.0,)
        return

    def rec(remaining, parts_left):
        if parts_left == 1:
            yield (remaining,)
            return
        for units in range(remaining + 1):
            for rest in rec(remaining - units, parts_left - 1):
                yield (units, *rest)

    for combo in rec(steps, num_paths):
        yield tuple(c / steps for c in combo)


@dataclass(frozen=True)
class StaticSearchResult:
    shares: tuple[StaticShare, ...]
    simulated_time: float
    #: Grid size: every candidate is either simulated or provably slower.
    candidates_evaluated: int
    #: Engine events processed over the simulated candidates
    #: (deterministic cost).
    events_processed: int
    #: Candidates that were simulated (the rest were pruned by their bound).
    candidates_simulated: int


def _byte_shares(nbytes: int, fractions) -> list[int]:
    """Per-path byte counts of a candidate's fraction vector."""
    shares = [int(f * nbytes) for f in fractions]
    # Rounding remainder goes to the largest-fraction path (giving a few
    # stray bytes to an otherwise idle path would charge its full startup).
    shares[max(range(len(shares)), key=lambda i: fractions[i])] += nbytes - sum(shares)
    return shares


def _simulate_candidate(
    env: BenchEnvironment, src, dst, nbytes, paths, fractions, chunks,
    bound: float = math.inf,
):
    """Time a single transfer with an explicit distribution.

    Returns ``(time, events)``: the simulated transfer time — None if the
    transfer is still running ``bound`` seconds after it started — and
    the engine events processed.
    """
    engine, ctx, _comm = env.fresh()
    assignments = []
    for path, frac, nb in zip(paths, fractions, _byte_shares(nbytes, fractions)):
        if nb == 0:
            continue
        params = ctx.planner.store.path_params(path)
        assignments.append(
            PathAssignment(
                path=path,
                params=params,
                effective=effective_params(params, None),
                theta=frac,
                nbytes=nb,
                chunks=chunks if path.is_staged else 1,
            )
        )
    plan = TransferPlan(
        src=src, dst=dst, nbytes=nbytes,
        assignments=tuple(assignments),
        predicted_time=1e-9,
    )
    start = engine.now
    done = ctx.pipeline.execute(plan, tag="static")
    finish = []
    done.add_callback(lambda _ev: finish.append(engine.now))
    if math.isfinite(bound):
        # Same heap order as an unbounded run, so an event at or before
        # the deadline fires at the same time; a transfer completing
        # exactly at the deadline still completes (and loses the tie).
        engine.run(until=start + bound)
        if not done.triggered and engine.queued:
            return None, engine.events_processed
    if not done.ok:
        # Runs an unbounded transfer to completion; raises the transfer's
        # failure, or the engine's deadlock SimError if the heap drains
        # before the transfer completes.
        engine.run(until=done)
    return finish[0] - start, engine.events_processed


#: A flow completes once at most ``max(1e-6, 1e-9 * demand)`` bytes remain
#: (``Fabric`` completion epsilon), so a bound counts only this much of its
#: demand floor as work.
_WORK_REL, _WORK_ABS = 1e-9, 1e-6

#: Slack on the pruning test, far above float rounding of simulated time.
_PRUNE_SLACK = 1e-9


def _lower_bound(env: BenchEnvironment, nbytes, paths, fractions, chunks) -> float:
    """A time that no simulation of this candidate can beat.

    The fabric charges a copy over a hop the sum of the hop's channel
    alphas, then moves its demand at a rate no larger than any of its
    channels' betas, while all flows crossing a channel share that
    channel's beta.  A copy's demand is its size times ``1 + sum(jitter -
    1)`` over the hop's channels, and each channel's jitter is at least its
    model's floor over the copies it carries.  The bound is the larger of:

    * per channel, the earliest possible admission plus the floored demand
      of every copy crossing it over its beta;
    * per path, a chain of copies that must run one after another: on a
      staged path, hop 1 of chunks ``0..j`` on the first stream, then the
      ε sync and hop 2 of chunks ``j..k-1`` on the second, for every
      crossing chunk ``j`` (``j = 0`` and ``j = k-1`` are the "first chunk
      then all of hop 2" and "all of hop 1 then the last chunk" chains).

    Each channel's jitter model comes from ``env.jitter_factory``, which
    must return one model per channel, as the fabric builds it.  A channel
    whose model has no floor contributes no demand to the hops crossing it.
    """
    channels = env.topology.channels
    factory = env.jitter_factory
    # (path, chunk sizes) of every active path, and copies per channel
    active = []
    calls: dict[str, int] = {}
    for path, nb in zip(paths, _byte_shares(nbytes, fractions)):
        if nb == 0:
            continue
        sizes = PipelineEngine._chunk_sizes(nb, chunks) if path.is_staged else (nb,)
        active.append((path, sizes))
        for hop in path.hops:
            for name in hop:
                calls[name] = calls.get(name, 0) + len(sizes)
    floors = {
        name: jitter_floor(factory(channels[name]) if factory else None, n)
        for name, n in calls.items()
    }
    work = dict.fromkeys(calls, 0.0)
    first_admit = dict.fromkeys(calls, math.inf)
    bound = 0.0
    for path, sizes in active:
        hop_times = []
        for hop in path.hops:
            alpha = sum(channels[name].alpha for name in hop)
            beta = min(channels[name].beta for name in hop)
            if any(floors[name] is None for name in hop):
                per_byte = 0.0
            else:
                per_byte = max(0.0, 1.0 + sum(floors[name] - 1.0 for name in hop))
            moved = [
                max(0.0, n * per_byte * (1.0 - _WORK_REL) - _WORK_ABS) for n in sizes
            ]
            for name in hop:
                work[name] += sum(moved)
                first_admit[name] = min(first_admit[name], alpha)
            hop_times.append([alpha + m / beta for m in moved])
        if not path.is_staged:
            bound = max(bound, hop_times[0][0])
            continue
        epsilon = env.topology.sync_epsilon(via_gpu=path.via is not None)
        hop1 = list(accumulate(hop_times[0]))
        hop2 = list(accumulate(reversed([epsilon + t for t in hop_times[1]])))[::-1]
        bound = max(bound, max(a + b for a, b in zip(hop1, hop2)))
    for name, moved in work.items():
        bound = max(bound, first_admit[name] + moved / channels[name].beta)
    return bound


def _model_seed(
    env: BenchEnvironment, src, dst, nbytes, paths, candidates,
    include_host, max_gpu_staged,
) -> int | None:
    """Index of the grid candidate nearest the model's optimal plan.

    θ goes to the nearest grid point (squared distance), the staged paths'
    largest chunk count to the nearest menu entry (log distance); ties go
    to the lower index.  None when the store cannot plan the transfer.
    """
    config = env.config
    planner = PathPlanner(
        env.topology,
        env.store,
        pipelining=config.pipelining,
        sequential_initiation=config.sequential_initiation,
        max_chunks=config.max_chunks,
    )
    try:
        plan = planner.plan(
            src, dst, nbytes, include_host=include_host,
            max_gpu_staged=max_gpu_staged, use_cache=False,
        )
    except KeyError:  # the store has no estimate for some hop
        return None
    theta = {a.path.path_id: a.theta for a in plan.assignments}
    target = [theta.get(p.path_id, 0.0) for p in paths]
    staged = [a.chunks for a in plan.active_assignments if a.path.is_staged]
    k = max(staged, default=1)
    return min(
        range(len(candidates)),
        key=lambda i: (
            sum((f - t) ** 2 for f, t in zip(candidates[i][0], target)),
            abs(math.log(candidates[i][1] / k)),
            i,
        ),
    )


def static_search(
    env: BenchEnvironment,
    nbytes: int,
    *,
    src: int = 0,
    dst: int = 1,
    include_host: bool = True,
    max_gpu_staged: int | None = None,
    grid_steps: int = 8,
    chunk_menu: tuple[int, ...] = (1, 4, 16),
) -> StaticSearchResult:
    """Offline exhaustive search for the best fixed distribution.

    The winner is the lexicographic minimum of (simulated time, grid
    index) over every candidate, as if each were simulated to completion.
    Most never are:

    1. the grid point nearest the model's optimum (:func:`_model_seed`;
       else the candidate with the smallest bound) is simulated first;
    2. the rest run in grid order.  A candidate whose lower bound
       (:func:`_lower_bound`) exceeds the best time so far is skipped; any
       other is simulated only up to the best time, which changes neither
       the winner nor its time.  On an equal time the lower index wins.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be > 0")
    if not isinstance(grid_steps, int) or grid_steps < 1:
        raise ValueError(f"grid_steps must be an int >= 1, got {grid_steps!r}")
    if not chunk_menu:
        raise ValueError("chunk_menu must not be empty")
    for chunks in chunk_menu:
        if not isinstance(chunks, int) or chunks < 1:
            raise ValueError(
                f"chunk_menu entries must be ints >= 1, got {chunks!r}"
            )
    paths = enumerate_paths(
        env.topology,
        src,
        dst,
        include_host=include_host,
        max_gpu_staged=max_gpu_staged,
    )
    has_staged = any(p.is_staged for p in paths)
    menu = chunk_menu if has_staged else (1,)
    candidates = list(product(simplex_grid(len(paths), grid_steps), menu))

    def bound_of(i: int) -> float:
        fractions, chunks = candidates[i]
        return _lower_bound(env, nbytes, paths, fractions, chunks)

    seed = _model_seed(
        env, src, dst, nbytes, paths, candidates, include_host, max_gpu_staged
    )
    if seed is None:
        seed = min(range(len(candidates)), key=lambda i: (bound_of(i), i))
    best = seed
    fractions, chunks = candidates[seed]
    best_time, events = _simulate_candidate(
        env, src, dst, nbytes, paths, fractions, chunks
    )
    simulated = 1
    for i, (fractions, chunks) in enumerate(candidates):
        # A bound is computed just before its candidate runs, so a jitter
        # model shared across simulations is seen in its current state.
        if i == seed or bound_of(i) * (1.0 - _PRUNE_SLACK) > best_time:
            continue
        t, n = _simulate_candidate(
            env, src, dst, nbytes, paths, fractions, chunks, bound=best_time
        )
        events += n
        simulated += 1
        if t is not None and (t, i) < (best_time, best):
            best_time, best = t, i
    fractions, chunks = candidates[best]
    shares = tuple(
        StaticShare(path_id=p.path_id, fraction=f, chunks=chunks)
        for p, f in zip(paths, fractions)
        if f > 0
    )
    return StaticSearchResult(
        shares=shares,
        simulated_time=best_time,
        candidates_evaluated=len(candidates),
        events_processed=events,
        candidates_simulated=simulated,
    )


# ---------------------------------------------------------------------------
# Config factories for the three paper configurations
# ---------------------------------------------------------------------------

def direct_config(base: TransportConfig | None = None) -> TransportConfig:
    """The MPI+UCX default: one direct path."""
    base = base or TransportConfig()
    return base.with_(multipath=False, include_host=False, static_shares=())


def dynamic_config(
    *,
    include_host: bool = True,
    max_gpu_staged: int | None = None,
    base: TransportConfig | None = None,
) -> TransportConfig:
    """Model-driven runtime distribution (this paper)."""
    base = base or TransportConfig()
    return base.with_(
        multipath=True,
        include_host=include_host,
        max_gpu_staged=max_gpu_staged,
        static_shares=(),
    )


def static_config(
    shares: tuple[StaticShare, ...],
    *,
    include_host: bool = True,
    max_gpu_staged: int | None = None,
    base: TransportConfig | None = None,
) -> TransportConfig:
    """Fixed offline-tuned distribution ([35])."""
    base = base or TransportConfig()
    return base.with_(
        multipath=True,
        include_host=include_host,
        max_gpu_staged=max_gpu_staged,
        static_shares=shares,
    )


__all__ = [
    "simplex_grid",
    "static_search",
    "StaticSearchResult",
    "direct_config",
    "dynamic_config",
    "static_config",
]

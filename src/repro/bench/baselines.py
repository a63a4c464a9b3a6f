"""The paper's three evaluated configurations (§5) as config factories.

* **Direct Path** (baseline) — the stock single-path cuda_ipc behaviour;
* **Static Path Distribution** — a fixed distribution found by *offline
  exhaustive search* on the target system, per message size (the
  methodology of [35]);
* **Dynamic Path Distribution** — the runtime model (this paper).

:func:`static_search` performs the exhaustive search by simulating one
transfer per candidate (θ grid on the simplex × a chunk-count menu) and
keeping the fastest — the expensive offline step the paper's model
replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from repro.bench.env import BenchEnvironment
from repro.core.chunking import effective_params
from repro.core.planner import PathAssignment, TransferPlan
from repro.topology.routing import enumerate_paths
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
    candidates_evaluated: int
    #: Engine events processed over all candidates (deterministic cost).
    events_processed: int


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
    shares = [int(f * nbytes) for f in fractions]
    # Rounding remainder goes to the largest-fraction path (giving a few
    # stray bytes to an otherwise idle path would charge its full startup).
    shares[max(range(len(shares)), key=lambda i: fractions[i])] += nbytes - sum(shares)
    for path, frac, nb in zip(paths, fractions, shares):
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

    Candidates run in grid order; the first strictly fastest one wins.
    Every candidate after the first is simulated only up to the best time
    so far, which changes neither the winner nor its time.
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
    best_time = math.inf
    best = None
    evaluated = 0
    events = 0
    has_staged = any(p.is_staged for p in paths)
    menu = chunk_menu if has_staged else (1,)
    for fractions, chunks in product(simplex_grid(len(paths), grid_steps), menu):
        evaluated += 1
        t, n = _simulate_candidate(
            env, src, dst, nbytes, paths, fractions, chunks, bound=best_time
        )
        events += n
        if t is not None and t < best_time:
            best_time = t
            best = (fractions, chunks)
    fractions, chunks = best
    shares = tuple(
        StaticShare(path_id=p.path_id, fraction=f, chunks=chunks)
        for p, f in zip(paths, fractions)
        if f > 0
    )
    # Renormalise in case zero-fraction paths were dropped (grid sums to 1
    # already, dropping zeros keeps the sum).
    return StaticSearchResult(
        shares=shares,
        simulated_time=best_time,
        candidates_evaluated=evaluated,
        events_processed=events,
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

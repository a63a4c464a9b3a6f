"""Motivation bench: the model replaces exhaustive search (paper §1).

Times the offline exhaustive search of [35] against one Algorithm-1 solve
for the same configuration point, and checks the search's best time is not
materially better than the model's measured result.
"""

import time

from conftest import write_result

from repro.bench.baselines import dynamic_config, static_search
from repro.bench.omb import osu_bw
from repro.core.planner import PathPlanner
from repro.units import MiB
from repro.util.tables import Table


def test_search_vs_model_cost_and_quality(benchmark, beluga_setup):
    n = 128 * MiB
    env = beluga_setup.env(dynamic_config(include_host=False))

    result = benchmark.pedantic(
        lambda: static_search(
            env, n, include_host=False, grid_steps=6, chunk_menu=(1, 4, 16)
        ),
        rounds=1,
        iterations=1,
    )
    search_wall = benchmark.stats.stats.mean

    planner = PathPlanner(beluga_setup.topology, beluga_setup.store)
    t0 = time.perf_counter()
    plan = planner.plan(0, 1, n, include_host=False, use_cache=False)
    model_wall = time.perf_counter() - t0

    # quality: measured bandwidth of the model's config vs the search's
    bw_model = osu_bw(env, n, iterations=2).bandwidth
    table = Table(["what", "value"], title="exhaustive search vs model")
    table.add(what="search wall-clock (s)", value=search_wall)
    table.add(what="model wall-clock (s)", value=model_wall)
    table.add(what="search candidates", value=result.candidates_evaluated)
    table.add(what="search candidates simulated", value=result.candidates_simulated)
    table.add(what="search best simulated (us)", value=result.simulated_time * 1e6)
    table.add(what="model predicted (us)", value=plan.predicted_time * 1e6)
    table.add(what="model measured BW (GB/s)", value=bw_model / 1e9)
    write_result("search_vs_model.txt", table.render())

    assert search_wall > 20 * model_wall  # the model is far cheaper
    # and not meaningfully worse than the offline search optimum:
    assert plan.predicted_time < result.simulated_time * 1.25

"""Tests for the OSU-style measurement loops and the baselines."""

from itertools import product

import pytest

from repro.bench import baselines
from repro.bench.baselines import (
    _lower_bound,
    _simulate_candidate,
    direct_config,
    dynamic_config,
    simplex_grid,
    static_config,
    static_search,
)
from repro.bench.collectives import COLLECTIVES
from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.bench.omb import osu_bibw, osu_bw, osu_collective_latency
from repro.bench.runner import PATH_CONFIGS
from repro.sim.faults import LinkFailure
from repro.sim.noise import LognormalJitter
from repro.topology import systems
from repro.topology.routing import enumerate_paths
from repro.ucx.tuning import StaticShare
from repro.units import MiB, gbps
from repro.util.rng import spawn_rng


@pytest.fixture(scope="module")
def beluga_env():
    topo = systems.beluga()
    return BenchEnvironment(topo, config=direct_config())


class TestOsuBw:
    def test_direct_bw_approaches_link_rate(self, beluga_env):
        r = osu_bw(beluga_env, 256 * MiB, window=1, iterations=2)
        assert 0.85 * gbps(46) < r.bandwidth < gbps(46)

    def test_small_message_bw_lower(self, beluga_env):
        small = osu_bw(beluga_env, 1 * MiB, iterations=2)
        large = osu_bw(beluga_env, 256 * MiB, iterations=2)
        assert small.bandwidth < large.bandwidth

    def test_window_amortizes_latency(self, beluga_env):
        w1 = osu_bw(beluga_env, 2 * MiB, window=1, iterations=3)
        w16 = osu_bw(beluga_env, 2 * MiB, window=16, iterations=3)
        assert w16.bandwidth > w1.bandwidth

    def test_multipath_beats_direct(self):
        topo = systems.beluga()
        multi = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        single = BenchEnvironment(topo, config=direct_config())
        bm = osu_bw(multi, 256 * MiB, iterations=2)
        bs = osu_bw(single, 256 * MiB, iterations=2)
        assert bm.bandwidth / bs.bandwidth > 2.0

    def test_result_accounting(self, beluga_env):
        r = osu_bw(beluga_env, 4 * MiB, window=3, iterations=2)
        assert r.bytes_moved == 4 * MiB * 3 * 2
        assert r.latency == pytest.approx(r.elapsed / 6)

    def test_validation(self, beluga_env):
        with pytest.raises(ValueError):
            osu_bw(beluga_env, 0)
        with pytest.raises(ValueError):
            osu_bw(beluga_env, 1 * MiB, window=0)
        with pytest.raises(ValueError):
            osu_bibw(beluga_env, 1 * MiB, iterations=0)

    def test_deterministic_repeats(self, beluga_env):
        r1 = osu_bw(beluga_env, 8 * MiB, iterations=2)
        r2 = osu_bw(beluga_env, 8 * MiB, iterations=2)
        assert r1.bandwidth == r2.bandwidth


class TestOsuBibw:
    def test_bibw_roughly_doubles_on_duplex_link(self, beluga_env):
        uni = osu_bw(beluga_env, 128 * MiB, iterations=2)
        bi = osu_bibw(beluga_env, 128 * MiB, iterations=2)
        # NVLink is full duplex: aggregate should approach 2x unidirectional.
        assert 1.7 < bi.bandwidth / uni.bandwidth <= 2.05

    def test_bibw_host_contention(self):
        """With host staging enabled, BIBW gains less than 2x (Obs 5)."""
        topo = systems.beluga()
        env = BenchEnvironment(
            topo,
            config=dynamic_config(include_host=True),
            jitter_factory=default_jitter_factory(0, 0.0),
        )
        uni = osu_bw(env, 256 * MiB, iterations=2)
        bi = osu_bibw(env, 256 * MiB, iterations=2)
        assert bi.bandwidth / uni.bandwidth < 2.0


class TestCollectiveLatency:
    @pytest.mark.parametrize("name", ["allreduce", "alltoall"])
    def test_latency_positive_and_scales(self, beluga_env, name):
        fn = COLLECTIVES[name]
        small = osu_collective_latency(beluga_env, fn, 1 * MiB, iterations=2)
        large = osu_collective_latency(beluga_env, fn, 16 * MiB, iterations=2)
        assert 0 < small.latency < large.latency

    def test_multipath_collective_speedup(self):
        topo = systems.beluga()
        fn = COLLECTIVES["alltoall"]
        single = BenchEnvironment(topo, config=direct_config())
        multi = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        ls = osu_collective_latency(single, fn, 32 * MiB, iterations=2)
        lm = osu_collective_latency(multi, fn, 32 * MiB, iterations=2)
        assert lm.latency < ls.latency

    def test_validation(self, beluga_env):
        with pytest.raises(ValueError):
            osu_collective_latency(beluga_env, COLLECTIVES["allreduce"], 0)


class TestSimplexGrid:
    def test_counts(self):
        grid = list(simplex_grid(3, 4))
        # C(4+2, 2) = 15 compositions
        assert len(grid) == 15
        for combo in grid:
            assert sum(combo) == pytest.approx(1.0)

    def test_single_path(self):
        assert list(simplex_grid(1, 8)) == [(1.0,)]

    def test_contains_pure_and_uniform(self):
        grid = set(list(simplex_grid(2, 4)))
        assert (1.0, 0.0) in grid
        assert (0.5, 0.5) in grid


def _exhaustive_winner(env, nbytes, steps, menu, **path_kwargs):
    """(shares, time, grid size) of the search's winner found by timing
    every candidate to completion; ties go to the first in grid order."""
    paths = enumerate_paths(env.topology, 0, 1, **path_kwargs)
    candidates = list(product(simplex_grid(len(paths), steps), menu))
    times = [
        _simulate_candidate(env, 0, 1, nbytes, paths, fractions, chunks)[0]
        for fractions, chunks in candidates
    ]
    best = times.index(min(times))
    fractions, chunks = candidates[best]
    shares = tuple(
        StaticShare(path_id=p.path_id, fraction=f, chunks=chunks)
        for p, f in zip(paths, fractions)
        if f > 0
    )
    return shares, times[best], len(candidates)


class TestStaticSearch:
    def test_beats_direct_for_large_messages(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 128 * MiB, include_host=False, grid_steps=4, chunk_menu=(1, 8)
        )
        # Pure direct candidate time:
        direct_time = 128 * MiB / gbps(46)
        assert res.simulated_time < direct_time
        assert len(res.shares) >= 2
        assert sum(s.fraction for s in res.shares) == pytest.approx(1.0)

    def test_small_message_prefers_direct(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config())
        res = static_search(
            env, 256 * 1024, include_host=True, grid_steps=4, chunk_menu=(1,)
        )
        assert res.shares[0].path_id == "direct"
        assert res.shares[0].fraction >= 0.75

    def test_candidate_count(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 8 * MiB, include_host=False, max_gpu_staged=1,
            grid_steps=4, chunk_menu=(1, 4),
        )
        # 2 paths, 4 steps -> 5 fraction vectors x 2 chunk options
        assert res.candidates_evaluated == 10

    def test_static_config_runs(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, config=dynamic_config(include_host=False))
        res = static_search(
            env, 64 * MiB, include_host=False, grid_steps=4, chunk_menu=(1, 8)
        )
        cfg = static_config(res.shares, include_host=False)
        r = osu_bw(env.with_config(cfg), 64 * MiB, iterations=2)
        assert r.bandwidth > gbps(46)  # beats the single link

    def test_validation(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo)
        with pytest.raises(ValueError):
            static_search(env, 0)

    @pytest.mark.parametrize("steps", [0, -2])
    def test_rejects_non_positive_grid_steps(self, steps):
        env = BenchEnvironment(systems.beluga())
        with pytest.raises(ValueError, match="grid_steps"):
            static_search(env, 4 * MiB, include_host=False, grid_steps=steps)

    @pytest.mark.parametrize("menu", [(), (0,), (4, -1)])
    def test_rejects_bad_chunk_menu(self, menu):
        env = BenchEnvironment(systems.beluga())
        with pytest.raises(ValueError, match="chunk_menu"):
            static_search(env, 4 * MiB, include_host=False, chunk_menu=menu)

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("system", ["beluga", "narval"])
    def test_bounded_search_equals_exhaustive_argmin(self, system, sigma):
        """Bounding candidates by the best time so far changes nothing.

        The expected winner times every candidate to completion; ties go
        to the first candidate in grid order (sigma=0 makes the symmetric
        GPU-staged paths tie exactly).
        """
        topo = systems.by_name(system)
        env = BenchEnvironment(
            topo,
            config=dynamic_config(),
            jitter_factory=default_jitter_factory(3, sigma),
        )
        nbytes, steps, menu = 4 * MiB, 3, (1, 4)
        paths = enumerate_paths(topo, 0, 1, include_host=True)
        candidates = list(product(simplex_grid(len(paths), steps), menu))
        runs = [
            _simulate_candidate(env, 0, 1, nbytes, paths, fractions, chunks)
            for fractions, chunks in candidates
        ]
        times = [t for t, _events in runs]
        best = times.index(min(times))
        fractions, chunks = candidates[best]
        expected = tuple(
            StaticShare(path_id=p.path_id, fraction=f, chunks=chunks)
            for p, f in zip(paths, fractions)
            if f > 0
        )

        res = static_search(env, nbytes, grid_steps=steps, chunk_menu=menu)
        assert (res.shares, res.simulated_time, res.candidates_evaluated) == (
            expected, times[best], len(candidates)
        )
        # the bound really cut work short
        assert res.events_processed < sum(events for _t, events in runs)

    @pytest.mark.parametrize("label", sorted(PATH_CONFIGS))
    @pytest.mark.parametrize("nbytes", [4 * MiB, 64 * MiB])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("system", ["beluga", "narval"])
    def test_lower_bound_never_exceeds_simulated_time(
        self, system, sigma, nbytes, label
    ):
        kwargs = PATH_CONFIGS[label]
        topo = systems.by_name(system)
        env = BenchEnvironment(
            topo,
            config=dynamic_config(**kwargs),
            jitter_factory=default_jitter_factory(3, sigma),
        )
        paths = enumerate_paths(topo, 0, 1, **kwargs)
        for fractions, chunks in product(simplex_grid(len(paths), 3), (1, 4, 16)):
            t, _events = _simulate_candidate(
                env, 0, 1, nbytes, paths, fractions, chunks
            )
            bound = _lower_bound(env, nbytes, paths, fractions, chunks)
            assert 0 < bound <= t, (fractions, chunks)

    @pytest.mark.parametrize("label", sorted(PATH_CONFIGS))
    def test_pruned_search_equals_exhaustive_argmin(self, label):
        kwargs = PATH_CONFIGS[label]
        env = BenchEnvironment(
            systems.narval(),
            config=dynamic_config(**kwargs),
            jitter_factory=default_jitter_factory(1, 0.01),
        )
        menu = (1, 4, 16)
        res = static_search(env, 64 * MiB, grid_steps=3, chunk_menu=menu, **kwargs)
        assert (res.shares, res.simulated_time, res.candidates_evaluated) == (
            _exhaustive_winner(env, 64 * MiB, 3, menu, **kwargs)
        )
        assert 1 <= res.candidates_simulated < res.candidates_evaluated

    def test_jitter_without_floor_gets_exhaustive_winner(self):
        """Jitter drawn from an explicit generator has no floor: the bound
        keeps only latencies on those channels, and the winner holds."""

        def factory(cdef):
            return LognormalJitter(spawn_rng(5, "jitter", cdef.name), 0.02)

        env = BenchEnvironment(
            systems.beluga(), config=dynamic_config(), jitter_factory=factory
        )
        res = static_search(env, 4 * MiB, grid_steps=3, chunk_menu=(1, 4))
        assert (res.shares, res.simulated_time, res.candidates_evaluated) == (
            _exhaustive_winner(env, 4 * MiB, 3, (1, 4), include_host=True)
        )

    def test_search_without_model_seed_gets_exhaustive_winner(self, monkeypatch):
        monkeypatch.setattr(baselines, "_model_seed", lambda *args: None)
        env = BenchEnvironment(
            systems.beluga(),
            config=dynamic_config(),
            jitter_factory=default_jitter_factory(2, 0.01),
        )
        res = static_search(env, 16 * MiB, grid_steps=3, chunk_menu=(1, 4))
        assert (res.shares, res.simulated_time, res.candidates_evaluated) == (
            _exhaustive_winner(env, 16 * MiB, 3, (1, 4), include_host=True)
        )

    def test_candidate_failing_before_bound_raises(self):
        class DownAfterFirst(BenchEnvironment):
            """Every channel is down in all but the first simulation."""

            calls = 0

            def fresh(self, size=None):
                engine, ctx, comm = super().fresh(size)
                self.calls += 1
                if self.calls > 1:
                    for name in ctx.runtime.fabric.channels:
                        ctx.runtime.fabric.fail_channel(name)
                return engine, ctx, comm

        env = DownAfterFirst(systems.beluga(), config=dynamic_config())
        with pytest.raises(LinkFailure):
            static_search(env, 4 * MiB, include_host=False, grid_steps=2)
        assert env.calls == 2

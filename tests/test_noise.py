"""Tests for the deterministic noise models."""

import numpy as np
import pytest

from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.sim.noise import (
    BurstSlowdown,
    ComposedJitter,
    LinearDrift,
    LognormalJitter,
    SizeDependentEfficiency,
    jitter_floor,
)
from repro.topology import systems
from repro.units import KiB, MiB
from repro.util.rng import spawn_rng, spawn_seed


class TestLognormalJitter:
    def test_mean_close_to_one(self):
        j = LognormalJitter(spawn_rng(0, "t"), sigma=0.05)
        samples = np.array([j(1024) for _ in range(4000)])
        assert samples.mean() == pytest.approx(1.0, abs=0.01)
        assert samples.std() == pytest.approx(0.05, abs=0.01)

    def test_zero_sigma_is_identity(self):
        j = LognormalJitter(spawn_rng(0, "t"), sigma=0.0)
        assert j(1024) == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LognormalJitter(spawn_rng(0, "t"), sigma=-0.1)

    def test_deterministic_given_seed(self):
        a = [LognormalJitter(spawn_rng(7, "x"), 0.02)(1) for _ in range(5)]
        b = [LognormalJitter(spawn_rng(7, "x"), 0.02)(1) for _ in range(5)]
        assert a == b

    def test_seeded_draws_spawn_rng_sequence_lazily(self):
        eager = LognormalJitter(spawn_rng(7, "jitter", "nvl:0->1"), 0.02)
        lazy = LognormalJitter.seeded(spawn_seed(7, "jitter", "nvl:0->1"), 0.02)
        assert lazy.rng is None
        assert [lazy(n) for n in range(1, 50)] == [eager(n) for n in range(1, 50)]
        assert lazy.rng is not None


class TestDefaultJitterFactory:
    def test_fresh_builds_generators_only_for_touched_channels(self):
        topo = systems.beluga()
        env = BenchEnvironment(topo, jitter_factory=default_jitter_factory(5, 0.01))
        engine, ctx, _comm = env.fresh()
        runtime = ctx.runtime
        hop = topo.direct_hop(0, 1)
        engine.run(
            until=runtime.copy_on_hop_async(
                hop, 4 * MiB, runtime.create_stream(0)
            )
        )
        drawn = {
            name
            for name, ch in runtime.fabric.channels.items()
            if ch.jitter.models[1].rng is not None
        }
        assert drawn == set(hop)
        assert len(runtime.fabric.channels) > len(drawn)

    def test_matches_eager_spawn_rng_per_channel(self):
        factory = default_jitter_factory(9, 0.02)
        for cdef in systems.narval().channels.values():
            lazy = factory(cdef).models[1]
            eager = LognormalJitter(spawn_rng(9, "jitter", cdef.name), 0.02)
            assert [lazy(1) for _ in range(3)] == [eager(1) for _ in range(3)]


class TestBurstSlowdown:
    def test_slowdown_frequency(self):
        j = BurstSlowdown(spawn_rng(0, "b"), prob=0.25, factor=4.0)
        samples = [j(1) for _ in range(4000)]
        frac_slow = sum(1 for s in samples if s == 4.0) / len(samples)
        assert frac_slow == pytest.approx(0.25, abs=0.03)
        assert set(samples) <= {1.0, 4.0}

    def test_validation(self):
        rng = spawn_rng(0, "b")
        with pytest.raises(ValueError):
            BurstSlowdown(rng, prob=1.5)
        with pytest.raises(ValueError):
            BurstSlowdown(rng, factor=0.5)


class TestSizeDependentEfficiency:
    def test_large_messages_unaffected(self):
        j = SizeDependentEfficiency(knee_bytes=256 * KiB)
        assert j(256 * MiB) == pytest.approx(1.0, abs=0.002)

    def test_knee_doubles_demand(self):
        j = SizeDependentEfficiency(knee_bytes=256 * KiB)
        assert j(256 * KiB) == pytest.approx(2.0)

    def test_zero_size(self):
        assert SizeDependentEfficiency(1024)(0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeDependentEfficiency(-1)


class TestLinearDrift:
    def test_identity_before_start(self):
        d = LinearDrift(2.0, start=5, ramp=4)
        assert [d(1) for _ in range(5)] == [1.0] * 5

    def test_monotone_ramp_then_hold(self):
        d = LinearDrift(2.0, start=2, ramp=4)
        samples = [d(1) for _ in range(12)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))
        assert samples[:2] == [1.0, 1.0]
        # ramp completes after `ramp` post-onset invocations, then holds
        assert samples[2 + 4 - 1] == pytest.approx(2.0)
        assert samples[-1] == pytest.approx(2.0)

    def test_zero_ramp_is_step_change(self):
        d = LinearDrift(3.0, start=1, ramp=0)
        assert d(1) == 1.0
        assert d(1) == pytest.approx(3.0)

    def test_counter_based_reproducibility(self):
        def seq():
            d = LinearDrift(1.5, start=3, ramp=5)
            return [d(1) for _ in range(10)]

        assert seq() == seq()

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearDrift(0.0)
        with pytest.raises(ValueError):
            LinearDrift(2.0, start=-1)
        with pytest.raises(ValueError):
            LinearDrift(2.0, ramp=-2)


class TestComposedJitter:
    def test_product(self):
        j = ComposedJitter(
            SizeDependentEfficiency(1024), lambda n: 2.0
        )
        assert j(1024) == pytest.approx(4.0)

    def test_empty_is_identity(self):
        assert ComposedJitter()(123) == 1.0


class TestJitterFloors:
    def test_seeded_floor_is_min_of_first_draws(self):
        j = LognormalJitter.seeded(42, 0.05)
        draws = [j(1) for _ in range(10)]
        assert LognormalJitter.seeded(42, 0.05).floor(10) == min(draws)
        assert LognormalJitter.seeded(42, 0.05).floor(1) == draws[0]

    def test_lognormal_without_fresh_seed_has_no_floor(self):
        j = LognormalJitter.seeded(42, 0.05)
        j(1)
        assert j.floor(3) is None
        assert LognormalJitter(spawn_rng(0, "t"), 0.05).floor(3) is None
        assert LognormalJitter(spawn_rng(0, "t"), 0.0).floor(3) == 1.0

    def test_constant_floors(self):
        assert SizeDependentEfficiency(1e6).floor(5) == 1.0
        assert BurstSlowdown(spawn_rng(0, "b"), 0.5, 4.0).floor(5) == 1.0
        assert LinearDrift(0.5, start=2, ramp=3).floor(5) == 0.5
        assert LinearDrift(2.0).floor(5) == 1.0

    def test_composed_floor_is_product(self):
        composed = ComposedJitter(
            SizeDependentEfficiency(1e3),
            LinearDrift(0.8, ramp=4),
            LognormalJitter.seeded(7, 0.02),
        )
        floor = composed.floor(20)
        assert floor == 0.8 * LognormalJitter.seeded(7, 0.02).floor(20)
        assert all(composed(4096) >= floor for _ in range(20))

    def test_unknown_parts_have_no_floor(self):
        assert jitter_floor(None, 3) == 1.0
        assert jitter_floor(lambda n: 1.0, 3) is None
        assert ComposedJitter(SizeDependentEfficiency(), lambda n: 1.0).floor(3) is None

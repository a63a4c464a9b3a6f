"""Correctness tests for collectives vs numpy references, plus property
tests over random sizes/values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Communicator, collectives
from repro.sim import Engine
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext


def run_collective(fn, size=4, topology=None, config=None, seed=0):
    """Run `fn(view, data[rank])` on all ranks; returns (results, time).

    ``fn`` receives the view and must return the collective's result.
    """
    eng = Engine()
    ctx = UCXContext(eng, topology or systems.beluga(), config=config)
    comm = Communicator(ctx, size=size)
    results = {}

    def program(view):
        out = yield from fn(view)
        results[view.rank] = out

    eng.run(until=comm.run_ranks(program))
    return results, eng.now


def make_inputs(size, elems, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=elems) for _ in range(size)]


class TestAllreduce:
    @pytest.mark.parametrize("elems", [16, 1024, 4096])
    @pytest.mark.parametrize("algo", ["recursive", "ring", "auto"])
    def test_sum_matches_numpy(self, elems, algo):
        inputs = make_inputs(4, elems)
        expected = np.sum(inputs, axis=0)
        fns = {
            "recursive": collectives.allreduce_recursive,
            "ring": collectives.allreduce_ring,
            "auto": collectives.allreduce,
        }

        def fn(view):
            result = yield from fns[algo](view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected, rtol=1e-12)

    def test_max_op(self):
        inputs = make_inputs(4, 256)
        expected = np.maximum.reduce(inputs)

        def fn(view):
            result = yield from collectives.allreduce(
                view, inputs[view.rank], op=np.maximum
            )
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected)

    def test_ring_handles_non_power_of_two(self):
        inputs = make_inputs(3, 300)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            result = yield from collectives.allreduce(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn, size=3)
        for r in range(3):
            np.testing.assert_allclose(results[r], expected, rtol=1e-12)

    def test_recursive_rejects_non_power_of_two(self):
        def fn(view):
            result = yield from collectives.allreduce_recursive(
                view, np.zeros(8)
            )
            return result

        with pytest.raises(ValueError, match="power-of-two"):
            run_collective(fn, size=3)

    def test_single_rank(self):
        def fn(view):
            result = yield from collectives.allreduce(view, np.arange(8.0))
            return result

        results, _ = run_collective(fn, size=1)
        np.testing.assert_array_equal(results[0], np.arange(8.0))

    def test_2d_rejected(self):
        def fn(view):
            result = yield from collectives.allreduce_ring(view, np.zeros((2, 2)))
            return result

        with pytest.raises(ValueError, match="1-D"):
            run_collective(fn)

    @given(
        elems=st.integers(min_value=4, max_value=2048),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_sizes(self, elems, seed):
        inputs = make_inputs(4, elems, seed)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            result = yield from collectives.allreduce(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected, rtol=1e-10)


class TestAlltoall:
    @pytest.mark.parametrize("algo", ["bruck", "pairwise", "auto"])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_reference(self, algo, size):
        elems = 64
        rng = np.random.default_rng(1)
        # matrix[src][dst] = block sent from src to dst
        matrix = [[rng.normal(size=elems) for _ in range(size)] for _ in range(size)]
        fns = {
            "bruck": collectives.alltoall_bruck,
            "pairwise": collectives.alltoall_pairwise,
            "auto": collectives.alltoall,
        }

        def fn(view):
            result = yield from fns[algo](view, matrix[view.rank])
            return result

        results, _ = run_collective(fn, size=size)
        for dst in range(size):
            for src in range(size):
                np.testing.assert_allclose(
                    results[dst][src], matrix[src][dst], rtol=1e-12
                )

    def test_block_validation(self):
        def fn(view):
            result = yield from collectives.alltoall(view, [np.zeros(4)] * 3)
            return result

        with pytest.raises(ValueError, match="blocks"):
            run_collective(fn, size=4)

    def test_nonuniform_blocks_rejected(self):
        def fn(view):
            blocks = [np.zeros(4), np.zeros(5), np.zeros(4), np.zeros(4)]
            result = yield from collectives.alltoall(view, blocks)
            return result

        with pytest.raises(ValueError, match="uniform"):
            run_collective(fn, size=4)

    def test_single_rank(self):
        def fn(view):
            result = yield from collectives.alltoall_bruck(view, [np.arange(4.0)])
            return result

        results, _ = run_collective(fn, size=1)
        np.testing.assert_array_equal(results[0][0], np.arange(4.0))


class TestAllgather:
    @pytest.mark.parametrize("algo", ["rd", "ring", "auto"])
    def test_matches_reference(self, algo):
        inputs = make_inputs(4, 128)
        fns = {
            "rd": collectives.allgather_recursive_doubling,
            "ring": collectives.allgather_ring,
            "auto": collectives.allgather,
        }

        def fn(view):
            result = yield from fns[algo](view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            for o in range(4):
                np.testing.assert_allclose(results[r][o], inputs[o])

    def test_ring_non_power_of_two(self):
        inputs = make_inputs(3, 50)

        def fn(view):
            result = yield from collectives.allgather(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn, size=3)
        for r in range(3):
            for o in range(3):
                np.testing.assert_allclose(results[r][o], inputs[o])


class TestReduceScatter:
    def test_blocks_match_reference(self):
        inputs = make_inputs(4, 400)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            block, bounds = yield from collectives.reduce_scatter_ring(
                view, inputs[view.rank]
            )
            return block, bounds

        results, _ = run_collective(fn)
        for r in range(4):
            block, (start, stop) = results[r]
            np.testing.assert_allclose(block, expected[start:stop], rtol=1e-12)

    def test_blocks_partition_vector(self):
        inputs = make_inputs(4, 403)  # non-divisible length

        def fn(view):
            block, bounds = yield from collectives.reduce_scatter_ring(
                view, inputs[view.rank]
            )
            return bounds

        results, _ = run_collective(fn)
        spans = sorted(results.values())
        assert spans[0][0] == 0
        assert spans[-1][1] == 403
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c


class TestBcast:
    @pytest.mark.parametrize("root", [0, 2])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_all_ranks_receive(self, root, size):
        if root >= size:
            pytest.skip("root outside communicator")
        data = np.arange(100.0)

        def fn(view):
            result = yield from collectives.bcast_binomial(
                view, data if view.rank == root else None, root=root
            )
            return result

        results, _ = run_collective(fn, size=size)
        for r in range(size):
            np.testing.assert_array_equal(results[r], data)

    def test_bad_root(self):
        def fn(view):
            result = yield from collectives.bcast_binomial(view, None, root=9)
            return result

        with pytest.raises(ValueError):
            run_collective(fn)


class TestReductionOp:
    """A reduction op must be a binary ufunc, checked before any message."""

    @pytest.mark.parametrize(
        "collective",
        [
            collectives.allreduce,
            collectives.allreduce_recursive,
            collectives.allreduce_ring,
            collectives.reduce_scatter_ring,
        ],
    )
    @pytest.mark.parametrize("op", [np.negative, "sum", np.divmod])
    def test_non_binary_op_rejected_before_first_message(self, collective, op):
        eng = Engine()
        comm = Communicator(UCXContext(eng, systems.beluga()), size=4)
        gen = collective(comm.view(0), np.arange(8.0), op=op)
        with pytest.raises(ValueError, match="op="):
            next(gen)
        assert comm.unmatched == (0, 0)
        assert comm.messages_matched == 0

    def test_unary_op_fails_the_collective(self):
        """np.negative used to read the received block as its out= and
        silently return a wrong sum."""

        def fn(view):
            result = yield from collectives.allreduce(
                view, np.arange(8.0), op=np.negative
            )
            return result

        with pytest.raises(ValueError, match="negative"):
            run_collective(fn)


class TestPayloadCopies:
    """Each message costs exactly one host copy (``payload_bytes_copied``)."""

    def _run(self, fn, size=4):
        eng = Engine()
        comm = Communicator(UCXContext(eng, systems.beluga()), size=size)
        results = {}

        def program(view):
            results[view.rank] = yield from fn(view)

        eng.run(until=comm.run_ranks(program))
        return comm, results

    def test_recursive_allreduce_copies_6n(self):
        inputs = make_inputs(4, 1024)
        n = inputs[0].nbytes

        def fn(view):
            result = yield from collectives.allreduce_recursive(view, inputs[view.rank])
            return result

        comm, results = self._run(fn)
        # Per rank: n/2 + n/4 scatter-reduce, n/4 + n/2 allgather.
        assert comm.stats_snapshot()["payload_bytes_copied"] == 6 * n
        for r in range(4):
            np.testing.assert_allclose(results[r], np.sum(inputs, axis=0), rtol=1e-12)

    def test_recursive_allreduce_leaves_input_alone(self):
        inputs = make_inputs(4, 1000)
        snapshot = [a.copy() for a in inputs]

        def fn(view):
            result = yield from collectives.allreduce_recursive(view, inputs[view.rank])
            return result

        _, results = self._run(fn)
        for r in range(4):
            np.testing.assert_array_equal(inputs[r], snapshot[r])
            assert not np.shares_memory(results[r], inputs[r])
            np.testing.assert_allclose(results[r], np.sum(snapshot, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("size,hops", [(4, 4), (5, 5)])
    def test_binomial_scatter_copies_each_block_once_per_hop(self, size, hops):
        # A block crosses as many tree edges as its virtual rank has set
        # bits: 1+1+2 on 4 ranks, 1+1+2+1 on 5.
        blocks = make_inputs(size, 64)
        snapshot = [b.copy() for b in blocks]

        def fn(view):
            result = yield from collectives.scatter_binomial(
                view, blocks if view.rank == 1 else None, root=1
            )
            return result

        comm, results = self._run(fn, size=size)
        assert comm.stats_snapshot()["payload_bytes_copied"] == hops * blocks[0].nbytes
        for r in range(size):
            np.testing.assert_array_equal(results[r], snapshot[r])
            assert not any(np.shares_memory(results[r], b) for b in blocks)

    @pytest.mark.parametrize("size,hops", [(4, 4), (5, 5)])
    def test_binomial_gather_copies_each_block_once_per_hop(self, size, hops):
        inputs = make_inputs(size, 64)
        snapshot = [a.copy() for a in inputs]

        def fn(view):
            result = yield from collectives.gather_binomial(
                view, inputs[view.rank], root=1
            )
            return result

        comm, results = self._run(fn, size=size)
        assert comm.stats_snapshot()["payload_bytes_copied"] == hops * inputs[0].nbytes
        for j in range(size):
            np.testing.assert_array_equal(inputs[j], snapshot[j])
            np.testing.assert_array_equal(results[1][j], snapshot[j])
            assert not any(np.shares_memory(results[1][j], a) for a in inputs)

    def test_bruck_alltoall_copies_4n(self):
        inputs = make_inputs(4, 1024)
        n = inputs[0].nbytes

        def fn(view):
            result = yield from collectives.alltoall_bruck(
                view, np.split(inputs[view.rank], 4)
            )
            return result

        comm, _ = self._run(fn)
        # Per rank: two rounds of two n/4 slots each.
        assert comm.stats_snapshot()["payload_bytes_copied"] == 4 * n

    def test_bruck_result_does_not_alias_blocks(self):
        blocks = [make_inputs(4, 16, seed=r) for r in range(4)]
        snapshot = [[b.copy() for b in row] for row in blocks]

        def fn(view):
            result = yield from collectives.alltoall_bruck(view, blocks[view.rank])
            return result

        _, results = self._run(fn)
        for row in blocks:
            for b in row:
                b[:] = -1.0
        for dst in range(4):
            for src in range(4):
                np.testing.assert_array_equal(results[dst][src], snapshot[src][dst])


class TestCollectiveTiming:
    def test_multipath_speeds_up_alltoall(self):
        elems = 1 << 21  # 2M doubles = 16 MiB per block
        blocks = [np.zeros(elems) for _ in range(4)]

        def fn(view):
            result = yield from collectives.alltoall(view, blocks)
            return result

        _, t_single = run_collective(fn, config=TransportConfig.single_path())
        _, t_multi = run_collective(
            fn, config=TransportConfig(include_host=False)
        )
        assert t_multi < t_single

    def test_allreduce_charges_compute(self):
        """Zero compute bandwidth config vs default: times differ."""
        elems = 1 << 20

        def fn(view):
            result = yield from collectives.allreduce(view, np.zeros(elems))
            return result

        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        slow = Communicator(ctx, reduce_bandwidth=1e9)
        results = {}

        def program(view):
            out = yield from fn(view)
            results[view.rank] = out

        eng.run(until=slow.run_ranks(program))
        t_slow = eng.now

        _, t_fast = run_collective(fn)
        assert t_slow > t_fast

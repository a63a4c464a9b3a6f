"""Tests for scatter / gather / reduce (binomial trees)."""

import numpy as np
import pytest

from repro.mpi import collectives
from tests.test_mpi_collectives import make_inputs, run_collective


class TestScatter:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    @pytest.mark.parametrize("root", [0, 1])
    def test_each_rank_gets_its_block(self, size, root):
        if root >= size:
            pytest.skip("root outside communicator")
        blocks = make_inputs(size, 64)

        def fn(view):
            result = yield from collectives.scatter_binomial(
                view, blocks if view.rank == root else None, root=root
            )
            return result

        results, _ = run_collective(fn, size=size)
        for r in range(size):
            np.testing.assert_allclose(results[r], blocks[r])

    def test_root_without_blocks_rejected(self):
        def fn(view):
            result = yield from collectives.scatter_binomial(view, None, root=0)
            return result

        with pytest.raises(ValueError):
            run_collective(fn, size=4)

    def test_bad_root(self):
        def fn(view):
            result = yield from collectives.scatter_binomial(view, None, root=7)
            return result

        with pytest.raises(ValueError):
            run_collective(fn, size=4)


class TestGather:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_root_collects_all(self, size):
        inputs = make_inputs(size, 32)

        def fn(view):
            result = yield from collectives.gather_binomial(
                view, inputs[view.rank], root=0
            )
            return result

        results, _ = run_collective(fn, size=size)
        gathered = results[0]
        assert all(results[r] is None for r in range(1, size))
        for j in range(size):
            np.testing.assert_allclose(gathered[j], inputs[j])

    def test_nonzero_root(self):
        inputs = make_inputs(4, 16)

        def fn(view):
            result = yield from collectives.gather_binomial(
                view, inputs[view.rank], root=2
            )
            return result

        results, _ = run_collective(fn, size=4)
        for j in range(4):
            np.testing.assert_allclose(results[2][j], inputs[j])


class TestReduce:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_sum_at_root(self, size):
        inputs = make_inputs(size, 128)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            result = yield from collectives.reduce_binomial(
                view, inputs[view.rank], root=0
            )
            return result

        results, _ = run_collective(fn, size=size)
        np.testing.assert_allclose(results[0], expected, rtol=1e-12)
        assert all(results[r] is None for r in range(1, size))

    def test_max_op(self):
        inputs = make_inputs(4, 64)
        expected = np.maximum.reduce(inputs)

        def fn(view):
            result = yield from collectives.reduce_binomial(
                view, inputs[view.rank], op=np.maximum, root=0
            )
            return result

        results, _ = run_collective(fn, size=4)
        np.testing.assert_allclose(results[0], expected)

    @pytest.mark.parametrize("op", [np.negative, "sum"])
    def test_non_binary_op_rejected(self, op):
        def fn(view):
            result = yield from collectives.reduce_binomial(
                view, np.arange(8.0), op=op, root=0
            )
            return result

        with pytest.raises(ValueError, match="op="):
            run_collective(fn, size=4)

    def test_mismatched_lengths_fail_the_root(self):
        """Children's blocks are received into a buffer shaped like the
        parent's own, so a length mismatch fails instead of broadcasting."""

        def fn(view):
            result = yield from collectives.reduce_binomial(
                view, np.zeros(1 if view.rank else 8), root=0
            )
            return result

        with pytest.raises(ValueError, match="8 bytes"):
            run_collective(fn, size=2)

    def test_scatter_then_gather_roundtrip(self):
        """scatter followed by gather reconstructs the root's blocks."""
        blocks = make_inputs(4, 48)

        def fn(view):
            mine = yield from collectives.scatter_binomial(
                view, blocks if view.rank == 0 else None, root=0
            )
            result = yield from collectives.gather_binomial(view, mine, root=0)
            return result

        results, _ = run_collective(fn, size=4)
        for j in range(4):
            np.testing.assert_allclose(results[0][j], blocks[j])

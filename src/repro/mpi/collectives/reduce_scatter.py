"""Ring reduce-scatter (the first phase of ring allreduce, exposed)."""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView
from repro.mpi.datatypes import check_op


def reduce_scatter_ring(view: RankView, array, op=np.add):
    """Each rank ends with its fully reduced block.

    Returns ``(block, (start, stop))`` where the slice bounds say which
    piece of the input vector this rank owns (the standard MPI block
    assignment: rank r owns block r).
    """
    check_op(op)
    buf = np.array(array, copy=True)
    if buf.ndim != 1:
        raise ValueError("reduce_scatter payloads must be 1-D")
    p, rank = view.size, view.rank
    bounds = np.linspace(0, buf.size, p + 1).astype(int)
    if p == 1:
        return buf, (0, buf.size)
    tag = view.next_collective_tag()

    def block(i):
        i %= p
        return buf[bounds[i] : bounds[i + 1]]

    right = (rank + 1) % p
    left = (rank - 1) % p
    scratch = np.empty(int(np.diff(bounds).max()), dtype=buf.dtype)
    # After p-1 steps, rank owns block (rank + 1) % p fully reduced; one
    # final neighbour shift moves ownership to block == rank.
    for s in range(p - 1):
        target = block(rank - s - 1)
        received = yield from view.sendrecv(
            right,
            left,
            payload=block(rank - s),
            tag=tag + s,
            out=scratch[: target.size],
        )
        op(target, received, out=target)
        yield from view.compute(int(received.nbytes))
    owned = (rank + 1) % p
    if owned != rank:
        # Block b sits on rank (b - 1) % p: ship mine to the rank that
        # needs it (rank + 1) and take mine from (rank - 1).
        yield from view.sendrecv(
            right, left, payload=block(owned), tag=tag + p, out=block(rank)
        )
    start, stop = int(bounds[rank]), int(bounds[rank + 1])
    return buf[start:stop].copy(), (start, stop)


__all__ = ["reduce_scatter_ring"]

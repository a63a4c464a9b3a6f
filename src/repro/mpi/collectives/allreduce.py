"""Allreduce algorithms.

:func:`allreduce_recursive` is the recursive-halving scatter-reduce +
recursive-doubling allgather scheme UCP picks for large messages (paper
§5.3, "recursive K-nomial scatter-reduce followed by K-nomial allgather";
radix 2).  It requires a power-of-two rank count; :func:`allreduce_ring`
handles any count.  :func:`allreduce` dispatches.

Reduction arithmetic is performed for real on the payloads (so tests can
check numerics) *and* charged as simulated GPU time via ``view.compute``.
The recursive scheme never copies its input: step 1 sends the partner half
straight from it and reduces the kept half into a fresh result vector.
Later partner blocks are received into one scratch array and reduced with
``op(keep, scratch, out=keep)``, and allgather blocks are received straight
into the result vector.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView
from repro.mpi.datatypes import check_op


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def allreduce(view: RankView, array, op=np.add):
    """Dispatch to the best algorithm for the communicator size."""
    if _is_power_of_two(view.size):
        result = yield from allreduce_recursive(view, array, op)
    else:
        result = yield from allreduce_ring(view, array, op)
    return result


def allreduce_recursive(view: RankView, array, op=np.add):
    """Recursive halving (scatter-reduce) + recursive doubling (allgather)."""
    check_op(op)
    if not _is_power_of_two(view.size):
        raise ValueError("recursive allreduce requires power-of-two ranks")
    src = np.asarray(array)
    if src.ndim != 1:
        raise ValueError("allreduce payloads must be 1-D")
    p, rank = view.size, view.rank
    tag = view.next_collective_tag()
    if p == 1:
        return src.copy()

    # Phase 1: recursive halving — each step trades half of the active
    # region with the partner and reduces the kept half.  Step 1 reads the
    # input and writes the result; later steps work in the result.  The
    # kept half is never longer than ceil(n/2), so one scratch array takes
    # every step.  The result's sent halves are filled by phase 2.
    buf = np.empty_like(src)
    scratch = np.empty((buf.size + 1) // 2, dtype=buf.dtype)
    data = src
    steps = []
    offset, count = 0, buf.size
    dist = p // 2
    step_id = 0
    while dist >= 1:
        partner = rank ^ dist
        half = count // 2
        if rank < partner:
            keep_off, keep_cnt = offset, half
            send_off, send_cnt = offset + half, count - half
        else:
            send_off, send_cnt = offset, half
            keep_off, keep_cnt = offset + half, count - half
        keep = buf[keep_off : keep_off + keep_cnt]
        received = yield from view.sendrecv(
            partner,
            partner,
            payload=data[send_off : send_off + send_cnt],
            tag=tag + step_id,
            out=scratch[:keep_cnt],
        )
        op(data[keep_off : keep_off + keep_cnt], received, out=keep)
        data = buf
        yield from view.compute(int(received.nbytes))
        steps.append((send_off, send_cnt, keep_off, keep_cnt, partner))
        offset, count = keep_off, keep_cnt
        dist //= 2
        step_id += 1

    # Phase 2: recursive doubling — replay in reverse, exchanging owned
    # regions so everyone reassembles the fully reduced vector.
    for send_off, send_cnt, keep_off, keep_cnt, partner in reversed(steps):
        yield from view.sendrecv(
            partner,
            partner,
            payload=buf[keep_off : keep_off + keep_cnt],
            tag=tag + step_id,
            out=buf[send_off : send_off + send_cnt],
        )
        step_id += 1
    return buf


def allreduce_ring(view: RankView, array, op=np.add):
    """Ring reduce-scatter + ring allgather (any rank count)."""
    check_op(op)
    buf = np.array(array, copy=True)
    if buf.ndim != 1:
        raise ValueError("allreduce payloads must be 1-D")
    p, rank = view.size, view.rank
    if p == 1:
        return buf
    tag = view.next_collective_tag()
    bounds = np.linspace(0, buf.size, p + 1).astype(int)

    def block(i):
        i %= p
        return buf[bounds[i] : bounds[i + 1]]

    right = (rank + 1) % p
    left = (rank - 1) % p
    scratch = np.empty(int(np.diff(bounds).max()), dtype=buf.dtype)

    # Reduce-scatter: after p-1 steps, rank owns the fully reduced block
    # (rank+1) % p.
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

    # Allgather: circulate the reduced blocks.
    for s in range(p - 1):
        yield from view.sendrecv(
            right,
            left,
            payload=block(rank - s + 1),
            tag=tag + p + s,
            out=block(rank - s),
        )
    return buf


__all__ = ["allreduce", "allreduce_recursive", "allreduce_ring"]

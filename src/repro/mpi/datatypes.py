"""Payload helpers for the MPI layer.

Messages either carry a real numpy payload (collectives operate on data so
tests can verify numerics against a reference) or are size-only (bandwidth
benchmarks move "bytes" without materialising buffers).
"""

from __future__ import annotations

import numpy as np


def payload_nbytes(payload, nbytes: int | None) -> int:
    """Resolve the wire size of a message.

    Exactly one of ``payload`` / ``nbytes`` determines the size; if both
    are given they must agree (catching benchmark-harness bugs).  Dict
    payloads (bundles of arrays, used by the tree collectives) count the
    sum of their values' sizes.
    """
    if payload is None:
        if nbytes is None:
            raise ValueError("either payload or nbytes is required")
        if nbytes < 0:
            raise ValueError("negative message size")
        return int(nbytes)
    if isinstance(payload, dict):
        size = int(sum(np.asarray(v).nbytes for v in payload.values()))
    else:
        size = int(np.asarray(payload).nbytes)
    if nbytes is not None and int(nbytes) != size:
        raise ValueError(f"nbytes={nbytes} disagrees with payload ({size} bytes)")
    return size


def copy_payload(payload):
    """Defensive copy so receiver-side mutation can't alias the sender."""
    if payload is None:
        return None
    if isinstance(payload, dict):
        return {k: np.array(v, copy=True) for k, v in payload.items()}
    return np.array(payload, copy=True)


def check_op(op) -> None:
    """Reject a reduction ``op`` that cannot reduce in place.

    Collectives reduce with ``op(acc, received, out=acc)``, so ``op`` must
    be a binary numpy ufunc (``np.add``, ``np.maximum``, ...).  A unary
    ufunc would read ``received`` as its ``out=`` and silently return a
    wrong reduction.
    """
    if not (isinstance(op, np.ufunc) and op.nin == 2 and op.nout == 1):
        raise ValueError(
            f"op={op!r} is not a binary numpy ufunc (e.g. np.add, np.maximum)"
        )


__all__ = ["payload_nbytes", "copy_payload", "check_op"]

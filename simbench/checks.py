"""Teardown checks that turn a simulated run into pass/fail operations.

Every check reads counters only, so running it cannot perturb a timeline.
An operation (a sweep point or a put stream) fails when any check fails.
"""

from __future__ import annotations


def teardown_failures(ctx, comm=None) -> list[str]:
    """Invariant violations of one drained simulation, as messages.

    * byte conservation in the transfer service: submitted bytes equal
      delivered + failed + shed + expired + rejected + cancelled, with
      nothing still in flight;
    * no live fabric flows and no load holds left on the load tracker;
    * no unmatched MPI messages;
    * no leaked pipeline streams.
    """
    out: list[str] = []
    b = ctx.transfers.stats_snapshot()["bytes"]
    accounted = (
        b["delivered"] + b["failed"] + b["shed"] + b["expired"]
        + b["rejected"] + b["cancelled"]
    )
    if b["submitted"] != accounted or b["inflight"] != 0:
        out.append(
            f"byte conservation: submitted {b['submitted']} != accounted "
            f"{accounted} (inflight {b['inflight']})"
        )
    live = ctx.runtime.fabric.active_flows
    if live:
        out.append(f"{live} fabric flows still live at teardown")
    load = ctx.transfers.load.stats_snapshot()
    if load["inflight_flows"] or load["inflight_bytes"]:
        out.append(
            f"load holds leaked: {load['inflight_flows']} flows / "
            f"{load['inflight_bytes']} bytes"
        )
    if comm is not None and comm.unmatched != (0, 0):
        out.append(f"unmatched messages (sends, recvs): {comm.unmatched}")
    leaked = ctx.pipeline.leaked_streams()
    if leaked:
        out.append(f"leaked streams: {leaked}")
    return out

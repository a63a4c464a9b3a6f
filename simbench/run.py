"""Run one benchmark workload and print its metrics as one JSON line.

    python3 simbench/run.py --workload bibw-sweep --seed 1 --seconds 15 --trace 0

Run it from the repository root: the simulator is imported from ``src/``.
Every run does a set-up, then a warm-up pass over the workload's
operations (the reference results), then cycles the operations for
``--seconds``.

* ``--trace 0`` prints the end-to-end metrics.  The timed phase is split
  into three segments with timed set-ups before the second and third, and
  ``setup_s`` is the median of all set-ups.
* ``--trace 1`` prints the per-layer ledger.  Each operation in the timed
  phase runs twice, untraced and then with span wrappers installed, so the
  tracing overhead is a paired comparison; one cProfile pass follows.  The
  traced and profiled runs must reproduce the reference results and layer
  counters exactly.  Spans are written to ``simbench/out/``.

Progress goes to stderr; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEGMENTS = 3  # timed segments of a --trace 0 run, with set-ups between them
SETUP_MIN_S = 1.0  # host seconds of set-ups before each later segment


def _rss_mib() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn) -> tuple[object, float]:
    t = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t


def run_pass(workload, *, collect_garbage: bool = False) -> list:
    """One pass over the operations, in order.

    With ``collect_garbage`` the cyclic garbage collector runs after each
    operation, so peak memory read afterwards is one operation's peak on
    top of the retained state, not however much garbage happened to pile
    up between collections.
    """
    results = []
    for op in workload.ops:
        results.append(workload.run_op(op))
        if collect_garbage:
            gc.collect()
    return results


class Phase:
    """Results of a timed phase over a workload's operations.

    ``first`` holds the warm-up pass's results, the reference every later
    run must reproduce exactly (the simulator is deterministic for a seed):
    a run that differs counts as failed.
    """

    def __init__(self, workload, first: list) -> None:
        self.workload = workload
        self.first = first
        self.attempted = sum(r.attempted for r in first)
        self.failed = sum(r.failed for r in first)
        self.failures = [f for r in first for f in r.failures]
        self.times: list[list[float]] = [[] for _ in first]
        self.traced_times: list[list[float]] = [[] for _ in first]
        self.setup_times: list[float] = []
        self.copies = 0
        self.timed_s = 0.0

    def check(self, k: int, r, label: str = "rerun") -> None:
        self.attempted += r.attempted
        ref = self.first[k]
        if (r.sim, r.counts) != (ref.sim, ref.counts):
            self.failures.append(
                f"{label} of op {self.workload.ops[k]} differs from the first pass"
            )
            self.failed += r.attempted
        else:
            self.failed += r.failed
        self.failures += r.failures

    def cycle(self, seconds: float, *, segments: int = 1, rec=None) -> None:
        """Cycle the operations for ``seconds``, at least one full pass.

        The time is split into ``segments`` equal parts.  Before each part
        after the first, set-ups are timed until they fill ``SETUP_MIN_S``
        (at least one), so both medians sample the whole run rather than
        one stretch of the host's speed, and a set-up that takes a tenth of
        a second is still a median of many.  With a span recorder each
        operation also runs traced, right after its untraced run; spans are
        kept for the first pass only.
        """
        from simbench.ledger import SpanRecorder, instrument

        ops, i = self.workload.ops, 0
        for segment in range(segments):
            spent = 0.0
            while segment and spent < SETUP_MIN_S:
                self.setup_times.append(_timed(self.workload.setup)[1])
                spent += self.setup_times[-1]
            last = segment == segments - 1
            start = time.perf_counter()
            while time.perf_counter() - start < seconds / segments or (
                last and i < len(ops)
            ):
                k = i % len(ops)
                r, dt = _timed(lambda: self.workload.run_op(ops[k]))
                self.times[k].append(dt)
                self.copies += r.copies
                self.check(k, r)
                if rec is not None:
                    spans = rec if i < len(ops) else SpanRecorder()
                    spans.current_op = k
                    with instrument(spans):
                        r, dt = _timed(lambda: self.workload.run_op(ops[k]))
                    self.traced_times[k].append(dt)
                    self.check(k, r, "traced run")
                i += 1
            self.timed_s += time.perf_counter() - start

    @staticmethod
    def pass_time(times: list[list[float]]) -> float:
        """Host time of one typical pass: the sum of per-op medians."""
        return sum(statistics.median(t) for t in times)


def measure(
    workload,
    seconds: float,
    trace: bool,
    out_dir: Path | None = None,
    base_rss: float | None = None,
):
    """Measure a workload; returns (metrics, attempted, failed, failures).

    ``metrics`` maps each metric name to ``(value, unit)``.  ``base_rss``
    is the resident size (MiB) before the workload made its inputs; peak
    memory is reported above it, read after one set-up and the warm-up pass
    so that it does not depend on the run length.
    """
    from simbench.ledger import (
        SpanRecorder, instrument, per_layer_metrics, profiled, sum_counts,
    )

    if base_rss is None:
        base_rss = _rss_mib()
    setup_spans = SpanRecorder()
    if trace:
        with instrument(setup_spans):
            workload.setup()
        setup_s = None
    else:
        setup_s = _timed(workload.setup)[1]
    print(f"[simbench] {workload.name}: set up", file=sys.stderr)
    gc.collect()
    phase = Phase(workload, run_pass(workload, collect_garbage=True))
    peak_rss = _peak_rss_mib() - base_rss
    rec = SpanRecorder() if trace else None
    phase.cycle(seconds, segments=1 if trace else SEGMENTS, rec=rec)
    sim, ref_attempted, ref_failed = workload.sim_metrics(phase.first)
    phase.attempted += ref_attempted
    phase.failed += ref_failed
    if not trace:
        metrics = {
            "wall_s": (phase.pass_time(phase.times), "s"),
            "setup_s": (statistics.median([setup_s, *phase.setup_times]), "s"),
            "copies_per_s": (phase.copies / phase.timed_s, "1/s"),
            "peak_rss_mib": (peak_rss, "MiB"),
            "sim_bw_gbps": (sim["sim_bw_gbps"], "GB/s"),
            "sim_speedup": (sim["sim_speedup"], "x"),
            "sim_p50_us": (sim["sim_p50_us"], "us"),
            "sim_p99_us": (sim["sim_p99_us"], "us"),
        }
        return metrics, phase.attempted, phase.failed, phase.failures

    print(f"[simbench] {workload.name}: profiled pass", file=sys.stderr)
    profiled_results, self_time = profiled(lambda: run_pass(workload))
    for k, r in enumerate(profiled_results):
        phase.check(k, r, "profiled run")
    metrics = per_layer_metrics(
        sum_counts(r.counts for r in phase.first),
        rec,
        self_time,
        traced_wall_s=phase.pass_time(phase.traced_times),
        untraced_wall_s=phase.pass_time(phase.times),
        setup_spans=setup_spans,
        candidates=workload.candidates,
        model_err_pct=sim["model_err_pct"],
    )
    if out_dir is not None:
        rec.write(
            out_dir / f"{workload.name}-seed{workload.seed}-spans.json",
            {"workload": workload.name, "seed": workload.seed,
             "setup": setup_spans.summary(),
             "self_time_profiled_s": self_time},
        )
    return metrics, phase.attempted, phase.failed, phase.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from simbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    base_rss = _rss_mib()
    workload = WORKLOADS[args.workload](args.seed)
    metrics, attempted, failed, failures = measure(
        workload, args.seconds, bool(args.trace), ROOT / "simbench" / "out",
        base_rss,
    )
    for line in failures[:20]:
        print(f"[simbench] FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

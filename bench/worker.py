"""One batch of one workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

Run from the root of a checkout.  Times ``import hitchin_supports.cli`` (what
every CLI invocation pays), runs the batch, and prints one JSON line: the
import time, each operation's result or error with its latency, the peak RSS
of this process and, with ``--trace 1``, the per-layer metrics of the batch.
Results are checked by the caller, outside the timed region.

The speed of the CPU drifts by 20 % and more over tens of seconds on a shared
host, so a ``SpeedProbe`` samples it while the batch runs; each latency is
reported both raw and scaled to a fixed CPU speed.  The import time is not
scaled: it did not follow the probe.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.001  # scaled times read as on a host where the kernel takes 1 ms
_KEYS = [(i % 97, i % 13, i % 7) for i in range(4096)]
_TABLE = dict.fromkeys(_KEYS, 0)


class SpeedProbe:
    """Every ``PROBE_INTERVAL_S`` a SIGALRM handler runs a fixed kernel of
    dict lookups and integer updates (about 1 ms) between two bytecodes of the
    batch, on the same CPU, and records how long it took.  The kernel
    allocates nothing, so it leaves the library's heap as it was."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        table = _TABLE
        for _ in range(2):
            for key in _KEYS:
                table[key] = (table[key] + 7) % 251
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, start: float, end: float) -> list[float]:
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def near(self, start: float, end: float, count: int = 10) -> list[float]:
        """The samples taken during [start, end), widened to the ``count``
        closest ones when the interval holds fewer."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        while hi - lo < count and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return self.durations[lo:hi]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the trace's spans here")
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, root)
    start = time.perf_counter()
    import hitchin_supports.cli  # noqa: F401  (the set-up being timed)

    setup_s = time.perf_counter() - start
    import hitchin_supports as hs

    if not os.path.abspath(hs.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"imported hitchin_supports from {hs.__file__}, not from this checkout")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from bench import workloads

    ops = workloads.inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from bench.tracer import Tracer

        tracer = Tracer()
        tracer.install(hs)
    items = []
    clock = time.perf_counter
    with SpeedProbe() as probe:
        for item, op in enumerate(ops):
            if tracer is not None:
                tracer.item = item
            t0 = clock()
            try:
                entry = {"result": workloads.run_op(hs, op)}
            except Exception as exc:  # counted as a failed operation by the caller
                entry = {"error": f"{type(exc).__name__}: {exc}"}
            entry["span"] = (t0, clock())
            items.append(entry)
    for entry in items:
        t0, t1 = entry.pop("span")
        # the probe's own time inside the operation is not the library's
        entry["latency_s"] = t1 - t0 - sum(probe.within(t0, t1))
        entry["scaled_s"] = entry["latency_s"] * PROBE_NOMINAL_S / statistics.mean(probe.near(t0, t1))
    out = {
        "setup_s": setup_s,
        "wall_s": sum(entry["latency_s"] for entry in items),
        "scaled_wall_s": sum(entry["scaled_s"] for entry in items),
        "probe_mean_s": statistics.mean(probe.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": items,
    }
    if tracer is not None:
        tracer.uninstall()
        from bench.tracer import layer_metrics

        out["layers"] = layer_metrics(tracer.spans, tracer.counts)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

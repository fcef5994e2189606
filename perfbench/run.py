"""The repository benchmark: one workload, one seed, one JSON verdict.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-table1 --seed 1 \\
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``sweep-table1`` — the Table 1 / Figure 1-2 sweeps, serial, fresh
  process per pass (kernel-bound; never touches serve or the store);
* ``mc-pool`` — fixed-count Monte-Carlo over the 9 randomized registry
  cells on ``process:2`` writing to a fresh result store;
* ``serve-mixed`` — ``repro serve`` driven open-loop at two fixed rates
  with a seeded mix of fresh and repeated requests.

``--trace 0`` reports the end-to-end metrics from untraced runs:
``setup_s``, ``peak_rss_mb``, ``ok_share`` (operations that succeeded
with correct output, over those attempted), ``ops_per_s`` (sweep points
/ Monte-Carlo trials per second; for serve, answers within the latency
limit per second at the ``hi`` rate) and ``p50_ms`` (median grid point /
trial batch / repeated request at the ``lo`` rate).  The sweep and Monte-Carlo times are
given at a reference host speed, calibrated alongside the work in the
same process (see ``common.Stopwatch``); the measured times are printed
beside them.
``--trace 1`` reruns the workload with spans installed around every
layer's entry points (from this directory's code; the program is not
modified), reports the per-layer metrics, the layer self times and the
tracing overhead, and writes the spans under ``.perfbench/``.

Human-readable results come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import log, program_present, use_program

WORKLOADS = ("sweep-table1", "mc-pool", "serve-mixed")
#: name -> unit of the end-to-end metrics every workload reports.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Started in the background, this process may inherit SIGINT as
    # ignored, and so would the server it stops with SIGINT.  A handled
    # signal is reset to its default in an exec'd child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not program_present():
        print("perfbench: no program to measure here (src/repro missing)",
              file=sys.stderr)
        return 2
    use_program()

    if args.workload == "sweep-table1":
        import sweep as workload
    elif args.workload == "mc-pool":
        import mc as workload
    else:
        import serve as workload
    if args.trace:
        from layers import PER_LAYER as units

        result = workload.run_traced(args.seed, args.seconds)
    else:
        units = END_TO_END
        result = workload.run(args.seed, args.seconds)

    metrics = result["metrics"]
    complete = metrics is not None and set(metrics) == set(units)
    correct = complete and result["failed"] == 0
    log(f"{args.workload} seed={args.seed}: "
        f"{'correct' if correct else 'FAILED'} "
        f"({result['failed']} of {result['attempted']} operations failed)")
    if not complete:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload ``sweep-table1``: the paper's Table 1 and Figure 1-2 sweeps.

Every ``table1/*``, ``fig1/*`` and ``fig2/*`` suite runs through
``repro.suites.run_suite`` on the default serial backend, with no cache
and no store, each pass in a fresh interpreter.  The work is fixed by
the paper (135 grid points); the seed permutes the suite order and
picks nothing else, so every seed does the same work.

Run as a script, this file is one pass (the child); imported, it is the
parent that runs passes until the time budget is used.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List

import passes
from common import Stopwatch, log, peak_rss_mb, use_program

SUITE_PREFIXES = ("table1/", "fig1/", "fig2/")
#: Fewest passes per run: two passes give 270 point latencies, enough
#: for p95 to have at least ten samples beyond it.
MIN_PASSES = 2


def suite_order(seed: int) -> List[str]:
    from repro.suites import suite_names

    names = [n for n in suite_names() if n.startswith(SUITE_PREFIXES)]
    random.Random(seed).shuffle(names)
    return names


# ----------------------------------------------------------------------
# child: one pass
# ----------------------------------------------------------------------
def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    use_program()
    from repro.registry import load_components
    from repro.suites import run_suite

    load_components()
    names = suite_order(args.seed)
    ready = time.perf_counter()
    out: Dict[str, object] = {"setup_s": ready - args.spawned}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    tracer = None
    if args.trace_dir:
        from spans import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)

    watch = Stopwatch()

    def progress(line: str) -> None:
        if line.startswith("["):  # one line per measured grid point
            watch.lap()

    results = []
    for name in names:
        watch.start()  # the suite's first point includes building it
        results.extend(run_suite(name, printer=None, progress=progress))
    watch.flush()
    if tracer is not None:
        tracer.dump()

    out.update(
        wall_s=sum(watch.ms) / 1000.0,
        ref_wall_s=sum(watch.ref_ms) / 1000.0,
        points=sum(len(r.points) for r in results),
        specs=len(results),
        point_ms=watch.ms,
        ref_point_ms=watch.ref_ms,
        rss_mb=peak_rss_mb(),
    )
    if args.check:
        out["check"] = check_first_points(results)
    print(json.dumps(out))
    return 0


def check_first_points(results) -> Dict[str, object]:
    """Every spec's first point against the uncompiled reference engine."""
    from repro.exec.backends import get_backend

    reference = get_backend("reference")
    mismatches = []
    for result in results:
        spec = result.spec
        param = spec.family.params[0]
        instance = spec.family.instance(param)
        want, _ = spec.measure_point_detailed(instance, param, reference)
        got = result.points[0].cost if result.points else None
        if got != want:
            mismatches.append(f"{spec.label}: {got!r} != reference {want!r}")
    return {"checked": len(results), "mismatches": mismatches}


# ----------------------------------------------------------------------
# parent side (see passes.py)
# ----------------------------------------------------------------------
SCRIPT = "sweep.py"
OPS_KEY = "points"
LATENCY_KEY = "point_ms"


def expected_ops() -> int:
    from repro.suites import get_suite

    return sum(
        len(spec.family.params)
        for name in suite_order(0) for spec in get_suite(name).build()
    )


def pass_failures(result: dict, expected: int) -> int:
    return int(
        result["points"] != expected
        or len(result["point_ms"]) != result["points"]
    )


def report(summary: dict, runs: dict, label: str) -> None:
    for error in runs["errors"]:
        log(f"sweep-table1{label}: child failed:\n{error}")
    if "wall_s" not in summary:
        return
    walls = ", ".join(f"{w:.3f}" for w in summary["walls"])
    log(f"sweep-table1{label}: {len(runs['passes'])} fresh-process "
        f"passes of {summary['expected']} points (walls {walls} s)")
    log(f"  (measured; at reference host speed)")
    log(f"  sweep.wall_s        = {summary['wall_s']:.4f} s; "
        f"{summary['ref_wall_s']:.4f} s")
    log(f"  points/s            = {summary['ops_per_s']:.3f} 1/s; "
        f"{summary['ref_ops_per_s']:.3f} 1/s")
    log(f"  point p50 / p95     = {summary['p50_ms']:.3f} / "
        f"{summary['p95_ms']:.3f} ms; {summary['ref_p50_ms']:.3f} / "
        f"{summary['ref_p95_ms']:.3f} ms over {summary['samples']} points")
    log(f"  setup_s             = {summary['setup_s']:.4f} s "
        f"(median of {len(runs['setups'])})")
    log(f"  peak_rss_mb         = {summary['peak_rss_mb']:.2f} MB")
    log(f"  fail_share          = "
        f"{summary['failed'] / summary['attempted']:.4f} share")
    verdict = "ok" if not summary["mismatches"] else "FAILED"
    log(f"  check first point of {summary['checked']} specs == reference "
        f"backend: {verdict}")
    for line in summary["mismatches"]:
        log(f"    {line}")


def run(seed: int, seconds: float) -> dict:
    return passes.run(sys.modules[__name__], seed, seconds)


def run_traced(seed: int, seconds: float) -> dict:
    return passes.run_traced(sys.modules[__name__], "sweep-table1", seed)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

"""Parent side of the workloads measured in fresh-process passes.

``sweep-table1`` and ``mc-pool`` each run their fixed work in a child
interpreter (one *pass*), so every pass pays and measures the same
set-up a user's fresh ``repro`` process pays.  The parent runs passes
until the time budget is used, then reports medians over them; the first
pass also runs the workload's output check after its timed work.

A workload module provides ``SCRIPT`` (its child, in this directory),
``MIN_PASSES``, ``OPS_KEY`` / ``LATENCY_KEY`` (the child's work count
and per-operation latencies), ``pass_failures(result, expected)``,
``expected_ops()`` and ``report(summary, runs, label)``.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import count_tracebacks, fresh_dir, median, percentile, run_child

MIN_SETUPS = 3
CHILD_TIMEOUT = 150.0


def spawn(workload, seed: int, *flags: str):
    # perf_counter is CLOCK_MONOTONIC, one clock for every process, so
    # the child measures its set-up from this moment.
    return run_child(
        workload.SCRIPT,
        ["--seed", str(seed), "--spawned", repr(time.perf_counter()),
         *flags],
        timeout=CHILD_TIMEOUT,
    )


def run_passes(workload, seed: int, seconds: float, trace_dir=None) -> dict:
    """Passes until ``seconds`` is used (at least ``MIN_PASSES``).

    With ``trace_dir`` exactly one traced pass runs, so its spans cover
    the workload's fixed work once.
    """
    passes, setups, errors = [], [], []
    tracebacks = 0
    started = time.perf_counter()
    while True:
        flags = [] if passes else ["--check"]
        if trace_dir is not None:
            flags += ["--trace-dir", str(trace_dir)]
        result, err = spawn(workload, seed, *flags)
        tracebacks += count_tracebacks(err)
        if result is None:
            errors.append(err.strip()[-2000:])
            break
        passes.append(result)
        setups.append(result["setup_s"])
        if trace_dir is not None:
            break
        elapsed = time.perf_counter() - started
        if len(passes) >= workload.MIN_PASSES and (
            elapsed + elapsed / len(passes) > seconds
        ):
            break
    while len(setups) < MIN_SETUPS and not errors:
        result, err = spawn(workload, seed, "--setup-only")
        tracebacks += count_tracebacks(err)
        if result is None:
            errors.append(err.strip()[-2000:])
            break
        setups.append(result["setup_s"])
    return {
        "passes": passes, "setups": setups, "errors": errors,
        "tracebacks": tracebacks,
    }


def summarize(workload, runs: dict) -> dict:
    """Failures, check verdicts and medians over a run's passes."""
    passes = runs["passes"]
    expected = workload.expected_ops()
    attempted = sum(p[workload.OPS_KEY] for p in passes) or 1
    failed = len(runs["errors"]) + runs["tracebacks"]
    mismatches: List[str] = []
    checked = 0
    for p in passes:
        failed += workload.pass_failures(p, expected)
        check = p.get("check")
        if check is not None:
            checked += check["checked"]
            mismatches += check["mismatches"]
    summary = {
        "attempted": attempted + checked,
        "failed": failed + len(mismatches),
        "mismatches": mismatches,
        "checked": checked,
        "expected": expected,
    }
    if passes:
        summary.update(
            setup_s=median(runs["setups"]),
            peak_rss_mb=median([p["rss_mb"] for p in passes]),
            samples=sum(len(p[workload.LATENCY_KEY]) for p in passes),
            walls=[p["wall_s"] for p in passes],
        )
        # "ref_" figures are at reference host speed (common.Stopwatch)
        for prefix in ("", "ref_"):
            latencies = [
                ms for p in passes for ms in p[prefix + workload.LATENCY_KEY]
            ]
            summary.update({
                prefix + "wall_s": median(
                    [p[prefix + "wall_s"] for p in passes]
                ),
                prefix + "ops_per_s": median(
                    [p[workload.OPS_KEY] / p[prefix + "wall_s"]
                     for p in passes]
                ),
                prefix + "p50_ms": percentile(latencies, 50),
                prefix + "p95_ms": percentile(latencies, 95),
            })
    return summary


def end_to_end(summary: dict) -> Dict[str, float]:
    return {
        "setup_s": summary["setup_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "ok_share": 1.0 - summary["failed"] / summary["attempted"],
        "ops_per_s": summary["ref_ops_per_s"],
        "p50_ms": summary["ref_p50_ms"],
    }


def run(workload, seed: int, seconds: float) -> dict:
    runs = run_passes(workload, seed, seconds)
    summary = summarize(workload, runs)
    workload.report(summary, runs, "")
    return {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": end_to_end(summary) if "wall_s" in summary else None,
    }


def run_traced(workload, name: str, seed: int) -> dict:
    """Untraced passes, then one traced pass for the per-layer numbers."""
    import layers

    plain = summarize(workload, run_passes(workload, seed, 0))
    trace_dir = fresh_dir(f"trace-{name}-{seed}")
    traced_runs = run_passes(workload, seed, 0, trace_dir=trace_dir)
    traced = summarize(workload, traced_runs)
    workload.report(traced, traced_runs, " (traced)")
    return layers.traced_result(name, trace_dir, plain, traced, end_to_end)

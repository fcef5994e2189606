"""Workload ``mc-pool``: fixed-count Monte-Carlo on a two-worker pool.

``montecarlo.engine.run_trials`` runs 64 trials (batches of 16, early
stopping off) on each of the 9 randomized registry cells at its largest
quick parameter, on ``process:2`` (one worker per core, shared-memory
transport) and writing every batch to a fresh ``ResultStore``: 576
trials per pass, each pass in a fresh interpreter.  The seed draws each
cell's base seed, so every seed runs different trials of the same size.

Run as a script, this file is one pass (the child); imported, it is the
parent that runs passes until the time budget is used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from typing import Dict, List

import passes
from common import Stopwatch, fresh_dir, log, peak_rss_mb, use_program

TRIALS = 64
BATCH = 16
BACKEND = "process:2"
#: Fewest passes per run: six passes give 216 batch latencies, enough
#: for p95 to have at least ten samples beyond it.
MIN_PASSES = 6


def cells():
    from repro.registry import iter_compatible

    return [c for c in iter_compatible() if c.algorithm.randomized]


def plan(seed: int, count: int):
    """Per cell: (base seed, index of the batch re-checked serially)."""
    rng = random.Random(seed)
    return [
        (rng.randrange(1 << 20), rng.randrange(TRIALS // BATCH))
        for _ in range(count)
    ]


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
    from repro.corpus import ResultStore
    from repro.exec import published_segments
    from repro.exec.backends import get_backend
    from repro.montecarlo.engine import TrialPolicy

    chosen = cells()
    instances = [c.family.instance(c.family.quick[-1]) for c in chosen]
    seeds = plan(args.seed, len(chosen))
    store_dir = fresh_dir(f"mc-store-{os.getpid()}")
    store = ResultStore(store_dir / "results.sqlite")
    ready = time.perf_counter()
    out: Dict[str, object] = {"setup_s": ready - args.spawned}
    if args.setup_only:
        shutil.rmtree(store_dir)
        print(json.dumps(out))
        return 0
    tracer = None
    if args.trace_dir:
        from spans import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)
    import repro.montecarlo.engine as engine  # after install: traced

    policy = TrialPolicy(
        min_trials=1, max_trials=TRIALS, batch_size=BATCH, early_stop=False
    )
    backend = get_backend(BACKEND)
    results = []
    watch = Stopwatch()
    try:
        for cell, instance, (base_seed, _) in zip(chosen, instances, seeds):
            watch.start()  # a cell's first batch includes its set-up
            results.append(engine.run_trials(
                cell.problem.make(), instance, cell.algorithm.make(),
                policy, base_seed=base_seed, backend=backend, store=store,
                progress=lambda line: watch.lap(),  # once per batch
            ))
        watch.flush()
        faults = len(backend.fault_log)
    finally:
        backend.close()
    if tracer is not None:
        tracer.dump()
    rows = store.summary()["trials"]
    shutil.rmtree(store_dir)
    out.update(
        wall_s=sum(watch.ms) / 1000.0,
        ref_wall_s=sum(watch.ref_ms) / 1000.0,
        trials=sum(r.trials for r in results),
        batch_ms=watch.ms,
        ref_batch_ms=watch.ref_ms,
        fault_events=faults,
        store_trial_rows=rows,
        leaked_segments=len(published_segments()),
        rss_mb=peak_rss_mb(include_children=True),
        rates=[r.rate for r in results],
    )
    if args.check:
        out["check"] = check_batches(chosen, instances, seeds, results)
    print(json.dumps(out))
    return 0


def check_batches(chosen, instances, seeds, results) -> Dict[str, object]:
    """One sampled batch per cell, re-run serially, must match bitwise."""
    from repro.exec.backends import FixedInstanceFactory, SerialBackend

    serial = SerialBackend()
    mismatches = []
    for cell, instance, (base_seed, batch), result in zip(
        chosen, instances, seeds, results
    ):
        trials = range(batch * BATCH, (batch + 1) * BATCH)
        want = serial.run_trial_batch(
            cell.problem.make(), FixedInstanceFactory(instance),
            cell.algorithm.make(), trials, base_seed=base_seed,
        )
        got = result.outcomes[trials.start:trials.stop]
        if [repr(o) for o in got] != [repr(o) for o in want]:
            mismatches.append(
                f"{cell.algorithm.name} @ {cell.family.name} batch {batch}"
            )
    return {"checked": len(chosen), "mismatches": mismatches}


# ----------------------------------------------------------------------
# parent side (see passes.py)
# ----------------------------------------------------------------------
SCRIPT = "mc.py"
OPS_KEY = "trials"
LATENCY_KEY = "batch_ms"


def expected_ops() -> int:
    return len(cells()) * TRIALS


def pass_failures(result: dict, expected: int) -> int:
    return int(
        result["trials"] != expected
        or result["store_trial_rows"] != expected
    ) + int(result["leaked_segments"] > 0)


def report(summary: dict, runs: dict, label: str) -> None:
    for error in runs["errors"]:
        log(f"mc-pool{label}: child failed:\n{error}")
    if "wall_s" not in summary:
        return
    walls = ", ".join(f"{w:.3f}" for w in summary["walls"])
    done = runs["passes"]
    log(f"mc-pool{label}: {len(done)} fresh-process passes of "
        f"{summary['expected']} trials on {BACKEND} (walls {walls} s)")
    log(f"  (measured; at reference host speed)")
    log(f"  mc.trials_per_s     = {summary['ops_per_s']:.3f} 1/s; "
        f"{summary['ref_ops_per_s']:.3f} 1/s")
    log(f"  batch p50 / p95     = {summary['p50_ms']:.3f} / "
        f"{summary['p95_ms']:.3f} ms; {summary['ref_p50_ms']:.3f} / "
        f"{summary['ref_p95_ms']:.3f} ms over {summary['samples']} batches")
    log(f"  setup_s             = {summary['setup_s']:.4f} s "
        f"(median of {len(runs['setups'])})")
    log(f"  peak_rss_mb         = {summary['peak_rss_mb']:.2f} MB")
    log(f"  fail_share          = "
        f"{summary['failed'] / summary['attempted']:.4f} share")
    log(f"  counts per pass: trials {[p['trials'] for p in done]}, store "
        f"trial rows {[p['store_trial_rows'] for p in done]}, fault-log "
        f"events {[p['fault_events'] for p in done]}, leaked shm segments "
        f"{[p['leaked_segments'] for p in done]}")
    verdict = "ok" if not summary["mismatches"] else "FAILED"
    log(f"  check one batch per cell ({summary['checked']} cells) == serial "
        f"backend, bitwise: {verdict}")
    for line in summary["mismatches"]:
        log(f"    {line}")


def run(seed: int, seconds: float) -> dict:
    return passes.run(sys.modules[__name__], seed, seconds)


def run_traced(seed: int, seconds: float) -> dict:
    return passes.run_traced(sys.modules[__name__], "mc-pool", seed)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

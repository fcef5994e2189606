"""Per-layer metrics computed from a traced run's spans.

A layer is a module of the program.  Counts are outermost calls (a call
nested in a call of the same name is part of it); ``*_ms`` metrics are
the total duration of those calls over the traced run's fixed work,
except ``montecarlo.engine.self_ms``, which is self time.  Layers a
workload never reaches report 0: that is the measured bypass.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import WORK, log, median
from spans import load_spans, self_times

#: name -> unit, in BENCHMARK.json order.
PER_LAYER: Dict[str, str] = {
    "serve.http.requests": "count",
    "serve.http.parse_ms": "ms",
    "serve.service.resolve_ms": "ms",
    "serve.service.executions": "count",
    "serve.scheduler.wait_ms": "ms",
    "serve.scheduler.batch_mean": "count",
    "serve.scheduler.coalesced": "count",
    "serve.scheduler.rejected": "count",
    "corpus.results.reads": "count",
    "corpus.results.read_ms": "ms",
    "corpus.results.hit_ratio": "ratio",
    "corpus.results.writes": "count",
    "corpus.results.write_ms": "ms",
    "corpus.results.trial_writes": "count",
    "corpus.results.trial_write_ms": "ms",
    "graphs.builds": "count",
    "graphs.build_ms": "ms",
    "graphs.distinct_ratio": "ratio",
    "model.oracle.compiles": "count",
    "model.oracle.compile_ms": "ms",
    "model.oracle.compiles_per_instance": "ratio",
    "model.batched.kernel_builds": "count",
    "model.batched.kernel_ms": "ms",
    "model.probe.executions": "count",
    "model.probe.execute_ms": "ms",
    "model.runner.solve_ms": "ms",
    "model.runner.executions": "count",
    "lcl.verifier.calls": "count",
    "lcl.verifier.verify_ms": "ms",
    "adversary.engine.run_ms": "ms",
    "adversary.engine.verify_ms": "ms",
    "exec.sweep.points": "count",
    "exec.sweep.point_ms": "ms",
    "exec.backends.run_calls": "count",
    "exec.backends.run_ms": "ms",
    "exec.backends.trial_batches": "count",
    "exec.backends.trial_batch_ms": "ms",
    "exec.backends.retries": "count",
    "exec.shm.publishes": "count",
    "exec.shm.publish_ms": "ms",
    "exec.shm.bytes_published": "bytes",
    "montecarlo.engine.trials": "count",
    "montecarlo.engine.batches": "count",
    "montecarlo.engine.self_ms": "ms",
}

COMPUTE_PATHS = ("/solve", "/mc", "/adversary")


def _attr(span: dict, name: str, default=None):
    return (span.get("attrs") or {}).get(name, default)


def per_layer(spans: List[dict]) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one run's spans."""
    outer: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if not _attr(span, "nested"):
            outer[span["name"]].append(span)
    selfs = self_times(spans)

    def count(name: str) -> int:
        return len(outer[name])

    def total_ms(name: str) -> float:
        return 1000.0 * sum(s["end"] - s["start"] for s in outer[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reads = outer["corpus.results.read"]
    builds = outer["graphs.build"]
    compiles = outer["model.oracle.compile"]
    batches = [_attr(s, "size", 0) for s in outer["serve.scheduler.batch"]]
    jobs = outer["serve.scheduler.job"]
    hit_jobs = {
        s["parent"] for s in reads if _attr(s, "hit") and s["parent"]
    }
    run_trials = outer["montecarlo.engine.run_trials"]
    run_trial_ids = {s["id"] for s in run_trials}
    return {
        "serve.http.requests": count("serve.request"),
        "serve.http.parse_ms": total_ms("serve.http.parse")
        + total_ms("serve.http.body"),
        "serve.service.resolve_ms": total_ms("serve.service.resolve"),
        "serve.service.executions": len(
            [j for j in jobs if j["id"] not in hit_jobs]
        ),
        "serve.scheduler.wait_ms": total_ms("serve.scheduler.wait"),
        "serve.scheduler.batch_mean": ratio(sum(batches), len(batches)),
        "serve.scheduler.coalesced": count("serve.scheduler.coalesced"),
        "serve.scheduler.rejected": count("serve.scheduler.rejected"),
        "corpus.results.reads": len(reads),
        "corpus.results.read_ms": total_ms("corpus.results.read"),
        "corpus.results.hit_ratio": ratio(
            len([s for s in reads if _attr(s, "hit")]), len(reads)
        ),
        "corpus.results.writes": count("corpus.results.write"),
        "corpus.results.write_ms": total_ms("corpus.results.write"),
        "corpus.results.trial_writes": count("corpus.results.trial_write"),
        "corpus.results.trial_write_ms": total_ms(
            "corpus.results.trial_write"
        ),
        "graphs.builds": len(builds),
        "graphs.build_ms": 1000.0 * sum(s["end"] - s["start"] for s in builds),
        "graphs.distinct_ratio": ratio(
            len({_attr(s, "build") for s in builds}), len(builds)
        ),
        "model.oracle.compiles": len(compiles),
        "model.oracle.compile_ms": total_ms("model.oracle.compile"),
        "model.oracle.compiles_per_instance": ratio(
            len(compiles),
            len({(s["pid"], _attr(s, "instance")) for s in compiles}),
        ),
        "model.batched.kernel_builds": count("model.batched.kernel_build"),
        "model.batched.kernel_ms": total_ms("model.batched.kernel"),
        "model.probe.executions": count("model.probe.execute"),
        "model.probe.execute_ms": total_ms("model.probe.execute"),
        "model.runner.solve_ms": total_ms("model.runner.solve"),
        "model.runner.executions": count("model.runner.run"),
        "lcl.verifier.calls": count("lcl.verifier.verify"),
        "lcl.verifier.verify_ms": total_ms("lcl.verifier.verify"),
        "adversary.engine.run_ms": total_ms("adversary.engine.run"),
        "adversary.engine.verify_ms": total_ms("adversary.engine.verify"),
        "exec.sweep.points": sum(
            _attr(s, "points", 0) for s in outer["exec.sweep.run"]
        ),
        "exec.sweep.point_ms": total_ms("exec.sweep.point"),
        "exec.backends.run_calls": count("exec.backends.run"),
        "exec.backends.run_ms": total_ms("exec.backends.run"),
        "exec.backends.trial_batches": count("exec.backends.trial_batch"),
        "exec.backends.trial_batch_ms": total_ms(
            "exec.backends.trial_batch"
        ),
        "exec.backends.retries": sum(
            _attr(s, "events", 0) for s in outer["exec.backends.fault"]
        ),
        "exec.shm.publishes": count("exec.shm.publish"),
        "exec.shm.publish_ms": total_ms("exec.shm.publish"),
        "exec.shm.bytes_published": sum(
            _attr(s, "bytes", 0) for s in outer["exec.shm.publish"]
        ),
        "montecarlo.engine.trials": sum(
            _attr(s, "trials", 0) for s in run_trials
        ),
        "montecarlo.engine.batches": len(
            [s for s in outer["exec.backends.trial_batch"]
             if s["parent"] in run_trial_ids]
        ),
        "montecarlo.engine.self_ms": 1000.0 * sum(
            selfs[s["id"]] for s in run_trials
        ),
    }


def self_by_layer(spans: List[dict]) -> Dict[str, float]:
    """Total self time per layer, in ms."""
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["layer"]] += 1000.0 * selfs[span["id"]]
    return dict(out)


def request_roots(spans: List[dict]) -> Dict[str, List[dict]]:
    """Root spans of compute requests, by request key, in start order."""
    roots: Dict[str, List[dict]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s["start"]):
        if (
            span["name"] == "serve.request"
            and _attr(span, "path") in COMPUTE_PATHS
        ):
            roots[span["key"]].append(span)
    return roots


def layer_self_ms(children, selfs, root: dict) -> Dict[str, float]:
    """Self ms per layer over the span tree under ``root``."""
    layers: Dict[str, float] = defaultdict(float)
    stack = [root]
    while stack:
        span = stack.pop()
        layers[span["layer"]] += 1000.0 * selfs[span["id"]]
        stack.extend(children.get(span["id"], ()))
    return dict(layers)


def filter_window(spans: List[dict], window) -> List[dict]:
    low, high = window
    return [s for s in spans if low <= s["start"] <= high]


def traced_result(
    workload: str,
    trace_dir: Path,
    plain: dict,
    traced: dict,
    end_to_end: Callable[[dict], Dict[str, float]],
    window=None,
    extra: Optional[Callable[[List[dict]], None]] = None,
) -> dict:
    """Per-layer metrics, self times and tracing overhead of one run.

    ``plain`` and ``traced`` summarize the untraced and the traced run of
    the same work; ``window`` keeps the spans that start inside it.
    """
    spans = load_spans(trace_dir)
    if window is not None:
        spans = filter_window(spans, window)
    metrics = per_layer(spans)
    self_ms = self_by_layer(spans)
    log(f"{workload}: {len(spans)} spans from "
        f"{trace_dir.relative_to(WORK.parent)}")
    log("  self time by layer (ms, whole traced work):")
    for layer, ms in sorted(self_ms.items()):
        log(f"    {layer:22s} {ms:12.3f}")
    log("  per-layer metrics:")
    for name in PER_LAYER:
        log(f"    {name:38s} {metrics[name]:14.4f} {PER_LAYER[name]}")
    if extra is not None:
        extra(spans)
    overhead = {}
    try:
        base, with_trace = end_to_end(plain), end_to_end(traced)
    except (KeyError, TypeError):
        base = with_trace = {}
        log("  tracing overhead: a run is incomplete, not computed")
    if base:
        log("  tracing overhead (traced - untraced):")
    for name, value in base.items():
        diff = with_trace[name] - value
        overhead[name] = diff
        share = diff / value if value else 0.0
        log(f"    {name:14s} {value:12.4f} -> {with_trace[name]:12.4f}"
            f"  ({diff:+.4f}, {share:+.1%})")
    (trace_dir / "layers.json").write_text(json.dumps(
        {"workload": workload, "per_layer": metrics,
         "self_ms_by_layer": self_ms, "tracing_overhead": overhead},
        indent=1,
    ) + "\n")
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def blocking_path(spans: List[dict], requests, tolerance: float) -> bool:
    """Do the layer self times along each request add up to its latency?

    ``requests`` holds ``(key, due, sent, latency_ms)`` per answered
    request of the step, from the client.  Each is matched to the first
    server root span with its key that starts after it was sent.  The
    client's own layer is the time from the scheduled send to the send
    (generator lateness plus waiting for a free connection); the
    server's layers run from the arrival of the request head to the end
    of rendering the response; the rest is transport and parsing the
    response in the client.
    """
    roots = request_roots(spans)
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    selfs = self_times(spans)
    rows = []
    for key, due, sent, latency_ms in requests:
        candidates = [r for r in roots.get(key, ()) if r["start"] >= sent]
        if not candidates:
            continue
        root = candidates[0]
        roots[key].remove(root)
        layers = layer_self_ms(children, selfs, root)
        layers["client.send"] = 1000.0 * (sent - due)
        rows.append((latency_ms, layers))
    if len(rows) < len(requests) * 0.9:
        log(f"  blocking path: matched only {len(rows)} of {len(requests)} "
            f"requests to server spans")
        return False
    names = sorted({name for _, layers in rows for name in layers})
    log(f"  blocking path of {len(rows)} lo-step requests "
        f"(mean self ms per request):")
    for name in names:
        mean = sum(layers.get(name, 0.0) for _, layers in rows) / len(rows)
        log(f"    {name:22s} {mean:10.3f}")
    latency = median([lat for lat, _ in rows])
    accounted = median([sum(layers.values()) for _, layers in rows])
    rest = median([lat - sum(layers.values()) for lat, layers in rows])
    gap = abs(latency - accounted) / latency
    ok = gap <= tolerance
    log(f"  median per-request layer sum {accounted:.3f} ms vs median "
        f"latency {latency:.3f} ms (transport and client parsing, median "
        f"{rest:.3f} ms): gap {gap:.1%}, tolerance {tolerance:.0%} -> "
        f"{'ok' if ok else 'OUTSIDE TOLERANCE'}")
    return ok

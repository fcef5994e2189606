"""Workload ``serve-mixed``: ``repro serve`` under an open-loop request mix.

A ``repro serve`` child (default ``batch`` backend, 5 ms batch window,
fresh result store) is driven from this process over two keep-alive
connections.  Requests go out on a fixed schedule whether or not
earlier ones have returned (open loop), and each latency counts from the
request's scheduled send time, so a stall delays every later request.
Two fixed-rate steps run back to back on the same server: ``lo`` and
``hi``, the latter below the rate where a backlog starts to grow.

The request stream is drawn here from the registry (see
:func:`build_streams`): in every step one fresh solve and one fresh
Monte-Carlo request per registry cell at its smallest quick parameter,
a few adversary requests, and repeats of earlier descriptors for the
rest, about 0.55 of all requests.  Repeats take the store-read path;
fresh requests take resolve -> instance build -> kernel -> store write.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    child_env,
    count_tracebacks,
    fresh_dir,
    log,
    median,
    percentile,
    vm_hwm_mb,
)

RATES = {"lo": 10.0, "hi": 15.0}  # requests per second
#: Share of the ``seconds`` budget each step is sized for.
STEP_SHARE = {"lo": 0.6, "hi": 0.4}
#: Fewest requests per step: p95 then has at least ten samples beyond it.
MIN_REQUESTS = 200
ADVERSARY_SHARE = 0.05
#: Seed of the stream layout (which kind and cell goes where), fixed so
#: that every workload seed puts the same work in the same places.
LAYOUT_SEED = 20200603
CONNECTIONS = 2
#: The latency limit of ``serve.hi.slo_share``.
LATENCY_LIMIT_MS = 100.0
#: A step is invalid when the generator's p99 lateness exceeds this
#: share of the gap between two scheduled sends: the offered load was
#: then not the stated rate.
LATENESS_LIMIT_SHARE = 0.5
REQUEST_TIMEOUT = 10.0
#: A step ends this long after its last scheduled send, answered or not.
STEP_GRACE = 30.0
SETUPS = 5
#: Solve bodies re-derived in-process and compared with the served ones.
SOLVE_CHECKS = 8
#: Allowed gap between the traced per-request layer sum and lo p50.  The
#: gap is loopback transport and response parsing in the client, which
#: no server layer sees: about 1 ms of an 11-12 ms median.
BLOCKING_TOLERANCE = 0.2
#: Two trials per /mc request: the costliest cells then take ~0.2 s
#: instead of ~0.8 s, so one of them stalls the single compute lane for a
#: request or two, not for the tail of the whole step.
MC_POLICY = {"min_trials": 2, "max_trials": 2, "batch_size": 2,
             "early_stop": False}


# ----------------------------------------------------------------------
# the request stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Req:
    path: str
    body: bytes


def _descriptor(path: str, item, rng: random.Random) -> Req:
    if path == "/adversary":
        payload = {"adversary": item.name, "budget": min(item.quick),
                   "verify": True}
    else:
        payload = {"algorithm": item.algorithm.name,
                   "family": item.family.name,
                   "param": repr(item.family.quick[0]),
                   "seed": rng.randrange(1 << 30)}
        if path == "/mc":
            payload["policy"] = dict(MC_POLICY)
    return Req(path, json.dumps(payload, sort_keys=True).encode())


def build_streams(seed: int, sizes: Dict[str, int]):
    """Warm-up requests plus one stream per step.

    Every step sends one fresh ``/solve`` and one fresh ``/mc`` request
    per registry cell, ``ADVERSARY_SHARE`` adversary requests, and fills
    the rest with repeats of earlier descriptors.  A few cells cost
    hundreds of milliseconds and stall the single compute lane, so where
    they sit in the stream sets the tail; that layout is drawn from
    ``LAYOUT_SEED`` and is the same for every workload seed.  The
    workload seed draws each request's trial seed and which earlier
    descriptor each repeat re-sends.
    """
    from repro.registry import ADVERSARIES, iter_compatible

    cells = list(iter_compatible())
    adversaries = list(ADVERSARIES)
    rng = random.Random(seed)
    layout = random.Random(LAYOUT_SEED)
    # Warm-up: fresh solve and mc requests that the steps never repeat,
    # so lazy imports and first-use set-up are paid before timing.
    warm = [_descriptor(path, cells[0], rng) for path in ("/solve", "/mc")]
    history: List[Req] = []
    streams = {}
    for step, count in sizes.items():
        fresh = {
            path: [_descriptor(path, cell, rng) for cell in cells]
            for path in ("/solve", "/mc")
        }
        fresh["/adversary"] = [
            _descriptor("/adversary", adversaries[i % len(adversaries)], rng)
            for i in range(round(count * ADVERSARY_SHARE))
        ]
        kinds = [path for path, reqs in fresh.items() for _ in reqs]
        kinds += ["repeat"] * (count - len(kinds))
        layout.shuffle(kinds)
        for reqs in fresh.values():
            layout.shuffle(reqs)
        stream = []
        for kind in kinds:
            if kind == "repeat":
                req = rng.choice(history) if history else fresh["/solve"][0]
            else:
                req = fresh[kind].pop()
                history.append(req)
            stream.append(req)
        streams[step] = stream
    return warm, streams


# ----------------------------------------------------------------------
# a minimal HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class Conn:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, body: bytes = b""):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\n")).split()[1])
        headers = {}
        while True:
            line = (await self.reader.readuntil(b"\n")).strip()
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(
            int(headers.get("content-length", "0"))
        )
        return status, headers, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def get_json(host: str, port: int, path: str) -> dict:
    conn = Conn(host, port)
    try:
        status, _, body = await conn.request("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise ConnectionError(f"GET {path} returned {status}")
    return json.loads(body)


@dataclass
class Sample:
    req: Req
    status: Optional[int] = None
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    latency_ms: float = 0.0
    lateness_ms: float = 0.0
    due: float = 0.0
    sent: float = 0.0
    error: str = ""


async def open_loop(host: str, port: int, stream: List[Req], rate: float):
    """Send ``stream`` on a fixed schedule over a pool of connections."""
    pool: "asyncio.Queue[Conn]" = asyncio.Queue()
    conns = [Conn(host, port) for _ in range(CONNECTIONS)]
    for conn in conns:
        pool.put_nowait(conn)
    samples = [Sample(req) for req in stream]
    epoch = time.perf_counter() + 0.05

    async def fire(index: int) -> None:
        sample = samples[index]
        due = epoch + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.due = due
        sample.lateness_ms = (time.perf_counter() - due) * 1000.0
        conn = await pool.get()
        sample.sent = time.perf_counter()
        try:
            sample.status, sample.headers, sample.body = await asyncio.wait_for(
                conn.request("POST", sample.req.path, sample.req.body),
                REQUEST_TIMEOUT,
            )
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError,
                ValueError, IndexError) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            await conn.close()  # a half-read response poisons the stream
        finally:
            pool.put_nowait(conn)
        sample.latency_ms = (time.perf_counter() - due) * 1000.0

    try:
        await asyncio.wait_for(
            asyncio.gather(*(fire(i) for i in range(len(stream)))),
            len(stream) / rate + STEP_GRACE,
        )
    except asyncio.TimeoutError:
        pass  # requests still unanswered keep status None: failed
    finally:
        for conn in conns:
            await conn.close()
    return samples, epoch, time.perf_counter()


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class Server:
    """``repro serve --port 0 --store STORE`` in a child process.

    A traced server starts through ``serve_child.py`` instead, which
    installs the span wrappers and then makes the same ``run_server``
    call the command does.
    """

    def __init__(self, store: str, stderr_path, trace_dir=None) -> None:
        if trace_dir is None:
            args = [sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--store", store]
        else:
            args = [sys.executable, str(BENCH_DIR / "serve_child.py"),
                    "--store", store, "--trace-dir", str(trace_dir)]
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"  # the port line, promptly
        self.stderr = open(stderr_path, "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([^:]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            health = asyncio.run(get_json(self.host, self.port, "/healthz"))
            if health.get("status") != "ok":
                raise RuntimeError(f"server unhealthy: {health!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.spawned

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        return self.proc.returncode


STAT_COUNTS = ("executions", "jobs_executed", "coalesced",
               "deadline_timeouts", "queue_wait_total")


def stats_diff(before: dict, after: dict) -> dict:
    diff = {name: after[name] - before[name] for name in STAT_COUNTS}
    diff["store_hits"] = after["store"]["hits"] - before["store"]["hits"]
    diff["store_misses"] = (
        after["store"]["misses"] - before["store"]["misses"]
    )
    diff["rejected"] = after["queue"]["rejected"] - before["queue"]["rejected"]
    hist = Counter(after["batches"]["histogram"])
    hist.subtract(before["batches"]["histogram"])
    diff["batch_sizes"] = {k: v for k, v in sorted(hist.items()) if v}
    return diff


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def step_sizes(seconds: float) -> Dict[str, int]:
    return {
        step: max(MIN_REQUESTS, round(seconds * STEP_SHARE[step] * rate))
        for step, rate in RATES.items()
    }


def run_workload(seed: int, seconds: float, trace_dir=None) -> dict:
    work = fresh_dir(f"serve-{seed}{'-traced' if trace_dir else ''}")
    warm, streams = build_streams(seed, step_sizes(seconds))
    setups, tracebacks, failures = [], 0, []
    # Extra set-ups: start and stop a server to sample set-up time.
    for index in range(SETUPS - 1):
        server = Server(str(work / f"setup{index}.sqlite"),
                        work / f"setup{index}.stderr")
        setups.append(server.setup_s)
        server.stop()
        tracebacks += count_tracebacks(
            (work / f"setup{index}.stderr").read_text()
        )
    stderr_path = work / "server.stderr"
    server = Server(str(work / "store.sqlite"), stderr_path, trace_dir)
    setups.append(server.setup_s)
    steps, windows = {}, {}
    try:
        async def drive():
            conn = Conn(server.host, server.port)
            try:
                for req in warm:
                    status, _, _ = await conn.request("POST", req.path,
                                                      req.body)
                    if status != 200:
                        failures.append(f"warm-up {req.path} -> {status}")
            finally:
                await conn.close()
            for step, stream in streams.items():
                before = await get_json(server.host, server.port, "/stats")
                samples, start, end = await open_loop(
                    server.host, server.port, stream, RATES[step]
                )
                after = await get_json(server.host, server.port, "/stats")
                steps[step] = (samples, stats_diff(before, after))
                windows[step] = (start, end)

        asyncio.run(drive())
        peak = vm_hwm_mb(server.proc.pid)
    finally:
        time.sleep(0.2)  # let the server see every connection close
        code = server.stop()
    tracebacks += count_tracebacks(stderr_path.read_text())
    (work / "samples.json").write_text(json.dumps({
        step: [{"path": s.req.path, "status": s.status,
                "store": s.headers.get("x-repro-store"),
                "latency_ms": s.latency_ms, "lateness_ms": s.lateness_ms}
               for s in samples]
        for step, (samples, _) in steps.items()
    }, indent=0) + "\n")
    if code != 0:
        failures.append(f"server exited with code {code}")
    for path in work.glob("*.sqlite*"):
        path.unlink()
    return {
        "steps": steps, "windows": windows, "setups": setups,
        "peak_rss_mb": peak, "tracebacks": tracebacks,
        "failures": failures, "warm": warm,
    }


def check_bodies(steps) -> Tuple[int, List[str]]:
    """Repeats are bitwise identical; sampled solves match a direct run."""
    first: Dict[str, bytes] = {}
    problems: List[str] = []
    checked = 0
    for samples, _ in steps.values():
        for sample in samples:
            key = sample.headers.get("x-repro-key")
            if sample.status != 200 or key is None:
                continue
            if key in first:
                checked += 1
                if sample.body != first[key]:
                    problems.append(f"repeat of {key} differs from its "
                                    f"first body")
            else:
                first[key] = sample.body
    solves = sorted({
        (s.headers["x-repro-key"], s.req.body)
        for samples, _ in steps.values() for s in samples
        if s.req.path == "/solve" and s.status == 200
    })
    rng = random.Random(len(solves))
    for key, body in rng.sample(solves, min(SOLVE_CHECKS, len(solves))):
        checked += 1
        if direct_solve_body(json.loads(body)) != first[key]:
            problems.append(f"/solve {body.decode()} differs from a direct "
                            f"solve_and_check")
    return checked, problems


def direct_solve_body(payload: dict) -> bytes:
    """The /solve response body, computed in-process without the server."""
    from repro.cli import parse_param, resolve_cell
    from repro.model.runner import solve_and_check
    from repro.serve.http import canonical_json

    problem, algorithm, family = resolve_cell(
        payload["algorithm"], payload["family"]
    )
    param = parse_param(payload["param"])
    seed = payload["seed"]
    instance = family.instance(param)
    report = solve_and_check(problem.make(), instance, algorithm.make(),
                             seed=seed)
    body = {
        "endpoint": "solve", "algorithm": algorithm.name,
        "problem": problem.name, "family": family.name,
        "param": repr(param), "implicit": False, "seed": seed,
        "max_volume": None, "max_queries": None,
        "instance": instance.name, "n": instance.n, "valid": report.valid,
        "result": {
            "max_volume": report.run.max_volume,
            "mean_volume": report.run.mean_volume,
            "max_distance": report.run.max_distance,
            "max_queries": report.run.max_queries,
            "truncated_nodes": len(report.run.truncated_nodes),
        },
        "violations": [str(v) for v in report.violations[:5]],
    }
    return canonical_json(body)


def summarize(run: dict) -> dict:
    steps = run["steps"]
    failed = run["tracebacks"] + len(run["failures"])
    attempted = sum(len(samples) for samples, _ in steps.values()) or 1
    invalid = []
    out = {"steps": {}}
    seen = {req for req in run["warm"]}  # repeats count across steps
    for step, (samples, stats) in steps.items():
        ok = [s for s in samples if s.status == 200]
        failed += len(samples) - len(ok)
        latencies = [s.latency_ms for s in ok]
        hits = [s.latency_ms for s in ok
                if s.headers.get("x-repro-store") == "hit"]
        misses = [s.latency_ms for s in ok
                  if s.headers.get("x-repro-store") == "miss"]
        lateness = [s.lateness_ms for s in samples]
        start, end = run["windows"][step]
        within = [s for s in ok if s.latency_ms <= LATENCY_LIMIT_MS]
        repeats = 0
        for s in samples:
            repeats += s.req in seen
            seen.add(s.req)
        limit_ms = 1000.0 * LATENESS_LIMIT_SHARE / RATES[step]
        if percentile(lateness, 99) > limit_ms:
            invalid.append(f"{step}: generator lateness p99 "
                           f"{percentile(lateness, 99):.1f} ms > "
                           f"{limit_ms:g} ms")
        quarter = len(samples) // 4
        first = [s.latency_ms for s in samples[:quarter]]
        last = [s.latency_ms for s in samples[-quarter:]]
        out["steps"][step] = {
            "backlog_ratio": median(last) / median(first),
            "requests": len(samples),
            "rate": RATES[step],
            "ok": len(ok),
            "p50_ms": percentile(latencies, 50) if latencies else None,
            "p95_ms": percentile(latencies, 95) if latencies else None,
            "hit_p50_ms": percentile(hits, 50) if hits else None,
            "miss_p50_ms": percentile(misses, 50) if misses else None,
            "hits": len(hits),
            "misses": len(misses),
            "slo_share": len(within) / len(samples),
            "goodput": len(within) / (end - start),
            "lateness_p50_ms": percentile(lateness, 50),
            "lateness_p99_ms": percentile(lateness, 99),
            "lateness_max_ms": max(lateness),
            "repeat_share": repeats / len(samples),
            "mix": dict(Counter(s.req.path for s in samples)),
            "statuses": dict(Counter(str(s.status) for s in samples)),
            "errors": sorted({s.error for s in samples if s.error}),
            "stats": stats,
        }
    checked, problems = check_bodies(steps)
    attempted += checked
    failed += len(problems) + len(invalid)
    out.update(
        attempted=attempted, failed=failed, problems=problems,
        invalid=invalid, checked=checked,
        setup_s=median(run["setups"]), peak_rss_mb=run["peak_rss_mb"],
    )
    return out


def report(summary: dict, run: dict, label: str = "") -> None:
    log(f"serve-mixed{label}: open loop over {CONNECTIONS} keep-alive "
        f"connections, latency limit {LATENCY_LIMIT_MS:g} ms")
    for step, s in summary["steps"].items():
        log(f"  step {step}: {s['requests']} requests at {s['rate']:g}/s, "
            f"measured repeat share {s['repeat_share']:.3f}, mix {s['mix']}")
        for name in ("p50_ms", "p95_ms", "hit_p50_ms", "miss_p50_ms"):
            if step == "hi" and name in ("hit_p50_ms", "miss_p50_ms"):
                continue
            value = s[name]
            log(f"    serve.{step}.{name:12s} = "
                f"{'-' if value is None else f'{value:.3f}'} ms")
        log(f"    serve.{step}.slo_share    = {s['slo_share']:.4f} share "
            f"(goodput {s['goodput']:.3f} 1/s)")
        log(f"    store hits/misses by header {s['hits']}/{s['misses']}, "
            f"statuses {s['statuses']}")
        log(f"    backlog: last-quarter p50 / first-quarter p50 = "
            f"{s['backlog_ratio']:.3f}")
        log(f"    generator lateness p50/p99/max "
            f"{s['lateness_p50_ms']:.2f}/{s['lateness_p99_ms']:.2f}/"
            f"{s['lateness_max_ms']:.2f} ms (p99 limit "
            f"{1000.0 * LATENESS_LIMIT_SHARE / s['rate']:g} ms)")
        log(f"    /stats diff: {json.dumps(s['stats'], sort_keys=True)}")
        for error in s["errors"]:
            log(f"    error: {error}")
    log(f"  setup_s             = {summary['setup_s']:.4f} s "
        f"(median of {len(run['setups'])})")
    log(f"  peak_rss_mb         = {summary['peak_rss_mb']:.2f} MB "
        f"(server child)")
    log(f"  fail_share          = "
        f"{summary['failed'] / summary['attempted']:.4f} share")
    log(f"  server tracebacks {run['tracebacks']}, "
        f"other failures {run['failures']}")
    verdict = "ok" if not summary["problems"] else "FAILED"
    log(f"  check all 200 + {summary['checked']} bodies (repeats bitwise, "
        f"{SOLVE_CHECKS} solves vs direct solve_and_check): {verdict}")
    for line in summary["problems"] + summary["invalid"]:
        log(f"    {line}")


def end_to_end(summary: dict) -> Dict[str, float]:
    lo, hi = summary["steps"]["lo"], summary["steps"]["hi"]
    return {
        "setup_s": summary["setup_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "ok_share": 1.0 - summary["failed"] / summary["attempted"],
        "ops_per_s": hi["goodput"],
        # Repeats, not all requests: with about half the requests
        # repeated, the all-request median sits on the seam between
        # store hits and executions and swings with host speed.
        "p50_ms": lo["hit_p50_ms"],
    }


def run(seed: int, seconds: float) -> dict:
    result = run_workload(seed, seconds)
    summary = summarize(result)
    report(summary, result)
    complete = all(
        summary["steps"][step][name] is not None
        for step in RATES for name in ("p50_ms", "hit_p50_ms")
    )
    return {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": end_to_end(summary) if complete else None,
    }


def run_traced(seed: int, seconds: float) -> dict:
    import layers

    plain = summarize(run_workload(seed, seconds))
    trace_dir = fresh_dir(f"trace-serve-{seed}")
    traced_run = run_workload(seed, seconds, trace_dir=trace_dir)
    traced = summarize(traced_run)
    report(traced, traced_run, label=" (traced)")
    lo_window = traced_run["windows"]["lo"]
    window = (lo_window[0], traced_run["windows"]["hi"][1])
    verdict = []

    def blocking(spans):
        lo_samples = traced_run["steps"]["lo"][0]
        verdict.append(layers.blocking_path(
            spans,
            [(s.headers.get("x-repro-key"), s.due, s.sent, s.latency_ms)
             for s in lo_samples if s.status == 200],
            BLOCKING_TOLERANCE,
        ))

    result = layers.traced_result(
        "serve-mixed", trace_dir, plain, traced, end_to_end,
        window=window, extra=blocking,
    )
    if not all(verdict):
        result["failed"] += 1
    return result

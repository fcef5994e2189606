"""Spans recorded around the program's public entry points, from outside.

:func:`install` replaces the entry points of each measured layer with a
wrapper that records one span per call: name, layer, start, end, the
span that caused it, and the request key where the layer sees one.  The
program's own files are untouched; the wrappers are installed in the
benchmark's processes only, and only for a traced run.

Spans stay in memory and are written as JSON lines when the process
ends (:meth:`Tracer.dump`).  Pool workers forked by the program write
their own file when they exit, so work done in workers is traced too.

A layer's self time is a span's duration minus the part of it covered
by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """In-memory span buffer for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        #: (span id, span name, request key) of the innermost open span.
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def record(self, sid, name, layer, start, end, parent, key, attrs=None):
        self.spans.append((sid, name, layer, start, end, parent, key, attrs))

    def after_fork(self) -> None:
        """In a forked pool worker: drop the parent's spans, dump at exit."""
        from multiprocessing import util

        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self.current.set(None)
        util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w") as handle:
            for sid, name, layer, start, end, parent, key, attrs in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "key": key, "pid": self.pid, "attrs": attrs,
                }) + "\n")
        return path


def load_spans(out_dir: Path) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def traced(
    tracer: Tracer,
    fn: Callable,
    name: str,
    layer: str,
    key_of: Optional[Callable] = None,
    attrs_of: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped to record one span per call (sync or async).

    ``key_of(args, kwargs)`` names the request key the call sees (else
    the enclosing span's key is inherited); ``attrs_of(args, kwargs,
    result)`` adds counts measured at the boundary.
    """

    def enter(args, kwargs):
        outer = tracer.current.get()
        key = key_of(args, kwargs) if key_of is not None else None
        if key is None and outer is not None:
            key = outer[2]
        sid = tracer.new_id()
        token = tracer.current.set((sid, name, key))
        return outer, sid, key, token

    def leave(outer, sid, key, token, start, args, kwargs, result, failed):
        end = now()
        tracer.current.reset(token)
        attrs = {}
        if outer is not None and outer[1] == name:
            attrs["nested"] = True
        if failed:
            attrs["error"] = True
        elif attrs_of is not None:
            attrs.update(attrs_of(args, kwargs, result) or {})
        tracer.record(
            sid, name, layer, start, end,
            None if outer is None else outer[0], key, attrs or None,
        )

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            outer, sid, key, token = enter(args, kwargs)
            start = now()
            result, failed = None, True
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                leave(outer, sid, key, token, start, args, kwargs, result,
                      failed)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer, sid, key, token = enter(args, kwargs)
        start = now()
        result, failed = None, True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            leave(outer, sid, key, token, start, args, kwargs, result, failed)

    return wrapper


def patch_function(module, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``module.attr`` and every ``repro`` module's alias of it."""
    original = getattr(module, attr)
    replacement = make(original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
    return replacement


def patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap ``cls.attr`` where ``cls`` itself defines it."""
    if attr in vars(cls):
        setattr(cls, attr, make(vars(cls)[attr]))


def _subclasses(cls) -> List[type]:
    """Every subclass of ``cls``, each once, parents before children."""
    seen: List[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop(0)
        if sub not in seen:
            seen.append(sub)
            stack.extend(sub.__subclasses__())
    return seen


def _instance_key(instance) -> str:
    return (
        f"{type(instance).__name__}:{getattr(instance, 'name', '?')}:"
        f"{getattr(instance, 'n', '?')}"
    )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from multiprocessing import util

    import repro.adversary.base as adversary_base
    import repro.corpus.results as results
    import repro.exec.backends as backends
    import repro.exec.shm as shm
    import repro.exec.sweep as sweep
    import repro.graphs.generators as generators
    import repro.lcl.base as lcl_base
    import repro.model.batched as batched
    import repro.model.oracle as oracle
    import repro.model.probe as probe
    import repro.model.runner as runner
    import repro.montecarlo.engine as engine
    import repro.serve.http as http
    import repro.serve.scheduler as scheduler
    import repro.serve.service as service
    from repro.registry import load_components

    load_components()
    util.register_after_fork(tracer, Tracer.after_fork)

    def wrap(name, layer, **kw):
        return lambda fn: traced(tracer, fn, name, layer, **kw)

    # graphs: one span per instance generator call
    for attr, fn in list(vars(generators).items()):
        if (
            attr.endswith("_instance")
            and not attr.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == generators.__name__
        ):
            patch_function(generators, attr, wrap(
                "graphs.build", "graphs",
                attrs_of=lambda a, k, r, attr=attr: {
                    "build": f"{attr}{a!r}"
                },
            ))

    # model.oracle / model.batched / model.probe / model.runner
    patch_method(oracle.CompiledOracle, "__init__", wrap(
        "model.oracle.compile", "model.oracle",
        attrs_of=lambda a, k, r: {"instance": _instance_key(a[1])},
    ))
    patch_method(batched.CsrGatherKernel, "__init__", wrap(
        "model.batched.kernel_build", "model.batched"))
    for attr in ("summarize", "ball"):
        patch_method(batched.CsrGatherKernel, attr, wrap(
            "model.batched.kernel", "model.batched"))
    patch_function(probe, "execute_at", wrap(
        "model.probe.execute", "model.probe"))
    patch_function(runner, "solve_and_check", wrap(
        "model.runner.solve", "model.runner"))
    patch_function(runner, "run_algorithm", wrap(
        "model.runner.run", "model.runner"))

    # lcl.verifier: every problem's whole-instance validity check
    for cls in [lcl_base.LCLProblem, *_subclasses(lcl_base.LCLProblem)]:
        patch_method(cls, "validate", wrap(
            "lcl.verifier.verify", "lcl.verifier"))

    # adversary.engine: the game and its replay verification
    for cls in _subclasses(adversary_base.Adversary):
        patch_method(cls, "run", wrap(
            "adversary.engine.run", "adversary.engine"))
        patch_method(cls, "verify", wrap(
            "adversary.engine.verify", "adversary.engine"))

    # exec.sweep
    patch_function(sweep, "run_sweep", wrap(
        "exec.sweep.run", "exec.sweep",
        attrs_of=lambda a, k, r: {"points": len(r.points)},
    ))
    patch_method(sweep.SweepSpec, "measure_point_detailed", wrap(
        "exec.sweep.point", "exec.sweep"))

    # exec.backends: whole-instance runs and trial batches
    def fault_delta(method_name):
        def make(fn):
            @functools.wraps(fn)
            def counting(self, *args, **kwargs):
                log = getattr(self, "fault_log", None)
                mark = len(log) if log is not None else 0
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    if log is not None and len(log) > mark:
                        tracer.record(
                            tracer.new_id(), "exec.backends.fault",
                            "exec.backends", now(), now(),
                            None, None, {"events": len(log) - mark},
                        )
            return traced(tracer, counting, method_name, "exec.backends")
        return make

    for cls in [backends.ExecutionBackend,
                *_subclasses(backends.ExecutionBackend)]:
        patch_method(cls, "run", fault_delta("exec.backends.run"))
        patch_method(cls, "run_trial_batch",
                     fault_delta("exec.backends.trial_batch"))

    # exec.shm
    patch_function(shm, "publish_instance", wrap(
        "exec.shm.publish", "exec.shm",
        attrs_of=lambda a, k, r: {"bytes": r.total_size},
    ))

    # montecarlo.engine
    patch_function(engine, "run_trials", wrap(
        "montecarlo.engine.run_trials", "montecarlo.engine",
        attrs_of=lambda a, k, r: {"trials": r.trials},
    ))

    # corpus.results
    store = results.ResultStore
    patch_method(store, "get_response", wrap(
        "corpus.results.read", "corpus.results",
        key_of=lambda a, k: a[1],
        attrs_of=lambda a, k, r: {"hit": r is not None},
    ))
    patch_method(store, "trial_records", wrap(
        "corpus.results.read", "corpus.results",
        attrs_of=lambda a, k, r: {"hit": bool(r)},
    ))
    patch_method(store, "record_response", wrap(
        "corpus.results.write", "corpus.results",
        key_of=lambda a, k: a[1],
    ))
    for attr in ("record_trial_run", "record_sweep_meta",
                 "record_sweep_point"):
        patch_method(store, attr, wrap(
            "corpus.results.write", "corpus.results"))
    patch_method(store, "record_trials", wrap(
        "corpus.results.trial_write", "corpus.results",
        attrs_of=lambda a, k, r: {"rows": len(a[2])},
    ))

    _install_serve(tracer, http, service, scheduler)


# ----------------------------------------------------------------------
# serve: one root span per HTTP request, linked to the worker by key
# ----------------------------------------------------------------------
_FIRST_LINE: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_first_line", default=None
)
#: [root span id, start, path, request key] of the request in progress
#: on this connection.
_ROOT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_root", default=None
)


def _install_serve(tracer: Tracer, http, service, scheduler) -> None:
    """Spans for the HTTP front end, the service and the scheduler.

    A request's root span runs from the moment its head arrives to the
    end of rendering its response, so waiting on an idle keep-alive
    connection is excluded.  Worker-thread spans join the request that
    submitted their key.
    """
    submitted: Dict[str, List[tuple]] = {}
    submitted_lock = threading.Lock()

    original_read_line = http._read_line

    async def read_line(reader):
        line = await original_read_line(reader)
        mark = _FIRST_LINE.get()
        if mark is not None and mark[0] is None:
            mark[0] = now()
        return line

    http._read_line = read_line

    def make_read_request(fn):
        @functools.wraps(fn)
        async def read_request(reader):
            mark = [None]
            token = _FIRST_LINE.set(mark)
            try:
                request = await fn(reader)
            finally:
                _FIRST_LINE.reset(token)
            end = now()
            if request is not None:
                start = mark[0] if mark[0] is not None else end
                root = tracer.new_id()
                # Set without reset: the connection task keeps them until
                # the response is rendered (see encode below).
                tracer.current.set((root, "serve.request", None))
                _ROOT.set([root, start, request.path, None])
                tracer.record(
                    tracer.new_id(), "serve.http.parse", "serve.http",
                    start, end, root, None,
                )
            return request
        return read_request

    patch_function(http, "read_request", make_read_request)

    original_encode = http.Response.encode

    def encode(self, keep_alive=True):
        started = now()
        body = original_encode(self, keep_alive)
        end = now()
        outer = tracer.current.get()
        root = _ROOT.get()
        tracer.record(
            tracer.new_id(), "serve.http.encode", "serve.http",
            started, end, None if outer is None else outer[0],
            None if root is None else root[3],
        )
        if root is not None and outer is not None and outer[0] == root[0]:
            tracer.record(
                root[0], "serve.request", "serve.service", root[1], end,
                None, root[3], {"path": root[2], "status": self.status},
            )
            tracer.current.set(None)
            _ROOT.set(None)
        return body

    http.Response.encode = encode
    patch_method(http.Request, "json", lambda fn: traced(
        tracer, fn, "serve.http.body", "serve.http"))

    service_cls = service.ReproService
    patch_method(service_cls, "_dispatch", lambda fn: traced(
        tracer, fn, "serve.service.dispatch", "serve.service"))
    for attr in ("_resolve_solve", "_resolve_mc", "_resolve_adversary"):
        patch_method(service_cls, attr, lambda fn: traced(
            tracer, fn, "serve.service.resolve", "serve.service"))

    def submit_key(args, kwargs):
        key = service.request_key(args[3])
        root = _ROOT.get()
        if root is not None:
            root[3] = key
        return key

    patch_method(service_cls, "_submit", lambda fn: traced(
        tracer, fn, "serve.service.submit", "serve.service",
        key_of=submit_key))

    sched = scheduler.BatchScheduler

    def make_sched_submit(fn):
        @functools.wraps(fn)
        def submit(self, key, endpoint, fn_):
            coalesced = key in self._inflight
            outer = tracer.current.get()
            parent = None if outer is None else outer[0]
            try:
                future = fn(self, key, endpoint, fn_)
            except scheduler.Backpressure:
                tracer.record(tracer.new_id(), "serve.scheduler.rejected",
                              "serve.scheduler", now(), now(), parent, key)
                raise
            if coalesced:
                tracer.record(tracer.new_id(), "serve.scheduler.coalesced",
                              "serve.scheduler", now(), now(), parent, key)
            else:
                with submitted_lock:
                    submitted.setdefault(key, []).append((now(), parent))
            return future
        return submit

    patch_method(sched, "submit", make_sched_submit)

    def make_run_batch(fn):
        @functools.wraps(fn)
        def _run_batch(self, batch):
            tracer.record(tracer.new_id(), "serve.scheduler.batch",
                          "serve.scheduler", now(), now(), None, None,
                          {"size": len(batch)})
            return fn(self, batch)
        return _run_batch

    patch_method(sched, "_run_batch", make_run_batch)

    def make_run_job(fn):
        @functools.wraps(fn)
        def _run_job(self, job):
            picked = now()
            with submitted_lock:
                pending = submitted.get(job.key)
                if pending:
                    submitted_at, parent = pending.pop(0)
                    if not pending:
                        del submitted[job.key]
                else:
                    submitted_at, parent = job.admitted_at, None
            tracer.record(tracer.new_id(), "serve.scheduler.wait",
                          "serve.scheduler", submitted_at, picked, parent,
                          job.key)
            sid = tracer.new_id()
            token = tracer.current.set((sid, "serve.scheduler.job", job.key))
            try:
                return fn(self, job)
            finally:
                tracer.current.reset(token)
                tracer.record(sid, "serve.scheduler.job", "serve.scheduler",
                              picked, now(), parent, job.key)
        return _run_job

    patch_method(sched, "_run_job", make_run_job)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span["id"]] = max(0.0, (end - start) - covered)
    return out

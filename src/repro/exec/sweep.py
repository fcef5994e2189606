"""Declarative sweep orchestration for whole-instance experiments.

Every benchmark in this repo has the same shape: *for each size in a
grid, build an instance from a family, run an algorithm from some start
nodes, record one scalar cost, then fit the growth class*.  This module
turns that shape into data:

* :class:`InstanceFamily` — a named, parameterized instance generator
  with per-parameter memoization (several sweeps over the same family
  share the built instances);
* :class:`SweepSpec` — one sweep: family × algorithm × metric (+ start
  nodes, seed, budgets), or an arbitrary ``measure`` callable for
  experiments that are not a single ``run_algorithm`` call;
* :func:`run_sweep` / :func:`run_sweeps` — execute specs on any
  :class:`~repro.exec.backends.ExecutionBackend`, executing each distinct
  run of a batch once, with optional on-disk caching
  (:class:`SweepCache`, keyed by a stable spec hash) and progress
  reporting;
* :class:`SweepResult` — the measured points plus the fitted growth
  class, formatted with the same claimed-vs-measured row the benchmark
  tables print.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.complexity_fit import (
    FitResult,
    SweepMeasurement,
    format_sweep_row,
)
from repro.exec.backends import ExecutionBackend, get_backend
from repro.faults.journal import Journal, atomic_write_text


class InstanceFamily:
    """A named instance generator over a parameter grid, memoized.

    ``factory(param)`` builds the instance for one grid point.  Builds
    are cached so that the four sweeps of a Table-1 row reuse one set of
    instances instead of regenerating them per metric.
    """

    def __init__(self, name: str, factory: Callable, params: Sequence) -> None:
        self.name = name
        self.factory = factory
        self.params = list(params)
        self._cache: Dict[object, object] = {}

    def instance(self, param):
        key = self._key(param)
        if key not in self._cache:
            self._cache[key] = self.factory(param)
        return self._cache[key]

    def instances(self) -> List[object]:
        return [self.instance(p) for p in self.params]

    def clear(self) -> None:
        self._cache.clear()

    @staticmethod
    def _key(param) -> object:
        return tuple(param) if isinstance(param, list) else param


@dataclass
class SweepSpec:
    """One declarative sweep: what to measure over an instance family.

    Either give ``algorithm_factory`` + ``metric`` (the common case: one
    :func:`~repro.model.runner.run_algorithm` call per grid point) or a
    custom ``measure(instance, param)`` callable for composite
    experiments (CONGEST rounds, two-party bits, ...).

    ``nodes`` optionally selects the start nodes per grid point as
    ``nodes(instance, param)``; ``None`` means every node.

    The ``success_rate`` metric runs the streaming Monte-Carlo engine
    per grid point instead of a single whole-instance run: it needs a
    ``problem_factory`` (to check validity) and a ``trial_policy``
    (a :class:`~repro.montecarlo.engine.TrialPolicy` controlling trial
    budgets and early stopping); each point's cost is the estimated
    success probability, with trial counts / CI bounds / stopping
    reason recorded in :attr:`SweepPoint.detail`.
    """

    label: str
    claimed: str
    family: InstanceFamily
    metric: str = "volume"
    algorithm_factory: Optional[Callable] = None
    nodes: Optional[Callable] = None
    seed: int = 0
    max_volume: Optional[int] = None
    max_queries: Optional[int] = None
    measure: Optional[Callable] = None
    candidates: Optional[Sequence[str]] = None
    cache_extra: str = ""
    problem_factory: Optional[Callable] = None
    trial_policy: Optional[object] = None

    _METRICS = ("volume", "distance", "queries", "success_rate")

    def __post_init__(self) -> None:
        if self.measure is None:
            if self.algorithm_factory is None:
                raise ValueError(
                    f"spec {self.label!r} needs an algorithm_factory or a "
                    "measure callable"
                )
            if self.metric not in self._METRICS:
                raise ValueError(
                    f"unknown metric {self.metric!r} "
                    f"(expected one of {self._METRICS})"
                )
        if self.measure is not None:
            if self.trial_policy is not None:
                raise ValueError(
                    f"spec {self.label!r}: trial_policy does not apply to "
                    "a custom measure callable"
                )
        elif self.metric == "success_rate":
            if self.problem_factory is None or self.trial_policy is None:
                raise ValueError(
                    f"spec {self.label!r}: the success_rate metric needs "
                    "a problem_factory and a trial_policy"
                )
            if self.nodes is not None:
                # Validity is checked over the outputs of *every* node
                # (Definition 2.4); a start-node selector would be
                # silently ignored by the trial engine.
                raise ValueError(
                    f"spec {self.label!r}: the success_rate metric runs "
                    "from every node; a nodes selector does not apply"
                )
        elif self.trial_policy is not None:
            raise ValueError(
                f"spec {self.label!r}: trial_policy only applies to the "
                "success_rate metric"
            )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A stable descriptor of everything that affects the results."""
        algo_name = None
        if self.algorithm_factory is not None:
            algo_name = self.algorithm_factory().name
        return {
            "label": self.label,
            "claimed": self.claimed,
            "family": self.family.name,
            "family_factory": _callable_id(self.family.factory),
            "params": [repr(p) for p in self.family.params],
            "metric": self.metric if self.measure is None else "custom",
            "algorithm": algo_name,
            "nodes": _callable_id(self.nodes),
            "measure": _callable_id(self.measure),
            "seed": self.seed,
            "max_volume": self.max_volume,
            "max_queries": self.max_queries,
            "cache_extra": self.cache_extra,
            "problem": _callable_id(self.problem_factory),
            "trial_policy": (
                None
                if self.trial_policy is None
                else self.trial_policy.describe()
            ),
        }

    def cache_key(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # ------------------------------------------------------------------
    def measure_point(self, instance, param, backend: ExecutionBackend) -> float:
        return self.measure_point_detailed(instance, param, backend)[0]

    def measure_point_detailed(
        self,
        instance,
        param,
        backend: ExecutionBackend,
        runs: Optional[Dict] = None,
    ) -> "Tuple[float, Optional[Dict[str, object]]]":
        """One grid point's cost plus an optional detail record.

        Only the ``success_rate`` metric produces a detail (trial count,
        CI bounds, stopping reason); the single-run metrics return
        ``None``.

        ``runs`` is a batch's run plan (see :func:`run_sweeps`): it maps
        a run key to ``(instance, RunResult)``, and a single-run metric
        whose run is in it reads that result instead of executing.
        Holding the instance keeps its ``id()`` in the key valid while
        the plan lives.  ``None`` (the default) always executes.
        """
        if self.measure is not None:
            return float(self.measure(instance, param)), None
        if self.metric == "success_rate":
            from repro.montecarlo.engine import run_trials

            result = run_trials(
                self.problem_factory(),
                instance,
                self.algorithm_factory(),
                self.trial_policy,
                base_seed=self.seed,
                backend=backend,
                max_volume=self.max_volume,
                max_queries=self.max_queries,
            )
            low, high = result.interval()
            return float(result.rate), {
                "trials": result.trials,
                "successes": result.successes,
                "ci_low": low,
                "ci_high": high,
                "stopped": result.stopped,
            }
        nodes = (
            None if self.nodes is None else tuple(self.nodes(instance, param))
        )
        key = (
            id(instance),
            self.algorithm_factory,
            nodes,
            self.seed,
            self.max_volume,
            self.max_queries,
        )
        shared = None if runs is None else runs.get(key)
        if shared is None:
            result = backend.run(
                instance,
                self.algorithm_factory(),
                nodes,
                seed=self.seed,
                max_volume=self.max_volume,
                max_queries=self.max_queries,
            )
            if runs is not None:
                runs[key] = (instance, result)
        else:
            result = shared[1]
        return float(getattr(result, f"max_{self.metric}")), None


def _callable_id(fn: Optional[Callable]) -> Optional[str]:
    """Fingerprint a callable by name *and* bytecode.

    Editing the body of a ``measure``/``nodes``/factory callable must
    invalidate cached sweep results; a bare qualname would keep serving
    stale numbers after a code change.  Plain ``repr`` is unusable (it
    embeds object addresses), so hash the code object's bytecode and its
    non-code constants instead.
    """
    if fn is None:
        return None
    name = getattr(fn, "__qualname__", fn.__class__.__qualname__)
    code = getattr(fn, "__code__", None)
    if code is None:
        call = getattr(type(fn), "__call__", None)
        code = getattr(call, "__code__", None)
    if code is None:
        return name
    consts = tuple(
        c for c in code.co_consts if not hasattr(c, "co_code")
    )
    digest = hashlib.sha256(
        code.co_code + repr(consts).encode()
    ).hexdigest()[:12]
    return f"{name}#{digest}"


@dataclass
class SweepPoint:
    """One measured grid point.

    ``detail`` carries metric-specific extras (for ``success_rate``:
    trial count, CI bounds, stopping reason); ``None`` for plain
    single-run metrics.
    """

    param: object
    n: int
    cost: float
    elapsed: float = 0.0
    detail: Optional[Dict[str, object]] = None


@dataclass
class SweepResult:
    """All points of one sweep plus fit/reporting helpers.

    ``from_cache`` means no point was executed this run; ``from_store``
    additionally records that the persistent result store (rather than
    the per-spec JSON cache) served them.
    """

    spec: SweepSpec
    points: List[SweepPoint] = field(default_factory=list)
    from_cache: bool = False
    from_store: bool = False

    @property
    def ns(self) -> List[int]:
        return [p.n for p in self.points]

    @property
    def costs(self) -> List[float]:
        return [p.cost for p in self.points]

    def measurement(self) -> SweepMeasurement:
        return SweepMeasurement(
            label=self.spec.label,
            ns=self.ns,
            costs=self.costs,
            claimed=self.spec.claimed,
        )

    def fitted(self) -> FitResult:
        return self.measurement().fitted(self.spec.candidates)

    def format_row(self) -> str:
        return format_sweep_row(self.measurement(), self.fitted())


def _sweep_payload(result: SweepResult) -> Dict[str, object]:
    """The persistable form of a sweep result (cache file and store)."""
    return {
        "describe": _jsonify(result.spec.describe()),
        "ns": result.ns,
        "costs": result.costs,
        "details": [p.detail for p in result.points],
    }


def _restore_points(
    spec: SweepSpec, ns, costs, details
) -> Optional[List[SweepPoint]]:
    """Rebuild grid points from persisted arrays, or ``None`` if mangled.

    A describe() match guarantees the stored points were measured over
    exactly this parameter grid, so the grid points are restored from
    the spec (params may not be JSON-serializable).  It also implies
    the current payload format, so missing/short arrays can only mean a
    mangled file: the caller re-measures rather than guessing.
    """
    if ns is None or costs is None or details is None:
        return None
    expected = len(spec.family.params)
    if not (len(ns) == len(costs) == len(details) == expected):
        return None
    return [
        SweepPoint(param=param, n=int(n), cost=float(cost), detail=detail)
        for param, n, cost, detail in zip(
            spec.family.params, ns, costs, details
        )
    ]


class SweepCache:
    """On-disk result cache keyed by the spec hash.

    One JSON file per spec under ``root``; a cache hit skips the whole
    sweep.  Delete the directory (or a file) to invalidate.  This is
    the file-per-spec sibling of the persistent
    :class:`~repro.corpus.results.ResultStore` — both persist
    :func:`_sweep_payload` and restore via :func:`_restore_points`, so
    their hit semantics cannot drift.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def load(self, spec: SweepSpec) -> Optional[SweepResult]:
        path = self._path(spec)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("describe") != _jsonify(spec.describe()):
            return None  # hash collision or stale format: re-measure
        points = _restore_points(
            spec,
            payload.get("ns"),
            payload.get("costs"),
            payload.get("details"),
        )
        if points is None:
            return None
        return SweepResult(spec=spec, points=points, from_cache=True)

    def store(self, result: SweepResult) -> None:
        # Atomic + durable (temp file, fsync, rename): a crash or a
        # concurrent writer must never leave a torn cache file that a
        # later run would half-trust.
        atomic_write_text(
            self._path(result.spec),
            json.dumps(_sweep_payload(result), indent=1),
        )

    def _path(self, spec: SweepSpec) -> Path:
        return self.root / f"{spec.cache_key()}.json"


def _json_key(key) -> str:
    """The string ``json.dumps`` would coerce a dict key to."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"dict key {key!r} ({type(key).__name__}) cannot be persisted "
        "in a JSON payload"
    )


def _jsonify(obj):
    """Normalize a payload to its JSON-decoded form — loudly.

    A plain ``json.loads(json.dumps(...))`` round trip coerces
    non-string dict keys silently (``1`` -> ``"1"``, ``True`` ->
    ``"true"``); if two keys coerce to the same string, one value is
    silently dropped and the stored payload can never compare equal to
    a freshly built one again — a permanent cache miss with no error.
    This normalizer applies the identical coercion but *raises* on a
    collision or an uncoercible key, and both the persist side and the
    compare side go through it, so persisted and fresh payloads agree
    by construction.
    """
    if isinstance(obj, dict):
        out: Dict[str, object] = {}
        for key, value in obj.items():
            norm = _json_key(key)
            if norm in out:
                raise ValueError(
                    f"dict keys collide when persisted as JSON: key "
                    f"{key!r} coerces to {norm!r}, which is already "
                    "present; use distinct string keys"
                )
            out[norm] = _jsonify(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonify(value) for value in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # Anything exotic must survive a real round trip or fail now.
    return json.loads(json.dumps(obj))


def sweep_journal_key(specs: Sequence[SweepSpec]) -> str:
    """The spec hash binding a journal to one batch of sweeps.

    Hashes every spec's :meth:`~SweepSpec.cache_key` in order, so the
    same journal file refuses a different sweep batch loudly instead of
    silently skipping the wrong points.
    """
    blob = json.dumps([spec.cache_key() for spec in specs]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def open_sweep_journal(path, specs: Sequence[SweepSpec]) -> Journal:
    """Open (or resume) the journal for a batch of sweeps."""
    meta = {
        "sweeps": [
            {"label": spec.label, "spec": spec.cache_key()} for spec in specs
        ]
    }
    return Journal(path, sweep_journal_key(specs), meta=meta)


def _journal_points(journal: Journal) -> Dict[Tuple[str, int], Dict]:
    """Completed ``(spec hash, grid index) -> record`` from the journal."""
    done: Dict[Tuple[str, int], Dict] = {}
    for record in journal.records:
        if record.get("kind") != "point":
            continue
        done.setdefault((record["spec"], int(record["index"])), record)
    return done


def run_sweep(
    spec: SweepSpec,
    backend=None,
    cache: Optional[SweepCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal: Optional[Journal] = None,
    store=None,
    runs: Optional[Dict] = None,
) -> SweepResult:
    """Execute one sweep (or serve it from the cache or result store).

    With ``journal`` (an open :class:`~repro.faults.journal.Journal`,
    usually from :func:`open_sweep_journal`), each completed grid point
    is appended durably and points already journaled are restored
    instead of re-measured — a killed campaign continues where it died.
    Every point is a deterministic run, so a restored point is bitwise
    what re-measuring would produce.

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) is the
    persistent sibling: every executed point appends to the store, and
    points already stored for this spec hash are restored per point —
    a re-run against a populated store executes nothing.  A fully
    store-served result sets :attr:`SweepResult.from_store` (and
    counts as a cache hit in summaries, since no measurement ran).

    ``runs`` is the run plan :func:`run_sweeps` shares across its batch;
    a point whose run is already in it reads that ``RunResult`` (its
    ``elapsed`` is the lookup time) and is otherwise an ordinary point.
    """
    backend = get_backend(backend)
    spec_key = spec.cache_key()
    described = _jsonify(spec.describe())
    if cache is not None:
        hit = cache.load(spec)
        if hit is not None:
            if progress is not None:
                progress(f"[{spec.label}] loaded {len(hit.points)} cached points")
            if store is not None:
                _record_sweep_to_store(store, spec_key, described, hit)
            return hit
    stored: Dict[int, Dict[str, object]] = {}
    if store is not None:
        stored_describe = store.sweep_describe(spec_key)
        if stored_describe is not None and stored_describe != described:
            # A 16-hex hash collision (or a mangled row): neither serve
            # the foreign points nor mix ours under the same key.
            store = None
        else:
            store.record_sweep_meta(
                spec_key, spec.label, described, len(spec.family.params)
            )
            stored = store.sweep_points(spec_key)
    done = _journal_points(journal) if journal is not None else {}
    result = SweepResult(spec=spec)
    total = len(spec.family.params)
    served_store = 0
    for index, param in enumerate(spec.family.params, start=1):
        replayed = done.get((spec_key, index - 1))
        if replayed is None and index - 1 in stored:
            row = stored[index - 1]
            result.points.append(
                SweepPoint(
                    param=param,
                    n=int(row["n"]),
                    cost=float(row["cost"]),
                    elapsed=float(row["elapsed"]),
                    detail=row["detail"],
                )
            )
            served_store += 1
            if progress is not None:
                progress(
                    f"[{spec.label}] {index}/{total}: stored point "
                    f"restored (n={result.points[-1].n})"
                )
            continue
        if replayed is not None:
            point = SweepPoint(
                param=param,
                n=int(replayed["n"]),
                cost=float(replayed["cost"]),
                elapsed=float(replayed.get("elapsed", 0.0)),
                detail=replayed.get("detail"),
            )
            result.points.append(point)
            if store is not None:
                _record_point_to_store(store, spec_key, index - 1, point)
            if progress is not None:
                progress(
                    f"[{spec.label}] {index}/{total}: journaled point "
                    f"restored (n={result.points[-1].n})"
                )
            continue
        instance = spec.family.instance(param)
        started = time.perf_counter()
        cost, detail = spec.measure_point_detailed(
            instance, param, backend, runs=runs
        )
        elapsed = time.perf_counter() - started
        # Normalize the detail dict the way persistence will, so a
        # fresh result and its cache/store-restored twin are identical
        # (an int-keyed detail would otherwise come back str-keyed).
        detail = None if detail is None else _jsonify(detail)
        # .n, not .graph.num_nodes: implicit InstanceSpec points have no
        # graph — their size is a closed-form property of the spec.
        n = instance.n
        point = SweepPoint(
            param=param, n=n, cost=cost, elapsed=elapsed, detail=detail
        )
        result.points.append(point)
        if journal is not None:
            journal.append(
                {
                    "kind": "point",
                    "spec": spec_key,
                    "index": index - 1,
                    "param": repr(param),
                    "n": n,
                    "cost": cost,
                    "elapsed": elapsed,
                    "detail": detail,
                }
            )
        if store is not None:
            # Per point, not per sweep: a killed campaign keeps every
            # completed point (same crash-safety contract as the
            # journal, durable via sqlite instead of JSONL).
            _record_point_to_store(store, spec_key, index - 1, point)
        if progress is not None:
            progress(
                f"[{spec.label}] {index}/{total}: n={n} "
                f"{spec.metric if spec.measure is None else 'cost'}={cost:g} "
                f"({elapsed:.2f}s)"
            )
    if served_store == total and total > 0:
        result.from_store = True
        result.from_cache = True  # no measurement ran
    if cache is not None:
        cache.store(result)
    return result


def _record_sweep_to_store(store, spec_key: str, described, result) -> None:
    """Backfill a whole (cache-served) result into the store."""
    store.record_sweep_meta(
        spec_key, result.spec.label, described, len(result.points)
    )
    for index, point in enumerate(result.points):
        _record_point_to_store(store, spec_key, index, point)


def _record_point_to_store(store, spec_key: str, index: int, point) -> None:
    store.record_sweep_point(
        spec_key,
        index,
        param_repr=repr(point.param),
        n=point.n,
        cost=point.cost,
        detail=point.detail,
        elapsed=point.elapsed,
    )


def run_sweeps(
    specs: Iterable[SweepSpec],
    backend=None,
    cache: Optional[SweepCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal=None,
    store=None,
) -> List[SweepResult]:
    """Execute a batch of sweeps on one backend, in order.

    The closing progress line reports cache hits *separately* from
    executed sweeps — a cached result costs no measurements, so counting
    it as executed (as the summary used to) overstated the work done and
    made "N sweeps executed" unusable as a progress signal on warm
    caches.

    ``journal`` is a path (or an open :class:`~repro.faults.journal.Journal`)
    shared by the whole batch: completed grid points are appended
    durably, and a re-run of the same batch restores them instead of
    re-measuring (``repro sweep --journal``).  A journal written for a
    different batch is refused with
    :class:`~repro.faults.journal.JournalKeyError`.

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) persists
    every executed point across runs and serves stored points back;
    see :func:`run_sweep`.

    Within the batch, each distinct single-run measurement executes
    once: specs whose ``volume``/``distance``/``queries`` points read the
    same run (same instance object, algorithm factory, start nodes, seed
    and budgets) share its ``RunResult``.  Custom ``measure`` callables
    and ``success_rate`` points always execute.
    """
    # A backend constructed *here* (from a spec string) is owned here:
    # a process pool nobody else can reach must not outlive the batch.
    # Caller-provided backend objects (and the shared default) are the
    # caller's to close.
    owned_backend = backend is not None and not isinstance(
        backend, ExecutionBackend
    )
    backend = get_backend(backend)
    specs = list(specs)
    jour: Optional[Journal] = None
    owned_journal = False
    if journal is not None:
        if isinstance(journal, Journal):
            jour = journal
        else:
            jour = open_sweep_journal(journal, specs)
            owned_journal = True
    # The batch's run plan (see SweepSpec._measure): one execution per
    # distinct run, read by every point that measures it.  Dropped on
    # return; nothing persists beyond the batch.
    runs: Dict = {}
    try:
        results = [
            run_sweep(
                s, backend, cache=cache, progress=progress, journal=jour,
                store=store, runs=runs,
            )
            for s in specs
        ]
    finally:
        if owned_journal and jour is not None:
            jour.close()
        if owned_backend:
            backend.close()
    if progress is not None:
        cached = sum(1 for r in results if r.from_cache)
        line = (
            f"sweeps: {len(results) - cached} executed, {cached} cache "
            f"hit{'' if cached == 1 else 's'}"
        )
        if store is not None:
            served = sum(1 for r in results if r.from_store)
            line += f", {served} store hit{'' if served == 1 else 's'}"
        progress(line)
    return results


def cache_from_env(var: str = "REPRO_SWEEP_CACHE") -> Optional[SweepCache]:
    """A :class:`SweepCache` rooted at ``$REPRO_SWEEP_CACHE``, if set."""
    root = os.environ.get(var)
    return SweepCache(root) if root else None

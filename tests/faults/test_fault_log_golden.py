"""Golden fault log: the exact events one seeded plan produces.

A :class:`~repro.faults.plan.FaultPlan` is a pure schedule keyed on
``(scope, unit, attempt)``, and the supervisor's retry/degrade decisions
are a pure function of the failures it observes — so for a fixed call
sequence the backend's ``fault_log`` is a literal.  This pins the scope
numbering (a serial-shortcut ``run`` consumes a dispatch number, a
single-chunk ``run_trial_batch`` does not), the chunk coordinates, and
the degrade chain shm → pickle → serial on both transports.

The plan was picked so every ``kill-worker`` fires on a retry round with
exactly one pending chunk: a kill that shares a round with other chunks
races their completion against the pool's breakage, and the log would
not be a literal.
"""

import random

import pytest

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec import shm as shm_layer
from repro.exec.backends import (
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.graphs.generators import leaf_coloring_instance
from repro.model.implicit import iter_node_ids
from repro.problems.leaf_coloring import LeafColoring

PLAN = FaultPlan(
    seed=9435,
    kinds=("kill-worker", "corrupt-payload", "shm-attach-fail"),
    rate=0.5,
    max_faults=8,
    max_attempt=2,
)

# The events shared by both transports: chunk 1 of the pooled run and
# chunk 2 of the pooled trial batch are hit; everything else is clean.
_RUN_HEAD = [
    ("injected:corrupt-payload", "run:2", 1, 0, "injected"),
    ("corrupt-payload", "run:2", 1, 0, "retry"),
    ("injected:kill-worker", "run:2", 1, 1, "injected"),
    ("worker-crash", "run:2", 1, 1, "retry"),
]
_TRIALS_HEAD = [
    ("injected:corrupt-payload", "trials:3", 2, 0, "injected"),
    ("corrupt-payload", "trials:3", 2, 0, "retry"),
    ("injected:kill-worker", "trials:3", 2, 1, "injected"),
    ("worker-crash", "trials:3", 2, 1, "retry"),
    ("injected:kill-worker", "trials:3", 2, 2, "injected"),
]

GOLDEN = {
    # shm: the third try of run chunk 1 fails to attach and moves to
    # pickle; the third failure of trial chunk 2 ends its shm stage.
    "shm": {
        "run": _RUN_HEAD
        + [
            ("injected:shm-attach-fail", "run:2", 1, 2, "injected"),
            ("shm-attach", "run:2", 1, 2, "degrade:pickle"),
        ],
        "trials": _TRIALS_HEAD
        + [("worker-crash", "trials:3", 2, 2, "degrade:pickle")],
    },
    # pickle: shm-attach-fail never fires on a pickle chunk, and the third
    # failure of trial chunk 2 ends the pickle stage, so it runs serially.
    "pickle": {
        "run": _RUN_HEAD,
        "trials": _TRIALS_HEAD
        + [("worker-crash", "trials:3", 2, 2, "degrade:serial")],
    },
}


def _tuples(log):
    return [(e.kind, e.scope, e.unit, e.attempt, e.action) for e in log]


@pytest.mark.parametrize("transport", ["shm", "pickle"])
def test_seeded_plan_produces_the_golden_fault_log(transport):
    instance = leaf_coloring_instance(4, rng=random.Random(3))  # 4 chunks
    factory = FixedInstanceFactory(
        leaf_coloring_instance(3, rng=random.Random(3))
    )
    problem, algorithm = LeafColoring(), RWtoLeaf()
    few_nodes = list(iter_node_ids(instance))[:4]
    serial = SerialBackend()
    pool = ProcessPoolBackend(
        workers=2,
        chunk_size=8,
        shared_memory=transport == "shm",
        retry=RetryPolicy(base_delay=0.01, max_delay=0.05),
        fault_injector=FaultInjector(PLAN),
    )
    try:
        # One chunk each: both take the serial shortcut; only run's
        # consumes a dispatch number (run:1).
        head = pool.run(instance, algorithm, few_nodes, seed=5)
        assert head.outputs == serial.run(
            instance, algorithm, few_nodes, seed=5
        ).outputs
        assert pool.run_trial_batch(
            problem, factory, algorithm, range(4), base_seed=2
        ) == serial.run_trial_batch(
            problem, factory, algorithm, range(4), base_seed=2
        )
        assert len(pool.fault_log) == 0

        pooled = pool.run(instance, algorithm, seed=5)  # run:2
        expected = serial.run(instance, algorithm, seed=5)
        assert pooled.outputs == expected.outputs
        assert pooled.profiles == expected.profiles
        assert _tuples(pooled.fault_log) == GOLDEN[transport]["run"]

        outcomes = pool.run_trial_batch(  # trials:3, 3 chunks
            problem, factory, algorithm, range(24), base_seed=2
        )
        assert outcomes == serial.run_trial_batch(
            problem, factory, algorithm, range(24), base_seed=2
        )
    finally:
        pool.close()
    golden = GOLDEN[transport]
    assert _tuples(pool.fault_log) == golden["run"] + golden["trials"]
    assert shm_layer.published_segments() == []

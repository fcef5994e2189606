"""A kill that shares its round with other chunks still gives one log.

When a ``kill-worker`` fault breaks the pool, the siblings dispatched in
the same round race the breakage: some finish, some see
``BrokenProcessPool``, and an injected ``corrupt-payload`` sibling may
fail either way.  The supervisor therefore loses a broken round whole —
every chunk attempted in it records one ``worker-crash`` and is retried
— so the fault log is a pure function of the plan, however the race
goes.  This pins that on a 4-chunk round holding a kill, a corrupt
payload and two clean chunks.
"""

import random

import pytest

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec import shm as shm_layer
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.graphs.generators import leaf_coloring_instance

# Round 0 of run:1 draws corrupt-payload on chunk 0 and kill-worker on
# chunk 2; chunks 1 and 3 are clean, and no later attempt draws a fault.
PLAN = FaultPlan(
    seed=72,
    kinds=("kill-worker", "corrupt-payload", "transient-oserror"),
    rate=0.5,
    max_faults=8,
    max_attempt=0,
)

GOLDEN = [
    ("injected:corrupt-payload", "run:1", 0, 0, "injected"),
    ("injected:kill-worker", "run:1", 2, 0, "injected"),
    ("worker-crash", "run:1", 0, 0, "retry"),
    ("worker-crash", "run:1", 1, 0, "retry"),
    ("worker-crash", "run:1", 2, 0, "retry"),
    ("worker-crash", "run:1", 3, 0, "retry"),
]

RERUNS = 5


def _tuples(log):
    return [(e.kind, e.scope, e.unit, e.attempt, e.action) for e in log]


def test_plan_draws_a_shared_round():
    draws = [PLAN.draw("run:1", unit, 0) for unit in range(4)]
    assert draws == ["corrupt-payload", None, "kill-worker", None]


@pytest.mark.parametrize("transport", ["shm", "pickle"])
def test_shared_kill_round_gives_one_log(transport):
    instance = leaf_coloring_instance(4, rng=random.Random(3))  # 4 chunks
    expected = SerialBackend().run(instance, RWtoLeaf(), seed=5)
    logs = []
    for _ in range(RERUNS):
        injector = FaultInjector(PLAN)
        pool = ProcessPoolBackend(
            workers=2,
            chunk_size=8,
            shared_memory=transport == "shm",
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05),
            fault_injector=injector,
        )
        try:
            result = pool.run(instance, RWtoLeaf(), seed=5)
        finally:
            pool.close()
        assert result.outputs == expected.outputs
        assert result.profiles == expected.profiles
        assert len(injector.fired) == 2
        logs.append(_tuples(pool.fault_log))
    assert logs == [GOLDEN] * RERUNS
    assert shm_layer.published_segments() == []

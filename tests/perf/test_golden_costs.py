"""Probe costs of the tree constructions match the committed artifact.

Backend-vs-backend checks cannot see a drift in the structure predicates
(``repro.graphs.tree_structure``, ``repro.problems.balanced_tree``):
every backend runs the same predicate code.  This suite re-runs the
quick points of every BalancedTree and THC cell recorded in the
committed ``BENCH_repro.json`` and requires validity and every probe
cost to match the recorded values exactly, and pins the costs of the
cycle 2-coloring at n = 1024 (the largest Figure 1 point).
"""

import json
from pathlib import Path

import pytest

from repro.algorithms.classic_algs import TwoColoringGather
from repro.cli.bench import run_cell
from repro.exec.backends import SerialBackend
from repro.registry import FAMILIES, PROBLEMS, iter_compatible, load_components

GOLDEN = Path(__file__).resolve().parents[2] / "BENCH_repro.json"
TREE_PROBLEMS = ("balanced-tree", "hierarchical-thc", "hybrid-thc", "hh-thc")
COSTS = ("valid", "max_volume", "mean_volume", "max_distance", "max_queries")

load_components()
MATRIX = {cell.key: cell for cell in iter_compatible()}
RECORDS = [
    record
    for record in json.loads(GOLDEN.read_text())["cells"]
    if record["problem"].startswith(TREE_PROBLEMS)
]


def test_every_tree_problem_is_covered():
    covered = {r["problem"].split("(")[0] for r in RECORDS}
    assert covered == set(TREE_PROBLEMS)


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{r['algorithm']}@{r['family']}" for r in RECORDS]
)
def test_quick_points_reproduce_recorded_costs(record):
    cell = MATRIX[(record["problem"], record["algorithm"], record["family"])]
    rerun = run_cell(cell, "quick", SerialBackend(), seed=record["seed"])
    want = [
        {"param": p["param"], **{k: p[k] for k in COSTS}}
        for p in record["points"]
    ]
    got = [
        {"param": p["param"], **{k: p[k] for k in COSTS}}
        for p in rerun["points"]
    ]
    assert got == want


def test_two_coloring_cycle_1024_costs():
    """The Θ(n) specimen of Figures 1-2 at its largest sweep point.

    Every node walks the whole 1024-cycle: volume = queries = n and the
    explored subgraph is the cycle, so DIST = n/2.  The serial backend
    answers it through ``TwoColoringGather.run_node_batch``.
    """
    family = FAMILIES.get("cycle")
    instance = family.factory(1024)
    result = SerialBackend().run(instance, TwoColoringGather())
    assert len(result.profiles) == 1024
    assert (
        result.max_volume,
        result.max_distance,
        result.max_queries,
    ) == (1024, 512, 1024)
    assert {
        (p.volume, p.distance, p.queries) for p in result.profiles.values()
    } == {(1024, 512, 1024)}
    problem = PROBLEMS.get("cycle-2-coloring").factory()
    assert problem.validate(instance, result.outputs) == []

"""Probe costs of the tree constructions match the committed artifact.

Backend-vs-backend checks cannot see a drift in the structure predicates
(``repro.graphs.tree_structure``, ``repro.problems.balanced_tree``):
every backend runs the same predicate code.  This suite re-runs the
quick points of every BalancedTree and THC cell recorded in the
committed ``BENCH_repro.json`` and requires validity and every probe
cost to match the recorded values exactly.
"""

import json
from pathlib import Path

import pytest

from repro.cli.bench import run_cell
from repro.exec.backends import SerialBackend
from repro.registry import iter_compatible, load_components

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

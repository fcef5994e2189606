"""The sweep run plan: one execution per distinct run, same rows.

``run_sweeps`` executes each distinct single-run measurement of a batch
once (same instance object, algorithm factory, start nodes, seed and
budgets) and lets every point over that run read its ``RunResult``.
The golden file holds the ``(label, ns, costs, details)`` rows of every
Table 1 and Figure 1-2 suite as measured when every point still ran on
its own; the rows must not move.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.exec.backends import SerialBackend
from repro.exec.sweep import InstanceFamily, SweepSpec, run_sweeps
from repro.graphs.generators import balanced_tree_instance
from repro.registry import ALGORITHMS, load_components
from repro.suites import get_suite, run_suite, suite_names

GOLDEN = Path(__file__).parent / "golden" / "sweep_rows.json"
load_components()
PAPER_SUITES = [
    name
    for name in suite_names()
    if name.startswith(("table1/", "fig1/", "fig2/"))
]


class CountingBackend(SerialBackend):
    """A serial backend that records the key of every ``run`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run(self, instance, algorithm, nodes=None, **kwargs):
        self.calls.append(
            (
                id(instance),
                algorithm.name,
                None if nodes is None else tuple(nodes),
                kwargs.get("seed"),
                kwargs.get("max_volume"),
                kwargs.get("max_queries"),
            )
        )
        return super().run(instance, algorithm, nodes, **kwargs)


def _rows(results):
    return [
        {
            "label": r.spec.label,
            "ns": r.ns,
            "costs": r.costs,
            "details": [p.detail for p in r.points],
        }
        for r in results
    ]


def test_paper_suites_reproduce_the_golden_rows():
    golden = json.loads(GOLDEN.read_text())
    assert [row["suite"] for row in golden] == [
        name
        for name in PAPER_SUITES
        for _ in get_suite(name).build()
    ]
    got = []
    for name in PAPER_SUITES:
        got.extend(_rows(run_suite(name, printer=None)))
    assert sum(len(row["ns"]) for row in got) == 135
    assert got == [
        {key: row[key] for key in ("label", "ns", "costs", "details")}
        for row in golden
    ]


# Distinct runs per suite: 98 for the 135 points.  Every Table 1 suite
# shares R-DIST with D-DIST (one run per param), BalancedTree also R-VOL
# with D-VOL (so its four rows cost two runs per param), and fig2 its
# two Cole-Vishkin rows.
RUNS = {
    "table1/leaf-coloring": 15,
    "table1/balanced-tree": 12,
    "table1/hierarchical-thc": 15,
    "table1/hybrid-thc": 18,
    "table1/hh-thc": 15,
    "fig1/distance-landscape": 15,
    "fig2/volume-landscape": 8,
}


def test_every_paper_suite_has_a_run_count():
    assert sorted(RUNS) == sorted(PAPER_SUITES)


@pytest.mark.parametrize("name", PAPER_SUITES)
def test_one_backend_run_per_distinct_run(name):
    backend = CountingBackend()
    run_suite(name, backend=backend, printer=None)
    assert set(Counter(backend.calls).values()) == {1}
    assert len(backend.calls) == RUNS[name]


def test_second_run_against_the_store_executes_nothing(tmp_result_store):
    specs = get_suite("table1/balanced-tree").build()
    first = run_sweeps(specs, SerialBackend(), store=tmp_result_store)
    backend = CountingBackend()
    progress = []
    second = run_sweeps(
        get_suite("table1/balanced-tree").build(),
        backend,
        store=tmp_result_store,
        progress=progress.append,
    )
    assert backend.calls == []
    assert all(r.from_store for r in second)
    assert _rows(second) == _rows(first)
    assert progress[-1].endswith("4 store hits")


def _journal_points(path):
    lines = Path(path).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    return [r for r in records if r.get("kind") == "point"]


def test_journal_resume_restores_reused_points(tmp_path):
    path = tmp_path / "sweep.jsonl"
    specs = get_suite("table1/balanced-tree").build()
    first = run_sweeps(specs, SerialBackend(), journal=path)
    params = len(specs[0].family.params)
    # Reused points are journaled under their own spec key and index.
    keys = {(r["spec"], r["index"]) for r in _journal_points(path)}
    assert keys == {
        (spec.cache_key(), index)
        for spec in specs
        for index in range(params)
    }
    # A crash after R-VOL's points: D-VOL would have reused R-VOL's run,
    # which the resumed batch restores from the journal rather than
    # executing, so D-VOL's points now execute and land under D-VOL.
    header, *records = Path(path).read_text().splitlines()
    d_vol_key = specs[3].cache_key()
    kept = [
        line for line in records if json.loads(line).get("spec") != d_vol_key
    ]
    path.write_text("\n".join([header] + kept) + "\n")
    backend = CountingBackend()
    progress = []
    resumed = run_sweeps(
        get_suite("table1/balanced-tree").build(),
        backend,
        journal=path,
        progress=progress.append,
    )
    assert len(backend.calls) == params
    assert _rows(resumed) == _rows(first)
    restored = [line for line in progress if "journaled point restored" in line]
    assert len(restored) == 3 * params
    assert any(line.startswith("[BalancedTree D-DIST]") for line in restored)
    assert {(r["spec"], r["index"]) for r in _journal_points(path)} == keys
    # A full journal replays everything, reused points included.
    backend = CountingBackend()
    replayed = run_sweeps(
        get_suite("table1/balanced-tree").build(), backend, journal=path
    )
    assert backend.calls == []
    assert _rows(replayed) == _rows(first)


def test_budgets_and_seeds_split_runs():
    family = InstanceFamily("bt", balanced_tree_instance, [2, 3])
    algo = ALGORITHMS.get("balanced-tree/distance").factory
    specs = [
        SweepSpec("a", "", family, "distance", algo),
        SweepSpec("b", "", family, "volume", algo),
        SweepSpec("c", "", family, "queries", algo),
        SweepSpec("d", "", family, "distance", algo, seed=1),
        SweepSpec("e", "", family, "distance", algo, max_volume=10**6),
        SweepSpec("f", "", family, "distance", algo, max_queries=10**6),
        SweepSpec(
            "g", "", family, "distance", algo, nodes=lambda inst, p: [1]
        ),
        SweepSpec(
            "h", "", family, measure=lambda inst, p: inst.graph.num_nodes
        ),
    ]
    backend = CountingBackend()
    results = run_sweeps(specs, backend)
    # a, b, c share; d, e, f and g each need their own run.
    assert len(backend.calls) == 5 * len(family.params)
    # A reusing point reads its own metric off the shared run.
    for index in (1, 2):
        alone = run_sweeps([specs[index]], SerialBackend())[0]
        assert alone.costs == results[index].costs

"""Counting guard: a BalancedTree local solve classifies each node once.

``balanced_tree.reference_solution`` is the level-one solve of the
Hybrid-THC and HH-THC waypoint algorithms, and the bulk of their
Monte-Carlo time.  Its topology memoizes Definition 3.3, so each node's
``is_internal`` is worked out once however many predicates ask.  The
guard counts rather than times, so it is deterministic:

* every evaluation of the Definition 3.3 body, per node (at most one);
* every label read, per node, through a counting labeling.  One
  classification plus the Definition 4.2 compatibility check and the
  Lemma 4.7 output read a node's label at most 17 times; classifying
  afresh on every predicate call read it up to 47 times.
"""

from collections import Counter

import pytest

import repro.graphs.tree_structure as ts
from repro.graphs.generators import balanced_tree_instance
from repro.graphs.labelings import Labeling
from repro.problems.balanced_tree import reference_solution

#: Label reads per node allowed for one solve (see the module docstring).
READS_PER_NODE = 17


class CountingLabeling(Labeling):
    """A labeling that counts every read, per node."""

    def __init__(self, inner: Labeling) -> None:
        super().__init__({v: inner.get(v) for v in inner.nodes()})
        self.reads = Counter()

    def get(self, node_id):
        self.reads[node_id] += 1
        return super().get(node_id)


CASES = [
    pytest.param(depth, compatible, id=f"depth{depth}-{tag}")
    for depth in (3, 6, 8)
    for compatible, tag in ((True, "compatible"), (False, "broken"))
]


@pytest.mark.parametrize("depth, compatible", CASES)
def test_reference_solution_classifies_each_node_once(
    depth, compatible, monkeypatch
):
    instance = balanced_tree_instance(depth, compatible=compatible)
    evaluations = Counter()
    body = ts._internal

    def counted(t, v):
        evaluations[v] += 1
        return body(t, v)

    monkeypatch.setattr(ts, "_internal", counted)
    reference_solution(instance)
    nodes = set(instance.graph.nodes())
    assert set(evaluations) <= nodes
    assert max(evaluations.values()) == 1


@pytest.mark.parametrize("depth, compatible", CASES)
def test_reference_solution_label_reads_stay_per_node_bounded(
    depth, compatible
):
    instance = balanced_tree_instance(depth, compatible=compatible)
    reads = CountingLabeling(instance.labeling)
    instance.labeling = reads
    reference_solution(instance)
    n = instance.graph.num_nodes
    assert set(reads.reads) == set(instance.graph.nodes())
    assert max(reads.reads.values()) <= READS_PER_NODE
    assert sum(reads.reads.values()) <= READS_PER_NODE * n

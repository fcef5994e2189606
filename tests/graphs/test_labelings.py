"""``Labeling`` read access."""

from repro.graphs.labelings import Labeling, NodeLabel


def test_get_miss_returns_fresh_empty_label_and_inserts_nothing():
    labeling = Labeling({1: NodeLabel(parent=1)})
    first = labeling.get(2)
    second = labeling.get(2)
    assert first == NodeLabel() and second == NodeLabel()
    assert first is not second
    first.parent = 3  # a miss's label is a throwaway: editing it sticks nowhere
    assert labeling.get(2) == NodeLabel()
    assert 2 not in labeling
    assert len(labeling) == 1


def test_get_hit_returns_the_stored_label():
    stored = NodeLabel(parent=1, color="R")
    labeling = Labeling({1: stored})
    assert labeling.get(1) is stored

"""Memoized vs plain topologies: the Definition 3.3 memo changes nothing.

An :class:`~repro.graphs.tree_structure.InstanceTopology` memoizes each
node's ``is_internal`` answer.  Every instance-level consumer —
classification, compatibility, the BalancedTree / Hybrid-THC / HH-THC
reference solutions and ``LCLProblem.validate`` — must give the same
answer through it as through a plain topology that does every read.
Inputs are the generator families with hypothesis-drawn corruptions on
top: dangling ports, ⊥ ports, re-pointed and swapped port fields, and
G_T cycles (the cyclic random-tree family).
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphs.tree_structure as ts
import repro.lcl.base as lcl_base
import repro.problems.balanced_tree as bt
import repro.problems.hierarchical_thc as hierarchical
import repro.problems.hybrid_thc as hybrid
import repro.problems.leaf_coloring as leaf
from repro.graphs.generators import (
    balanced_tree_instance,
    hh_thc_instance,
    hierarchical_thc_instance,
    hybrid_thc_instance,
    leaf_coloring_instance,
    random_tree_instance,
)
from repro.graphs.labelings import Instance
from repro.lcl.verifier import LocalityGuard, LocalityViolation, validate_locally
from repro.model.views import ProbeTopology
from repro.problems.balanced_tree import BalancedTree
from repro.problems.hh_thc import HHTHC
from repro.problems.hh_thc import reference_solution as hh_reference

#: Every module that builds an InstanceTopology on the paths under test.
TOPOLOGY_MODULES = (ts, bt, hybrid, leaf, lcl_base)
MEMOIZING = ts.InstanceTopology

FAMILIES = {
    "balanced-tree": lambda r: balanced_tree_instance(
        r.randint(2, 4), compatible=r.random() < 0.5, rng=r
    ),
    "hybrid-thc": lambda r: hybrid_thc_instance(
        2, r.randint(2, 3), r.randint(2, 3), rng=r,
        compatible=r.random() < 0.5,
    ),
    "hh-thc": lambda r: hh_thc_instance(2, 3, 2, 2, 2, rng=r),
    "hierarchical-thc": lambda r: hierarchical_thc_instance(
        2, r.randint(2, 4), rng=r
    ),
    "leaf-coloring": lambda r: leaf_coloring_instance(r.randint(2, 4)),
    "random-tree-cyclic": lambda r: random_tree_instance(
        r.randint(10, 40), rng=r, with_cycle=True
    ),
}

PORT_FIELDS = (
    "parent", "left_child", "right_child", "left_neighbor", "right_neighbor",
)

corruption = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # node index
    st.sampled_from(("dangle", "bottom", "repoint", "swap", "level")),
    st.sampled_from(PORT_FIELDS),
    st.sampled_from(PORT_FIELDS),
    st.integers(min_value=1, max_value=5),
)


class Forgetful(dict):
    """A memo that keeps nothing: every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class PlainTopology(MEMOIZING):
    """An instance topology without a memo: every call re-reads.

    A subclass, so it stands in for ``InstanceTopology`` wherever the
    test patches that name, the type check in ``is_internal`` included.
    """

    built = 0

    def __init__(self, instance: Instance) -> None:
        PlainTopology.built += 1
        super().__init__(instance)
        self.internal = Forgetful()


def corrupt(instance: Instance, corruptions) -> Instance:
    labeling = instance.labeling.copy()
    nodes = sorted(instance.graph.nodes())
    for index, op, field, other, value in corruptions:
        node = nodes[index % len(nodes)]
        label = labeling[node]
        if op == "dangle":
            # One past the node's last reserved port: resolves to nothing.
            setattr(label, field, instance.graph.num_ports(node) + 1)
        elif op == "bottom":
            setattr(label, field, None)
        elif op == "repoint":
            setattr(label, field, value)
        elif op == "swap":
            a, b = getattr(label, field), getattr(label, other)
            setattr(label, field, b)
            setattr(label, other, a)
        else:
            label.level = None if value == 5 else value
    return Instance(
        graph=instance.graph, labeling=labeling, n=instance.n,
        name=instance.name, meta=instance.meta,
    )


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared across topologies
        return (type(exc).__name__, str(exc))


def observe(instance: Instance):
    """Every instance-level consumer of the Definition 3.3 predicates."""
    solved = {
        "balanced": (BalancedTree(), outcome(bt.reference_solution, instance)),
        "hybrid": (
            hybrid.HybridTHC(2), outcome(hybrid.reference_solution, instance, 2)
        ),
        "hh": (HHTHC(2, 3), outcome(hh_reference, instance, 2, 3)),
        "hierarchical": (
            hierarchical.HierarchicalTHC(2),
            outcome(hierarchical.reference_solution, instance, 2),
        ),
        "leaf": (leaf.LeafColoring(), outcome(leaf.reference_solution, instance)),
    }
    seen = {
        "classify_all": outcome(ts.classify_all, instance),
        "derive_gt": outcome(ts.derive_gt, instance),
        "compatibility_map": outcome(bt.compatibility_map, instance),
    }
    for name, (problem, outputs) in solved.items():
        seen[name] = outputs
        if isinstance(outputs, dict):
            seen[name + ".validate"] = outcome(
                problem.validate, instance, outputs
            )
    return seen


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**16),
    corruptions=st.lists(corruption, max_size=6),
)
def test_memo_and_plain_topologies_agree(family, seed, corruptions):
    instance = corrupt(FAMILIES[family](random.Random(seed)), corruptions)
    memoized = observe(instance)
    built = PlainTopology.built
    with pytest.MonkeyPatch.context() as patch:
        for module in TOPOLOGY_MODULES:
            patch.setattr(module, "InstanceTopology", PlainTopology)
        plain = observe(instance)
    assert PlainTopology.built > built  # the plain path really ran
    assert memoized == plain


class Forwarding:
    """A wrapper that forwards every attribute to an instance topology."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class InstanceView:
    """The two probe-view calls ``ProbeTopology`` makes, over an instance."""

    def __init__(self, instance: Instance) -> None:
        self._t = ts.InstanceTopology(instance)

    def info(self, node_id):
        return SimpleNamespace(label=self._t.label(node_id))

    def query(self, node_id, port):
        u = self._t.node_at(node_id, port)
        return None if u is None else SimpleNamespace(node_id=u)


def test_only_instance_topologies_memoize(monkeypatch):
    instance = balanced_tree_instance(3)
    root = instance.meta["root"]
    evaluations = []
    body = ts._internal
    monkeypatch.setattr(
        ts, "_internal", lambda t, v: evaluations.append(v) or body(t, v)
    )
    memoizing = ts.InstanceTopology(instance)
    ts.is_internal(memoizing, root)
    ts.is_internal(memoizing, root)
    assert evaluations == [root]
    for t in (
        Forwarding(memoizing),
        LocalityGuard(instance, root, 3),
        ProbeTopology(InstanceView(instance)),
    ):
        evaluations.clear()
        ts.is_internal(t, root)
        ts.is_internal(t, root)
        assert evaluations == [root, root]


def test_validate_locally_still_catches_out_of_radius_reads():
    instance = balanced_tree_instance(4, compatible=False)
    problem = BalancedTree()
    outputs = bt.reference_solution(instance)
    assert validate_locally(problem, instance, outputs) == problem.validate(
        instance, outputs
    )
    # BalancedTree's check reads its children's lateral neighbors, three
    # hops out; at radius 1 some read must fall outside the guard.
    with pytest.raises(LocalityViolation):
        validate_locally(problem, instance, outputs, radius=1)
    # Re-asking a classification the guard has already answered still
    # reads through the guard.
    root = instance.meta["root"]
    guard = LocalityGuard(instance, root, 1)
    assert ts.is_internal(guard, root)
    guard._allowed.discard(root)
    with pytest.raises(LocalityViolation):
        ts.is_internal(guard, root)

"""The CSR gather kernel must replicate the scalar gather bit-for-bit.

DESIGN.md §9.3's contract: :meth:`CsrGatherKernel.ball` returns the same
:class:`~repro.model.views.Ball` — content *and* every dict insertion
order — and the same :class:`~repro.model.probe.CostProfile` as running
``gather_ball`` through the scalar probe engine, for every start node
and radius.  ``summarize`` agrees with ``ball`` on the flat summary.

``TwoColoringGather.run_node_batch`` (§9.5) answers a whole successor
cycle from one walk; it must equal the scalar runs on any cycles and any
start-node list, and refuse (``None``) every walk that is not a cycle
through its start.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.classic_algs import TwoColoringGather
from repro.algorithms.generic import FullGatherAlgorithm
from repro.graphs.builders import path_graph
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.graphs.labelings import Instance, Labeling, NodeLabel
from repro.graphs.port_graph import PortGraph, PortGraphError
from repro.model.batched import CsrGatherKernel, gather_kernel
from repro.model.oracle import NodeInfo, StaticOracle, compile_oracle
from repro.model.probe import CostProfile, ProbeAlgorithm, execute_at
from repro.model.views import gather_ball
from repro.registry import iter_compatible, load_components

load_components()
CELLS = list(iter_compatible())


class _BallCapture(ProbeAlgorithm):
    """Scalar reference: run ``gather_ball`` and return the Ball itself."""

    name = "ball-capture"

    def __init__(self, radius: int) -> None:
        self.radius = radius

    def run(self, view):
        return gather_ball(view, self.radius)


def _instances():
    """A diverse sample: generator families plus registry quick points."""
    out = [
        balanced_tree_instance(3, rng=random.Random(1)),
        leaf_coloring_instance(4, rng=random.Random(2)),
    ]
    for cell in CELLS[:: max(1, len(CELLS) // 5)]:
        out.append(cell.family.instance(cell.family.quick[0]))
    return out


def _assert_balls_identical(scalar, batched):
    assert batched.center == scalar.center
    assert batched.radius == scalar.radius
    # Content equality *and* insertion-order equality, at every level.
    assert batched.distance == scalar.distance
    assert list(batched.distance) == list(scalar.distance)
    assert batched.info == scalar.info
    assert list(batched.info) == list(scalar.info)
    assert batched.adjacency == scalar.adjacency
    assert list(batched.adjacency) == list(scalar.adjacency)
    for node, row in scalar.adjacency.items():
        assert list(batched.adjacency[node]) == list(row)


class TestBallReplication:
    @pytest.mark.parametrize("radius", [0, 1, 2, 10**6])
    def test_ball_matches_scalar_gather(self, radius):
        for instance in _instances():
            oracle = compile_oracle(instance)
            kernel = oracle.gather_kernel()
            for node in instance.graph.nodes():
                scalar_ball, scalar_profile = execute_at(
                    oracle, _BallCapture(radius), node
                )
                ball, profile = kernel.ball(node, radius)
                _assert_balls_identical(scalar_ball, ball)
                assert profile == scalar_profile

    def test_summarize_agrees_with_ball(self):
        for instance in _instances():
            kernel = compile_oracle(instance).gather_kernel()
            radius = max(1, instance.n)
            for node in instance.graph.nodes():
                ball, profile = kernel.ball(node, radius)
                size, depth, queries = kernel.summarize(node, radius)
                assert size == len(ball.distance) == profile.volume
                assert depth == profile.distance
                assert queries == profile.queries


class TestDispatch:
    def test_compiled_oracle_memoizes_kernel(self):
        oracle = compile_oracle(balanced_tree_instance(2))
        kernel = gather_kernel(oracle)
        assert isinstance(kernel, CsrGatherKernel)
        assert gather_kernel(oracle) is kernel

    def test_reference_oracle_has_no_kernel(self):
        oracle = StaticOracle(balanced_tree_instance(2))
        assert gather_kernel(oracle) is None

    def test_full_gather_batch_falls_back_without_kernel(self):
        instance = balanced_tree_instance(2)
        algorithm = FullGatherAlgorithm(lambda local: {}, name="noop")
        assert algorithm.run_node_batch(StaticOracle(instance), []) is None

    def test_full_gather_batch_matches_scalar_runs(self):
        cells = [
            c
            for c in CELLS
            if isinstance(c.algorithm.make(), FullGatherAlgorithm)
        ]
        assert cells, "registry lost its full-gather algorithms"
        cell = cells[0]
        instance = cell.family.instance(cell.family.quick[0])
        oracle = compile_oracle(instance)
        algorithm = cell.algorithm.make()
        nodes = list(instance.graph.nodes())
        batched = algorithm.run_node_batch(oracle, nodes)
        assert batched is not None
        assert [node for node, _, _ in batched] == nodes
        for node, output, profile in batched:
            scalar_output, scalar_profile = execute_at(
                oracle, algorithm, node
            )
            assert output == scalar_output
            assert profile == scalar_profile


# ----------------------------------------------------------------------
# TwoColoringGather: one successor-cycle walk per cycle (DESIGN.md §9.5)
# ----------------------------------------------------------------------
class _SuccessorOracle:
    """A bare oracle over a successor map: port 2 only, any shape.

    Real port graphs have no self-loops, so a length-1 successor cycle
    (and a ρ-shaped walk of any size) is easiest to state as a map.  The
    non-``None`` ``gather_kernel`` marks the oracle as batch-capable.
    """

    def __init__(self, successor):
        self._successor = successor
        self.n = len(successor)

    def resolve(self, node, port):
        if node not in self._successor:
            raise PortGraphError(f"unknown node {node}")
        return self._successor[node] if port == 2 else None

    def node_info(self, node):
        return NodeInfo(node_id=node, degree=1, label=NodeLabel(), ports=(2,))

    def gather_kernel(self):
        return self


def _scalar_runs(oracle, nodes):
    return [
        (node,) + execute_at(oracle, TwoColoringGather(), node)
        for node in nodes
    ]


@st.composite
def _cycles(draw, min_length):
    """Disjoint cycles with permuted IDs, plus a start-node list."""
    lengths = draw(
        st.lists(st.integers(min_length, 64), min_size=1, max_size=4)
    )
    ids = draw(
        st.lists(
            st.integers(1, 10**6),
            min_size=sum(lengths),
            max_size=sum(lengths),
            unique=True,
        )
    )
    cycles, at = [], 0
    for length in lengths:
        cycles.append(ids[at:at + length])
        at += length
    # Subsets, duplicates and arbitrary order all at once.
    nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=40))
    return cycles, nodes


def _cycle_instance(cycles):
    """A port graph whose port-2 walks are exactly ``cycles``."""
    graph = PortGraph(max_degree=3)
    for cycle in cycles:
        for node in cycle:
            graph.add_node(node)
        if len(cycle) == 2:
            graph.add_edge(cycle[0], 2, cycle[1], 2)
            continue
        for node, successor in zip(cycle, cycle[1:] + cycle[:1]):
            graph.add_edge(node, 2, successor, 1)
    return Instance(graph=graph, labeling=Labeling())


class TestTwoColoringBatch:
    @settings(max_examples=60, deadline=None)
    @given(_cycles(min_length=1))
    def test_matches_scalar_on_any_successor_cycles(self, drawn):
        cycles, nodes = drawn
        successor = {
            node: nxt
            for cycle in cycles
            for node, nxt in zip(cycle, cycle[1:] + cycle[:1])
        }
        oracle = _SuccessorOracle(successor)
        batched = TwoColoringGather().run_node_batch(oracle, nodes)
        assert batched == _scalar_runs(oracle, nodes)

    @settings(max_examples=40, deadline=None)
    @given(_cycles(min_length=2))
    def test_matches_scalar_on_compiled_cycles(self, drawn):
        cycles, nodes = drawn
        oracle = compile_oracle(_cycle_instance(cycles))
        batched = TwoColoringGather().run_node_batch(oracle, nodes)
        assert batched == _scalar_runs(oracle, nodes)

    def test_costs_follow_the_cycle_length(self):
        for length in (1, 2, 3, 64):
            cycle = list(range(10, 10 + length))
            oracle = _SuccessorOracle(
                dict(zip(cycle, cycle[1:] + cycle[:1]))
            )
            (_, _, profile), = TwoColoringGather().run_node_batch(
                oracle, cycle[:1]
            )
            assert profile == CostProfile(length, length // 2, length, 0)

    def test_dangling_successor_falls_back(self):
        instance = Instance(graph=path_graph(5), labeling=Labeling())
        oracle = compile_oracle(instance)
        for node in instance.graph.nodes():
            assert TwoColoringGather().run_node_batch(oracle, [node]) is None

    def test_rho_shaped_walk_falls_back(self):
        # A 1000-node tail into a 1000-node loop: the walk from the tail
        # never returns to its start, and must be refused, not followed.
        successor = {i: i + 1 for i in range(1, 2000)}
        successor[2000] = 1001
        oracle = _SuccessorOracle(successor)
        algorithm = TwoColoringGather()
        assert algorithm.run_node_batch(oracle, [1]) is None
        assert algorithm.run_node_batch(oracle, [1500, 1]) is None
        loop = algorithm.run_node_batch(oracle, [1500, 1001])
        assert loop == _scalar_runs(oracle, [1500, 1001])

    def test_rho_shaped_port_graph_falls_back(self):
        # x -> y -> z -> w -> y: w's successor edge enters y on port 3.
        x, y, z, w = 1, 2, 3, 4
        graph = PortGraph(max_degree=3)
        for node in (x, y, z, w):
            graph.add_node(node)
        graph.add_edge(x, 2, y, 1)
        graph.add_edge(y, 2, z, 1)
        graph.add_edge(z, 2, w, 1)
        graph.add_edge(w, 2, y, 3)
        oracle = compile_oracle(Instance(graph=graph, labeling=Labeling()))
        algorithm = TwoColoringGather()
        assert algorithm.run_node_batch(oracle, [x]) is None
        assert algorithm.run_node_batch(oracle, [w, y, z]) == _scalar_runs(
            oracle, [w, y, z]
        )

    def test_reference_oracle_falls_back(self):
        instance = _cycle_instance([[5, 3, 9, 1]])
        assert (
            TwoColoringGather().run_node_batch(StaticOracle(instance), [5])
            is None
        )

"""Shared-memory transport: fidelity, lifecycle, and leak-freedom.

The contract (DESIGN.md §9.2): the publisher owns the segment and
unlinks it at the end of the dispatch that published it — success,
worker exception, or ``close()`` — so ``published_segments()`` is empty
and ``/dev/shm`` holds no new ``psm_*`` entries after every backend
interaction.  Attached instances must round-trip the complete oracle
surface, and results must be bitwise identical with shared memory on,
off, and serial.
"""

import os
import pickle
import random

import pytest

from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec import shm
from repro.exec.backends import (
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.model.probe import ProbeAlgorithm
from repro.model.runner import run_algorithm
from repro.problems.leaf_coloring import LeafColoring

INSTANCE = balanced_tree_instance(4, rng=random.Random(7))
LEAF_INSTANCE = leaf_coloring_instance(4, rng=random.Random(5))


def _shm_entries():
    """Current ``psm_*`` segment files (POSIX shm lives in /dev/shm)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm host
        return set()


class ExplodingAlgorithm(ProbeAlgorithm):
    """Module-level (hence picklable) algorithm that fails in workers."""

    name = "exploding"

    def run(self, view):
        raise RuntimeError("boom")


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave the registry and /dev/shm as it found them."""
    before = _shm_entries()
    assert shm.published_segments() == []
    yield
    assert shm.published_segments() == []
    assert _shm_entries() == before


class TestRoundTrip:
    def test_attached_instance_matches_original(self):
        handle = shm.publish_instance(INSTANCE)
        try:
            attachment = shm.attach_instance(handle)
            try:
                clone = attachment.instance
                frozen = INSTANCE.graph.freeze()
                assert clone.n == INSTANCE.n
                assert clone.name == INSTANCE.name
                assert dict(clone.meta) == dict(INSTANCE.meta)
                assert list(clone.graph.nodes()) == list(frozen.nodes())
                for node in frozen.nodes():
                    assert clone.graph.degree(node) == frozen.degree(node)
                    assert clone.label(node) == INSTANCE.label(node)
                    ports = range(1, frozen.num_ports(node) + 1)
                    for port in ports:
                        assert clone.graph.neighbor_at(
                            node, port
                        ) == frozen.neighbor_at(node, port)
            finally:
                attachment.close()
        finally:
            shm.unpublish(handle)

    def test_handle_pickles_in_constant_size(self):
        small = shm.publish_instance(balanced_tree_instance(2))
        large = shm.publish_instance(balanced_tree_instance(6))
        try:
            small_len = len(pickle.dumps(small))
            large_len = len(pickle.dumps(large))
            # The handle is name + six integers — never the instance.
            assert small_len < 512
            assert abs(large_len - small_len) < 64
        finally:
            shm.unpublish(small)
            shm.unpublish(large)

    def test_unpublish_is_idempotent(self):
        handle = shm.publish_instance(INSTANCE)
        shm.unpublish(handle)
        shm.unpublish(handle)


class TestBackendLifecycle:
    def test_run_unlinks_after_normal_completion(self):
        with ProcessPoolBackend(workers=2, chunk_size=4) as pool:
            run_algorithm(INSTANCE, BalancedTreeDistanceSolver(),
                          backend=pool)
            assert shm.published_segments() == []

    def test_run_unlinks_after_worker_exception(self):
        with ProcessPoolBackend(workers=2, chunk_size=4) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                run_algorithm(INSTANCE, ExplodingAlgorithm(), backend=pool)
            assert shm.published_segments() == []

    def test_trial_batch_unlinks_after_completion(self):
        factory = FixedInstanceFactory(LEAF_INSTANCE)
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            pool.run_trial_batch(
                LeafColoring(), factory, RWtoLeaf(), range(6), base_seed=1
            )
            assert shm.published_segments() == []

    @pytest.mark.parametrize("shared_memory", [True, False])
    def test_unpicklable_algorithm_falls_back_in_process(
        self, shared_memory
    ):
        """A payload that cannot pickle runs in-process, bitwise-equal.

        On shm the instance is published before pickling fails, so the
        fallback must also unpublish it; nothing is a fault either way.
        """

        class LocalRWtoLeaf(RWtoLeaf):  # local class: unpicklable
            pass

        algorithm = LocalRWtoLeaf()
        factory = FixedInstanceFactory(LEAF_INSTANCE)
        serial = SerialBackend()
        with ProcessPoolBackend(
            workers=2, chunk_size=4, shared_memory=shared_memory
        ) as pool:
            result = pool.run(LEAF_INSTANCE, algorithm, seed=3)
            expected = serial.run(LEAF_INSTANCE, algorithm, seed=3)
            assert result.outputs == expected.outputs
            assert result.profiles == expected.profiles
            assert result.fault_log is None
            assert shm.published_segments() == []
            outcomes = pool.run_trial_batch(
                LeafColoring(), factory, algorithm, range(12), base_seed=1
            )
            assert outcomes == serial.run_trial_batch(
                LeafColoring(), factory, algorithm, range(12), base_seed=1
            )
            assert shm.published_segments() == []
            assert len(pool.fault_log) == 0

    def test_close_drains_live_handles(self):
        pool = ProcessPoolBackend(workers=2)
        handle = pool._publish(INSTANCE)
        assert handle is not None
        assert shm.published_segments() == [handle.name]
        pool.close()
        assert shm.published_segments() == []


class TestEquivalence:
    def test_shm_and_pickle_transport_are_bitwise_identical(self):
        serial = run_algorithm(
            INSTANCE, BalancedTreeDistanceSolver(), backend=SerialBackend()
        )
        for shared in (True, False):
            with ProcessPoolBackend(
                workers=2, chunk_size=4, shared_memory=shared
            ) as pool:
                pooled = run_algorithm(
                    INSTANCE, BalancedTreeDistanceSolver(), backend=pool
                )
            assert pooled.outputs == serial.outputs
            assert pooled.profiles == serial.profiles

    def test_randomized_trials_identical_across_transports(self):
        factory = FixedInstanceFactory(LEAF_INSTANCE)
        baseline = SerialBackend().run_trial_batch(
            LeafColoring(), factory, RWtoLeaf(), range(8), base_seed=3
        )
        for shared in (True, False):
            with ProcessPoolBackend(
                workers=2, chunk_size=2, shared_memory=shared
            ) as pool:
                outcomes = pool.run_trial_batch(
                    LeafColoring(), factory, RWtoLeaf(), range(8),
                    base_seed=3,
                )
            assert outcomes == baseline

    def test_non_fixed_factory_uses_pickle_path(self):
        """Per-trial instance draws cannot share one segment: still OK."""
        def factory(trial):
            return LEAF_INSTANCE

        # A local function does not pickle, so this also exercises the
        # fall-back-to-serial safety net with shared memory enabled.
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            outcomes = pool.run_trial_batch(
                LeafColoring(), factory, RWtoLeaf(), range(4), base_seed=3
            )
        baseline = SerialBackend().run_trial_batch(
            LeafColoring(), factory, RWtoLeaf(), range(4), base_seed=3
        )
        assert outcomes == baseline


class TestSpecParsing:
    def test_transport_suffixes(self):
        shm_backend = get_backend("process:2:shm")
        pickle_backend = get_backend("process:2:pickle")
        try:
            assert shm_backend.workers == 2
            assert shm_backend.shared_memory is True
            assert pickle_backend.workers == 2
            assert pickle_backend.shared_memory is False
        finally:
            shm_backend.close()
            pickle_backend.close()

    def test_default_transport_is_shared_memory(self):
        backend = get_backend("process:3")
        try:
            assert backend.shared_memory is True
        finally:
            backend.close()

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            get_backend("process:2:carrier-pigeon")


class TestChunking:
    def test_tiny_trailing_chunk_is_merged(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            chunks = pool._chunk(list(range(21)))
            assert [len(c) for c in chunks] == [10, 11]
            assert [x for c in chunks for x in c] == list(range(21))
        finally:
            pool.close()

    def test_balanced_trailing_chunk_is_kept(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            chunks = pool._chunk(list(range(25)))
            assert [len(c) for c in chunks] == [10, 10, 5]
        finally:
            pool.close()

    def test_single_chunk_never_merges(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            assert pool._chunk(list(range(3))) == [[0, 1, 2]]
            assert pool._chunk([]) == []
        finally:
            pool.close()

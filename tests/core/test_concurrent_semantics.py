"""Deeper semantics of the reader/writer lock and the synchronized
facade: writer preference, snapshot isolation, compound operations."""

from __future__ import annotations

import threading
import time

import pytest

from repro import PHTree
from repro.core.concurrent import ReadWriteLock, SynchronizedPHTree


class TestWriterPreference:
    def test_waiting_writer_blocks_new_readers(self):
        """The lock is writer-preferring: once a writer waits, newly
        arriving readers queue behind it (no writer starvation)."""
        lock = ReadWriteLock()
        order = []
        reader_started = threading.Event()
        release_first_reader = threading.Event()

        def long_reader():
            with lock.read():
                reader_started.set()
                release_first_reader.wait(timeout=5)
            order.append("reader1-done")

        def writer():
            lock.acquire_write()
            order.append("writer")
            lock.release_write()

        def late_reader():
            with lock.read():
                order.append("reader2")

        t_reader = threading.Thread(target=long_reader)
        t_reader.start()
        assert reader_started.wait(timeout=5)
        t_writer = threading.Thread(target=writer)
        t_writer.start()
        time.sleep(0.05)  # let the writer reach its wait
        t_late = threading.Thread(target=late_reader)
        t_late.start()
        time.sleep(0.05)
        release_first_reader.set()
        for t in (t_reader, t_writer, t_late):
            t.join(timeout=5)
        # The writer must have gone before the late reader.
        assert order.index("writer") < order.index("reader2")


class TestSnapshotSemantics:
    def test_query_result_is_stable_after_mutation(self):
        tree = SynchronizedPHTree(PHTree(dims=1, width=8))
        tree.put((1,), "a")
        snapshot = tree.query((0,), (255,))
        tree.put((2,), "b")
        tree.remove((1,))
        # The materialised snapshot is unaffected by later writes.
        assert snapshot == [((1,), "a")]

    def test_compound_operation_under_explicit_lock(self):
        """The exposed lock supports atomic read-modify-write."""
        tree = SynchronizedPHTree(PHTree(dims=1, width=8))
        tree.put((1,), 0)

        def increment():
            for _ in range(200):
                with tree.lock.write():
                    current = tree.unsafe_tree.get((1,))
                    tree.unsafe_tree.put((1,), current + 1)

        threads = [threading.Thread(target=increment) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert tree.get((1,)) == 800

    def test_remove_with_default_is_threadsafe_signature(self):
        tree = SynchronizedPHTree(PHTree(dims=1, width=8))
        assert tree.remove((9,), "gone") == "gone"
        with pytest.raises(KeyError):
            tree.remove((9,))


class TestFacadeOverFloatTree:
    def test_wraps_phtreef(self):
        from repro import PHTreeF

        tree = SynchronizedPHTree(PHTreeF(dims=2))
        tree.put((0.5, -1.5), "v")
        assert tree.get((0.5, -1.5)) == "v"
        assert tree.query((-2.0, -2.0), (2.0, 2.0)) == [
            ((0.5, -1.5), "v")
        ]
        assert tree.knn((0.0, 0.0), 1) == [((0.5, -1.5), "v")]


class TestFacadeOverOtherTrees:
    """The facade forwards ``bound`` only when it is set, so trees whose
    ``knn`` takes no ``bound`` keep working behind it."""

    def test_wraps_frozen_tree(self):
        from repro.core.frozen import FrozenPHTree, freeze

        tree = PHTree(dims=2, width=8)
        for x in range(0, 256, 32):
            tree.put((x, 255 - x))
        frozen = SynchronizedPHTree(FrozenPHTree(freeze(tree)))
        assert frozen.knn((100, 100), 3) == tree.knn((100, 100), 3)

    def test_wraps_multimap(self):
        from repro.core.multimap import PHTreeMultiMap

        multimap = PHTreeMultiMap(dims=2, width=8)
        multimap.put((1, 2), "a")
        multimap.put((1, 2), "b")
        multimap.put((9, 9), "c")
        facade = SynchronizedPHTree(multimap)
        found = facade.knn((0, 0), 2)
        assert sorted(value for _, value in found) == ["a", "b"]
        assert {key for key, _ in found} == {(1, 2)}

"""ReadWriteLock fairness/re-entrancy regressions and concurrent stress
on the synchronized and sharded trees.

The lock-level tests pin the two ISSUE-2 fixes:

- *bounded writer batching*: sustained write load can no longer starve
  readers -- after ``max_writer_batch`` consecutive writers pass while
  readers wait, the reader cohort gets a turn;
- *re-entrant read acquisition*: a thread already in shared mode may
  re-acquire freely even with a writer queued (previously a deadlock).

The stress tests interleave reader/writer threads over
``SynchronizedPHTree`` and ``ShardedPHTree`` and compare the final
state (and, for snapshots, every intermediate read) against a plain
single-threaded ``PHTree`` oracle.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import PHTree
from repro.core.concurrent import (
    LockTimeout,
    ReadWriteLock,
    SynchronizedPHTree,
)
from repro.parallel import ShardedPHTree


class TestReaderStarvation:
    def test_readers_progress_under_sustained_write_load(self):
        """With writers queuing back-to-back, a reader must still get
        in after at most ``max_writer_batch`` writer passes."""
        lock = ReadWriteLock(max_writer_batch=4)
        stop = threading.Event()
        writes_before_read = []
        writes_done = [0]

        def writer_loop():
            while not stop.is_set():
                with lock.write():
                    writes_done[0] += 1

        writers = [threading.Thread(target=writer_loop) for _ in range(3)]
        for t in writers:
            t.start()
        try:
            # Let the write storm establish itself.
            deadline = time.time() + 5
            while writes_done[0] < 10 and time.time() < deadline:
                time.sleep(0.001)
            assert writes_done[0] >= 10
            # A sample counts writer passes between snapshotting the
            # counter and being admitted -- but passes landing before
            # the reader even registers as waiting are outside the
            # batching bound, so a noisy sample is re-taken instead of
            # failing outright.  True starvation exceeds the bound on
            # every retry.
            for _ in range(5):
                for attempt in range(4):
                    before = writes_done[0]
                    with lock.read():
                        seen = writes_done[0] - before
                    if seen <= 16:
                        break
                writes_before_read.append(seen)
        finally:
            stop.set()
            for t in writers:
                t.join(timeout=5)
        # The reader was admitted; under the bound it never waited for
        # an unbounded writer stream (generous slack over the batch of 4
        # to absorb scheduling noise).
        assert all(seen <= 16 for seen in writes_before_read), (
            writes_before_read
        )

    def test_writer_preference_still_holds_below_the_bound(self):
        """A single waiting writer still beats newly arriving readers
        (the pre-existing writer-preference contract)."""
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        release = threading.Event()

        def long_reader():
            with lock.read():
                reader_in.set()
                release.wait(timeout=5)
            order.append("reader1")

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader2")

        threads = [threading.Thread(target=long_reader)]
        threads[0].start()
        assert reader_in.wait(timeout=5)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        time.sleep(0.05)
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert order.index("writer") < order.index("reader2")


class TestReentrantRead:
    def test_nested_read_with_queued_writer_does_not_deadlock(self):
        """The historical deadlock: thread A holds read, writer queues,
        A re-acquires read.  With writer preference alone, A waits for
        the writer which waits for A.  Re-entrancy must break the cycle."""
        lock = ReadWriteLock()
        outcome = []
        reader_in = threading.Event()
        writer_queued = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                assert writer_queued.wait(timeout=5)
                time.sleep(0.05)  # let the writer actually block
                with lock.read():  # re-entrant: must not deadlock
                    outcome.append("nested-read")

        def writer():
            assert reader_in.wait(timeout=5)
            writer_queued.set()
            with lock.write():
                outcome.append("write")

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert outcome == ["nested-read", "write"]

    def test_read_depth_counts_releases(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        # Still held once: a writer cannot get in.
        acquired = []

        def writer():
            lock.acquire_write()
            acquired.append(True)
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert not acquired
        lock.release_read()
        t.join(timeout=5)
        assert acquired

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            ReadWriteLock().release_read()

    def test_self_deadlocking_upgrades_raise(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()
        with lock.write():
            with pytest.raises(RuntimeError):
                lock.acquire_read()
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_bad_batch_bound_rejected(self):
        with pytest.raises(ValueError):
            ReadWriteLock(max_writer_batch=0)


class TestUncontendedFastPath:
    def test_untimed_guards_are_shared(self):
        lock = ReadWriteLock()
        assert lock.read() is lock.read()
        assert lock.write() is lock.write()
        assert lock.read(timeout=1.0) is not lock.read()

    def test_guard_calls_methods_patched_on_the_class(self, monkeypatch):
        """A tracer replaces the lock's methods on the class between
        runs; the guard built at construction must call the current
        ones."""
        lock = ReadWriteLock()
        calls = []
        for name in ("acquire_read", "release_read"):
            original = getattr(ReadWriteLock, name)

            def traced(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ReadWriteLock, name, traced)
        with lock.read():
            pass
        assert calls == ["acquire_read", "release_read"]

    def test_no_thread_ident_or_wakeup_without_a_writer(self, monkeypatch):
        lock = ReadWriteLock()
        idents = []
        real_ident = threading.get_ident

        def counting_ident():
            idents.append(1)
            return real_ident()

        wakeups = []
        monkeypatch.setattr(threading, "get_ident", counting_ident)
        monkeypatch.setattr(
            lock._readers_done, "notify_all", lambda: wakeups.append(1)
        )
        with lock.read():
            with lock.read():
                pass
        assert idents == [] and wakeups == []


class TestExclusionUnderContention:
    def test_no_reader_overlaps_a_writer(self):
        """Readers enter without the mutex when no writer is around, so
        pin exclusion under forced thread switches: a writer's two-step
        update is never seen half done, and no reader is inside while a
        writer is (nested, timed and untimed acquisitions mixed)."""
        import sys

        lock = ReadWriteLock(max_writer_batch=2)
        state = [0, 0]
        inside = {"readers": 0, "writer": 0}
        count = threading.Lock()
        errors = []
        stop = threading.Event()

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                try:
                    lock.acquire_read(
                        timeout=0.001 if rng.random() < 0.2 else None
                    )
                except LockTimeout:
                    continue
                try:
                    with count:
                        inside["readers"] += 1
                        if inside["writer"]:
                            errors.append("reader inside with a writer")
                    first = state[0]
                    if rng.random() < 0.3:
                        with lock.read():  # re-entrant
                            pass
                    if state[1] != first:
                        errors.append(f"torn read {first} {state[1]}")
                    with count:
                        inside["readers"] -= 1
                finally:
                    lock.release_read()

        def writer(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                try:
                    lock.acquire_write(
                        timeout=0.001 if rng.random() < 0.2 else None
                    )
                except LockTimeout:
                    continue
                try:
                    with count:
                        inside["writer"] += 1
                        if inside["readers"] or inside["writer"] > 1:
                            errors.append(f"writer overlaps {inside}")
                    state[0] += 1
                    time.sleep(0)
                    state[1] += 1
                    with count:
                        inside["writer"] -= 1
                finally:
                    lock.release_write()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(r,)) for r in range(4)
            ] + [
                threading.Thread(target=writer, args=(100 + w,))
                for w in range(2)
            ]
            for t in threads:
                t.start()
            time.sleep(0.8)
            stop.set()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert errors == []
        assert state[0] == state[1] > 0
        # The lock is left free.
        with lock.write(timeout=1.0):
            pass


class TestWriterHandoff:
    def test_writers_keep_pace_with_readers_that_never_pause(self):
        """The last reader out yields the GIL to the writer it woke.
        Without the yield the writer runs only at the next thread
        switch (5 ms by default), and readers looping straight back
        into the lock queue behind it meanwhile: 800 puts took ~1.9 s
        against 0.02-0.05 s with the hand-off (2-vCPU VM)."""
        tree = SynchronizedPHTree(PHTree(dims=2, width=16))
        for i in range(64):
            tree.put((i, i), i)
        stop = threading.Event()
        bound_s = 1.0
        per_writer = 400
        done = [0, 0]

        def reader():
            while not stop.is_set():
                tree.get((1, 1))
                tree.query((0, 0), (63, 63))

        def writer(w):
            deadline = time.monotonic() + bound_s
            for i in range(per_writer):
                if time.monotonic() > deadline:
                    return
                tree.put((1000 + w * per_writer + i, 7), i)
                done[w] += 1

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [
            threading.Thread(target=writer, args=(w,)) for w in range(2)
        ]
        for t in readers:
            t.start()
        started = time.monotonic()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=10)
        elapsed = time.monotonic() - started
        stop.set()
        for t in readers:
            t.join(timeout=10)
        assert done == [per_writer, per_writer], (done, elapsed)
        assert elapsed < bound_s
        assert len(tree) == 64 + 2 * per_writer


def _stress(tree, oracle_lock, oracle, dims, width, seconds=1.0, readers=3):
    """Hammer ``tree`` with writer+reader threads; mirror every write
    into ``oracle`` under ``oracle_lock``.  Returns reader errors."""
    stop = threading.Event()
    errors = []
    top = (1 << width) - 1

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            key = tuple(rng.randrange(1 << width) for _ in range(dims))
            with oracle_lock:
                if rng.random() < 0.7:
                    tree.put(key, seed)
                    oracle[key] = seed
                elif key in oracle:
                    tree.remove(key, None)
                    oracle.pop(key, None)

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                key = tuple(
                    rng.randrange(1 << width) for _ in range(dims)
                )
                tree.get(key)
                lo = tuple(max(0, k - 50) for k in key)
                hi = tuple(min(top, k + 50) for k in key)
                for found_key, _ in tree.query(lo, hi):
                    if not all(
                        l <= v <= h
                        for v, l, h in zip(found_key, lo, hi)
                    ):
                        errors.append(f"{found_key} outside {lo}..{hi}")
                tree.knn(key, 3)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(2)
    ] + [
        threading.Thread(target=reader, args=(100 + r,))
        for r in range(readers)
    ]
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "stress deadlock"
    return errors


class TestSynchronizedStress:
    def test_interleaved_readers_writers_consistent(self):
        dims, width = 2, 10
        tree = SynchronizedPHTree(PHTree(dims=dims, width=width))
        oracle = {}
        errors = _stress(tree, threading.Lock(), oracle, dims, width)
        assert errors == []
        # Final state equals the mirrored oracle exactly.
        assert dict(tree.items()) == oracle
        tree.check_invariants()


class TestShardedStress:
    def test_interleaved_readers_writers_consistent(self):
        dims, width = 2, 10
        tree = ShardedPHTree(dims=dims, width=width, shards=4)
        oracle = {}
        errors = _stress(tree, threading.Lock(), oracle, dims, width)
        assert errors == []
        assert dict(tree.items()) == oracle
        tree.check_invariants()
        # And the final state equals an unsharded tree built from the
        # oracle -- the snapshot-vs-live consistency anchor.
        reference = PHTree(dims=dims, width=width)
        for key, value in oracle.items():
            reference.put(key, value)
        assert list(tree.items()) == list(reference.items())

    def test_snapshot_vs_live_consistency_under_writes(self):
        """Alternate write bursts with full-domain reads: after every
        burst the sharded read must equal the unsharded oracle."""
        dims, width = 3, 8
        rng = random.Random(13)
        oracle = PHTree(dims=dims, width=width)
        tree = ShardedPHTree(dims=dims, width=width, shards=4)
        lo = (0,) * dims
        hi = ((1 << width) - 1,) * dims
        for _ in range(5):
            for _ in range(60):
                key = tuple(
                    rng.randrange(1 << width) for _ in range(dims)
                )
                if rng.random() < 0.8:
                    tree.put(key, None)
                    oracle.put(key, None)
                elif key in oracle:
                    tree.remove(key)
                    oracle.remove(key)
            assert tree.query(lo, hi) == list(oracle.query(lo, hi))

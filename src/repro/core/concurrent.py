"""Thread-safe PH-tree wrapper (paper Outlook, item 3).

The paper notes that "the fact that at most two nodes are modified with
each update makes the PH-tree suitable for concurrent access and
updates".  This module provides the coarse-grained building block: a
reader/writer-locked facade over any PH-tree-like object.  Multiple
readers proceed in parallel; writers get exclusivity.  Iterating methods
(`query`, `items`, ...) are materialised under the read lock so the
caller never observes a tree mutating underneath an open iterator.

Fine-grained (per-node) locking, which the two-node update property
enables in a pointer-stable implementation, is outside the scope of this
reproduction; the interface here is what a downstream user needs for
correctness.
"""

from __future__ import annotations

import threading
from time import monotonic, sleep
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt

__all__ = ["LockTimeout", "ReadWriteLock", "SynchronizedPHTree"]


class LockTimeout(TimeoutError):
    """A bounded lock acquisition gave up before getting the lock.

    Raised by :meth:`ReadWriteLock.acquire_read` /
    :meth:`ReadWriteLock.acquire_write` when a ``timeout`` was passed
    and expired; the lock state is left exactly as if the acquisition
    had never been attempted (waiting cohorts are re-notified so nobody
    blocks on the abandoned request).
    """


class ReadWriteLock:
    """A writer-preferring reader/writer lock with bounded writer batching
    and re-entrant read acquisition.

    Writer preference keeps updates from starving behind a stream of
    readers: once a writer waits, newly arriving reader *threads* queue
    behind it.  Plain writer preference has the dual failure mode --
    under sustained write load readers never run -- so preference is
    *bounded*: after ``max_writer_batch`` consecutive writers were
    admitted while readers waited, the waiting reader cohort gets a turn
    before the next writer.

    Read acquisition is re-entrant per thread: a thread already holding
    the lock in shared mode may re-acquire it freely (the nested
    acquisition only bumps a thread-local depth counter), so a reader
    calling back into locked read APIs cannot deadlock against a queued
    writer.  Write acquisition is *not* re-entrant, and lock-order
    violations that would self-deadlock (read -> write upgrade, write ->
    read downgrade, write -> write) raise :class:`RuntimeError` instead
    of hanging.

    A read while no writer holds or wants the lock takes no mutex (see
    ``_readers`` in ``__init__``); the blocking paths are unchanged.

    >>> lock = ReadWriteLock()
    >>> with lock.read():
    ...     with lock.read():  # re-entrant: never deadlocks
    ...         pass
    >>> with lock.write():
    ...     pass
    """

    __slots__ = (
        "_mutex",
        "_readers_done",
        "_readers",
        "_writers",
        "_writer_active",
        "_writer_thread",
        "_writers_waiting",
        "_readers_waiting",
        "_writer_batch",
        "_max_writer_batch",
        "_readers_turn",
        "_local",
        "_read_guard",
        "_write_guard",
    )

    def __init__(self, max_writer_batch: int = 8) -> None:
        if max_writer_batch < 1:
            raise ValueError(
                f"max_writer_batch must be >= 1, got {max_writer_batch}"
            )
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        # One item per thread in shared mode, plus for an instant each
        # reader that announces itself before looking for writers.  An
        # uncontended reader appends and pops without the mutex: under
        # the GIL a list append or pop is atomic, and all threads see
        # one order of them and of the attribute reads around them.
        self._readers: List[None] = []
        # Writers waiting or active; changed under the mutex only.  A
        # writer counts itself here before it looks at _readers, and a
        # reader appends to _readers before it looks here, so of a
        # reader and a writer arriving together at least one sees the
        # other: the reader withdraws, or the writer waits.
        self._writers = 0
        self._writer_active = False
        self._writer_thread: Optional[int] = None
        self._writers_waiting = 0
        self._readers_waiting = 0
        # Consecutive writers admitted while readers were waiting; when it
        # reaches the bound, the waiting reader cohort is released.
        self._writer_batch = 0
        self._max_writer_batch = max_writer_batch
        self._readers_turn = False
        # Per thread: a one-item list holding the read depth (updated
        # in place, cheaper than rebinding a thread-local attribute).
        self._local = threading.local()
        # The guards of untimed read()/write(), built once: entering a
        # lock allocates nothing.
        self._read_guard = _ReadGuard(self)
        self._write_guard = _WriteGuard(self)

    def acquire_read(self, timeout: Optional[float] = None) -> None:
        """Enter shared mode; blocks while a writer is active/waiting
        (unless this thread already holds shared mode -- re-entrant).

        With ``timeout`` (seconds), gives up after the deadline and
        raises :class:`LockTimeout` instead of blocking forever.
        """
        try:
            depth = self._local.depth
        except AttributeError:
            depth = self._local.depth = [0]
        if depth[0]:
            depth[0] += 1
            return
        readers = self._readers
        readers.append(None)
        if self._writers:
            # A writer holds or wants the lock: withdraw and queue.
            readers.pop()
            self._wait_read(timeout)
        else:
            # No writer can become active while this reader is listed,
            # so nothing else updates the batch count meanwhile.
            self._writer_batch = 0
        depth[0] = 1

    def _wait_read(self, timeout: Optional[float]) -> None:
        """The blocking half of :meth:`acquire_read`: a writer holds or
        waits for the lock."""
        writer = self._writer_thread
        if writer is not None and writer == threading.get_ident():
            raise RuntimeError(
                "cannot acquire the read lock while holding the write "
                "lock (downgrade is not supported)"
            )
        deadline = None if timeout is None else monotonic() + timeout
        with self._mutex:
            if self._writers_waiting and not self._readers:
                # A waiting writer may have seen the announcement this
                # reader just withdrew.
                self._readers_done.notify_all()
            self._readers_waiting += 1
            try:
                while self._writer_active or (
                    self._writers_waiting and not self._readers_turn
                ):
                    if deadline is None:
                        self._readers_done.wait()
                        continue
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        if _rt.enabled:
                            _probes.lock_timeouts_read.inc()
                        _recorder.record(
                            "lock_timeout", mode="read",
                            timeout_s=timeout,
                        )
                        raise LockTimeout(
                            f"read lock not acquired within "
                            f"{timeout:.3f}s"
                        )
                    self._readers_done.wait(remaining)
            except BaseException:
                # Interrupted wait: leave the cohort without wedging it.
                self._readers_waiting -= 1
                if self._readers_turn and self._readers_waiting == 0:
                    self._readers_turn = False
                    self._readers_done.notify_all()
                raise
            self._readers_waiting -= 1
            self._readers.append(None)
            self._writer_batch = 0
            if self._readers_turn and self._readers_waiting == 0:
                # The whole waiting cohort is in; writers may queue again.
                self._readers_turn = False

    def release_read(self) -> None:
        """Leave shared mode.  The last reader out wakes a waiting
        writer and yields the GIL to it."""
        try:
            depth = self._local.depth
        except AttributeError:
            depth = self._local.depth = [0]
        if depth[0] > 1:
            depth[0] -= 1
            return
        if not depth[0]:
            raise RuntimeError("release_read without acquire_read")
        depth[0] = 0
        readers = self._readers
        readers.pop()
        # Only writers wait for the readers to drain; readers wait only
        # while a writer is active or queued, so no wake-up is lost.
        if not readers and self._writers_waiting:
            with self._mutex:
                self._readers_done.notify_all()
            # Without the yield the woken writer runs only when the
            # interpreter next switches threads (every 5 ms by default),
            # and a reader looping back in queues behind it meanwhile.
            sleep(0)

    def acquire_write(self, timeout: Optional[float] = None) -> None:
        """Enter exclusive mode; blocks until all readers leave.

        With ``timeout`` (seconds), gives up after the deadline and
        raises :class:`LockTimeout`; waiting readers queued behind the
        abandoned writer are re-notified so they can proceed.
        """
        me = threading.get_ident()
        if self._writer_thread == me:
            raise RuntimeError("the write lock is not re-entrant")
        if getattr(self._local, "depth", (0,))[0]:
            raise RuntimeError(
                "cannot acquire the write lock while holding the read "
                "lock (upgrade is not supported)"
            )
        deadline = None if timeout is None else monotonic() + timeout
        with self._mutex:
            self._writers += 1
            self._writers_waiting += 1
            try:
                while (
                    self._writer_active
                    or self._readers
                    or self._readers_turn
                ):
                    if deadline is None:
                        self._readers_done.wait()
                        continue
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        if _rt.enabled:
                            _probes.lock_timeouts_write.inc()
                        _recorder.record(
                            "lock_timeout", mode="write",
                            timeout_s=timeout,
                        )
                        raise LockTimeout(
                            f"write lock not acquired within "
                            f"{timeout:.3f}s"
                        )
                    self._readers_done.wait(remaining)
            except BaseException:
                # Abandoned acquisition: readers may be queued behind
                # this writer (they block while _writers_waiting > 0),
                # so wake everyone to re-evaluate.
                self._writers -= 1
                self._writers_waiting -= 1
                self._readers_done.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer_active = True
            self._writer_thread = me

    def release_write(self) -> None:
        """Leave exclusive mode and wake waiting readers/writers."""
        with self._mutex:
            self._writer_active = False
            self._writer_thread = None
            self._writers -= 1
            if self._readers_waiting:
                # One more writer went by with readers queued; at the
                # bound, hand the next turn to the reader cohort.
                self._writer_batch += 1
                if self._writer_batch >= self._max_writer_batch:
                    self._readers_turn = True
            else:
                self._writer_batch = 0
            if self._readers_waiting or self._writers_waiting:
                self._readers_done.notify_all()

    def read(self, timeout: Optional[float] = None) -> "_ReadGuard":
        """Context manager acquiring the lock in shared mode (raises
        :class:`LockTimeout` on entry when ``timeout`` expires)."""
        if timeout is None:
            return self._read_guard
        return _ReadGuard(self, timeout)

    def write(self, timeout: Optional[float] = None) -> "_WriteGuard":
        """Context manager acquiring the lock exclusively (raises
        :class:`LockTimeout` on entry when ``timeout`` expires)."""
        if timeout is None:
            return self._write_guard
        return _WriteGuard(self, timeout)


class _ReadGuard:
    """``with lock.read():``; the untimed one is built once per lock and
    shared.  The lock's methods are looked up on every entry and exit,
    never bound at construction, so a method replaced on the class (a
    tracer's wrapper) applies to the shared guard too."""

    __slots__ = ("_lock", "_timeout")

    def __init__(
        self, lock: ReadWriteLock, timeout: Optional[float] = None
    ) -> None:
        self._lock = lock
        self._timeout = timeout

    def __enter__(self) -> None:
        self._lock.acquire_read(self._timeout)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release_read()


class _WriteGuard(_ReadGuard):
    """``with lock.write():`` (see :class:`_ReadGuard`)."""

    __slots__ = ()

    def __enter__(self) -> None:
        self._lock.acquire_write(self._timeout)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release_write()


class SynchronizedPHTree:
    """A PH-tree (integer or float) behind a reader/writer lock.

    Wraps any object exposing the PHTree API.  Read operations
    (``get``/``contains``/``query``/``knn``/``__len__``) run under the
    shared lock; mutations (``put``/``remove``/``update_key``/``clear``)
    run exclusively.  Query results are returned as lists.

    >>> from repro import PHTree
    >>> tree = SynchronizedPHTree(PHTree(dims=2, width=8))
    >>> tree.put((1, 2), "a")
    >>> tree.get((1, 2))
    'a'
    """

    def __init__(self, tree: Any) -> None:
        self._tree = tree
        self._lock = ReadWriteLock()

    @property
    def lock(self) -> ReadWriteLock:
        """The underlying lock, for compound atomic operations."""
        return self._lock

    @property
    def unsafe_tree(self) -> Any:
        """The wrapped tree; caller must hold the lock appropriately."""
        return self._tree

    # -- mutations (exclusive) -----------------------------------------------

    def put(self, key: Sequence, value: Any = None) -> Any:
        """Insert/update under the exclusive lock."""
        with self._lock.write():
            return self._tree.put(key, value)

    def remove(self, key: Sequence, *args: Any) -> Any:
        """Delete under the exclusive lock."""
        with self._lock.write():
            return self._tree.remove(key, *args)

    def update_key(self, old_key: Sequence, new_key: Sequence) -> None:
        """Move an entry under the exclusive lock."""
        with self._lock.write():
            self._tree.update_key(old_key, new_key)

    def clear(self) -> None:
        """Remove all entries under the exclusive lock."""
        with self._lock.write():
            self._tree.clear()

    def put_all(self, entries: Sequence[Tuple[Sequence, Any]]) -> None:
        """Bulk insert under a single lock acquisition."""
        with self._lock.write():
            for key, value in entries:
                self._tree.put(key, value)

    # -- reads (shared) --------------------------------------------------------

    def get(self, key: Sequence, default: Any = None) -> Any:
        """Lookup under the shared lock."""
        with self._lock.read():
            return self._tree.get(key, default)

    def contains(self, key: Sequence) -> bool:
        """Point query under the shared lock."""
        with self._lock.read():
            return self._tree.contains(key)

    def __contains__(self, key: Sequence) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        with self._lock.read():
            return len(self._tree)

    def query(self, box_min: Sequence, box_max: Sequence) -> List:
        """Materialised window query (safe against concurrent writers)."""
        with self._lock.read():
            return list(self._tree.query(box_min, box_max))

    def knn(self, key: Sequence, n: int = 1, *, bound: Any = None) -> List:
        """Nearest neighbours under the shared lock (``bound`` as for
        :meth:`PHTree.knn`)."""
        with self._lock.read():
            if bound is None:
                return self._tree.knn(key, n)
            return self._tree.knn(key, n, bound=bound)

    def items(self) -> List:
        """Materialised items snapshot under the shared lock."""
        with self._lock.read():
            return list(self._tree.items())

    def keys(self) -> List:
        """Materialised keys snapshot under the shared lock."""
        with self._lock.read():
            return list(self._tree.keys())

    def check_invariants(self) -> None:
        """Structural validation under the shared lock."""
        with self._lock.read():
            self._tree.check_invariants()

"""Process-pool query fan-out over shared-memory snapshots.

CPython's GIL serialises the pure-Python tree traversal, so scaling
reads past one core means *processes* -- and shipping a live pointer
tree to a process is exactly the copy this layer exists to avoid.
Instead, every shard is published as a :func:`repro.core.frozen.freeze`
byte stream inside a :class:`multiprocessing.shared_memory.SharedMemory`
segment.  Workers attach the segment and wrap it in a
:class:`~repro.core.frozen.FrozenPHTree` *zero-copy* (the frozen reader
decodes bits straight out of the shared mapping), so the per-query cost
in a worker is O(traversal), not O(tree).

Staleness protocol: the owning :class:`~repro.parallel.sharded.ShardedPHTree`
bumps a per-shard generation counter under the shard's write lock on
every mutation.  A snapshot records the generation it was frozen at;
:meth:`SnapshotPool.refresh` republishes exactly the shards whose
counter moved (lazily, before a fan-out -- writes never block on
snapshot maintenance).  Every publication gets a fresh segment name, so
a worker can never confuse generations; superseded segments are
unlinked by the parent and vanish once the last attached worker evicts
them from its bounded LRU.
"""

from __future__ import annotations

import uuid
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.frozen import FrozenPHTree, freeze
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from repro.obs import span as _span
from repro.obs.log import get_logger
from repro.parallel.errors import (
    SnapshotPublishError,
    SnapshotReadError,
)

__all__ = ["SnapshotPool"]

Key = Tuple[int, ...]

#: Parent-side lifecycle/telemetry logger (workers stay silent: their
#: processes inherit no handler unless the embedding app installs one).
_log = get_logger("parallel.executor")

# ---------------------------------------------------------------------------
# Worker side: a bounded LRU of attached snapshots, keyed by segment name.
# Segment names are unique per publication, so a cache hit is always the
# right generation.

_ATTACH_LRU_SIZE = 16
_attached: "OrderedDict[str, Tuple[shared_memory.SharedMemory, FrozenPHTree]]" = (
    OrderedDict()
)


def _attach(name: str, value_codec: Any) -> FrozenPHTree:
    """Attach (or re-use) the snapshot segment ``name`` in this worker."""
    cached = _attached.get(name)
    if cached is not None:
        _attached.move_to_end(name)
        return cached[1]
    segment = shared_memory.SharedMemory(name=name)
    frozen = FrozenPHTree(segment.buf, value_codec)
    _attached[name] = (segment, frozen)
    while len(_attached) > _ATTACH_LRU_SIZE:
        _, (old_segment, old_frozen) = _attached.popitem(last=False)
        del old_frozen  # drop the memoryview before closing the mapping
        old_segment.close()
    return frozen


def _worker_window(
    name: str,
    value_codec: Any,
    box_min: Key,
    box_max: Key,
    want_spans: bool = False,
) -> Any:
    """One shard's window query, straight off the shared bytes.

    With ``want_spans`` the worker also returns ``(name, t0, t1)``
    span tuples timed on ``time.monotonic`` -- CLOCK_MONOTONIC is
    system-wide on Linux, so the parent can splice them into its own
    trace without clock translation.
    """
    if not want_spans:
        return list(_attach(name, value_codec).query(box_min, box_max))
    t0 = monotonic()
    frozen = _attach(name, value_codec)
    t1 = monotonic()
    rows = list(frozen.query(box_min, box_max))
    t2 = monotonic()
    return rows, [("attach", t0, t1), ("scan", t1, t2)]


def _worker_query_many(
    name: str,
    value_codec: Any,
    boxes: List[Tuple[Key, Key]],
    want_spans: bool = False,
) -> Any:
    """One shard's slice of a batched window query."""
    if not want_spans:
        frozen = _attach(name, value_codec)
        return [list(frozen.query(lo, hi)) for lo, hi in boxes]
    t0 = monotonic()
    frozen = _attach(name, value_codec)
    t1 = monotonic()
    rows = [list(frozen.query(lo, hi)) for lo, hi in boxes]
    t2 = monotonic()
    return rows, [("attach", t0, t1), ("scan", t1, t2)]


def _worker_knn(
    name: str,
    value_codec: Any,
    key: Key,
    n: int,
    want_spans: bool = False,
) -> Any:
    """One shard's k-nearest candidates (merged by the parent)."""
    if not want_spans:
        return _attach(name, value_codec).knn(key, n)
    t0 = monotonic()
    frozen = _attach(name, value_codec)
    t1 = monotonic()
    rows = frozen.knn(key, n)
    t2 = monotonic()
    return rows, [("attach", t0, t1), ("scan", t1, t2)]


# ---------------------------------------------------------------------------
# Parent side.


class _Snapshot:
    """One published shard snapshot: segment + frozen generation."""

    __slots__ = ("segment", "generation", "nbytes")

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        generation: int,
        nbytes: int,
    ) -> None:
        self.segment = segment
        self.generation = generation
        self.nbytes = nbytes


class SnapshotPool:
    """Publishes a sharded tree's shards as shared-memory snapshots and
    fans queries out over a process pool.

    The pool is owned by a :class:`~repro.parallel.sharded.ShardedPHTree`
    and is not part of the public API surface; use the tree's ``query`` /
    ``knn`` / ``query_many`` with ``workers > 0``.
    """

    def __init__(
        self,
        sharded: Any,
        workers: int,
        value_codec: Any,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._sharded = sharded
        self._workers = workers
        self._codec = value_codec
        self._snapshots: List[Optional[_Snapshot]] = [
            None for _ in range(sharded.n_shards)
        ]
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def workers(self) -> int:
        """Pool size."""
        return self._workers

    def _pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("SnapshotPool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
            _log.info(
                "started snapshot process pool (%d workers, %d shards)",
                self._workers,
                len(self._snapshots),
            )
        return self._executor

    # -- publication ---------------------------------------------------------

    def _publish(self, shard: int) -> _Snapshot:
        """Freeze shard ``shard`` under its read lock into a fresh
        segment (called only when the generation counter moved).

        Raises :class:`~repro.parallel.errors.SnapshotPublishError` when
        the segment cannot be allocated or filled; the previous snapshot
        (if any) stays installed, and the owning tree answers from the
        live engine instead.
        """
        locked = self._sharded._shards[shard]
        with locked.lock.read():
            generation = self._sharded._generations[shard]
            blob = freeze(
                locked.unsafe_tree,
                self._codec,
                learned=getattr(
                    self._sharded, "_learned_snapshots", False
                ),
            )
        try:
            segment = shared_memory.SharedMemory(
                create=True,
                size=max(1, len(blob)),
                name=f"phx{uuid.uuid4().hex[:16]}",
            )
        except Exception as exc:
            if _rt.enabled:
                _probes.snapshot_publish_failures.inc()
            _recorder.record(
                "snapshot_publish_failed", shard=shard, stage="allocate"
            )
            _log.warning(
                "failed to allocate snapshot segment for shard %d: %s",
                shard,
                exc,
            )
            raise SnapshotPublishError(
                f"cannot publish shard {shard}: {exc}"
            ) from exc
        try:
            segment.buf[: len(blob)] = blob
        except BaseException as exc:
            if _rt.enabled:
                _probes.snapshot_publish_failures.inc()
            _recorder.record(
                "snapshot_publish_failed", shard=shard, stage="fill"
            )
            _log.warning(
                "failed to fill snapshot segment for shard %d: %s",
                shard,
                exc,
            )
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            raise SnapshotPublishError(
                f"cannot publish shard {shard}: {exc}"
            ) from exc
        _log.debug(
            "published shard %d generation %d (%d bytes, segment %s)",
            shard,
            generation,
            len(blob),
            segment.name,
        )
        return _Snapshot(segment, generation, len(blob))

    def refresh(self) -> int:
        """Republish every shard whose generation counter moved since
        its snapshot was frozen; returns how many were republished."""
        if self._closed:
            raise RuntimeError("SnapshotPool is closed")
        republished = 0
        for shard in range(len(self._snapshots)):
            snapshot = self._snapshots[shard]
            if (
                snapshot is not None
                and snapshot.generation
                == self._sharded._generations[shard]
            ):
                continue
            fresh = self._publish(shard)
            self._snapshots[shard] = fresh
            republished += 1
            _recorder.record(
                "snapshot_republish",
                shard=shard,
                generation=fresh.generation,
                nbytes=fresh.nbytes,
            )
            if _rt.enabled:
                _probes.snapshot_republish.inc()
            if snapshot is not None:
                if _rt.enabled:
                    _probes.snapshot_stale_invalidations.inc()
                self._discard(snapshot)
        if republished:
            _log.info(
                "republished %d stale shard snapshot(s), %d bytes "
                "published in total",
                republished,
                self.snapshot_bytes(),
            )
            if _rt.enabled:
                _probes.snapshot_bytes.set(self.snapshot_bytes())
        return republished

    @staticmethod
    def _discard(snapshot: _Snapshot) -> None:
        """Unlink a superseded segment (attached workers keep their
        mapping alive until LRU eviction).

        Unlink failures are logged and survived: a raced unlink (another
        unlinker got there first, or the platform already reclaimed the
        segment) must not fail the query that merely triggered snapshot
        maintenance.
        """
        name = snapshot.segment.name
        try:
            snapshot.segment.close()
            snapshot.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            _log.debug("snapshot segment %s already unlinked", name)
        except Exception as exc:
            if _rt.enabled:
                _probes.snapshot_discard_errors.inc()
            _log.warning(
                "failed to discard snapshot segment %s: %s", name, exc
            )

    def snapshot_bytes(self) -> int:
        """Total bytes currently published across all shard snapshots."""
        return sum(s.nbytes for s in self._snapshots if s is not None)

    # -- fan-out -------------------------------------------------------------

    def _names(self, shards: Sequence[int]) -> List[str]:
        return [self._snapshots[s].segment.name for s in shards]

    def _fanout_failed(self, op: str, exc: BaseException) -> None:
        """Convert a worker/pool failure into a typed error.

        The (possibly broken) executor is recycled -- the next fan-out
        starts a fresh pool -- and the published snapshots stay valid,
        so one dead worker costs one restarted pool, never a wrong
        answer: the owning tree catches the typed error and re-answers
        from the live engine.
        """
        if _rt.enabled:
            _probes.fanout_failures.labels(op).inc()
        _recorder.record(
            "pool_recycled", op=op, error=type(exc).__name__
        )
        _log.warning(
            "%s fan-out failed (%s: %s); recycling the process pool",
            op,
            type(exc).__name__,
            exc,
        )
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        raise SnapshotReadError(f"{op} fan-out failed: {exc}") from exc

    def query(
        self, box_min: Key, box_max: Key, shards: Sequence[int]
    ) -> List[Tuple[Key, Any]]:
        """Window query fanned out over ``shards``; results arrive
        merged in z-order (= shard index order concatenation)."""
        trace = _span.current_trace()
        with _span.maybe_span(trace, "refresh"):
            self.refresh()
        pool = self._pool()
        obs = _rt.enabled
        if obs:
            start = perf_counter()
            _probes.fanout_tasks.labels("query").inc(len(shards))
            for shard in shards:
                _probes.record_shard_op(shard, "query")
        merged: List[Tuple[Key, Any]] = []
        want_spans = trace is not None
        t_fan = monotonic()
        try:
            futures = [
                pool.submit(
                    _worker_window,
                    name,
                    self._codec,
                    box_min,
                    box_max,
                    want_spans,
                )
                for name in self._names(shards)
            ]
            for shard, future in zip(shards, futures):
                part = future.result()
                if want_spans:
                    part, wspans = part
                    trace.add_remote(wspans, shard=shard)
                merged.extend(part)
        except Exception as exc:
            self._fanout_failed("query", exc)
        if want_spans:
            trace.add("fanout", t_fan, monotonic(), shards=len(shards))
        if obs:
            _probes.fanout_latency.labels("query").observe(
                perf_counter() - start
            )
        return merged

    def query_many(
        self,
        per_shard: "Dict[int, List[int]]",
        boxes: List[Tuple[Key, Key]],
        n_boxes: int,
    ) -> List[List[Tuple[Key, Any]]]:
        """Batched window queries: ``per_shard`` maps shard -> indices
        into ``boxes`` that intersect it.  Per-box outputs concatenate
        shard results in shard order, which is z-order."""
        trace = _span.current_trace()
        with _span.maybe_span(trace, "refresh"):
            self.refresh()
        pool = self._pool()
        ordered = sorted(per_shard.items())
        obs = _rt.enabled
        if obs:
            start = perf_counter()
            _probes.fanout_tasks.labels("query_many").inc(len(ordered))
            for shard, _indices in ordered:
                _probes.record_shard_op(shard, "query_many")
        results: List[List[Tuple[Key, Any]]] = [[] for _ in range(n_boxes)]
        want_spans = trace is not None
        t_fan = monotonic()
        try:
            futures = [
                (
                    shard,
                    indices,
                    pool.submit(
                        _worker_query_many,
                        self._snapshots[shard].segment.name,
                        self._codec,
                        [boxes[i] for i in indices],
                        want_spans,
                    ),
                )
                for shard, indices in ordered
            ]
            for shard, indices, future in futures:
                parts = future.result()
                if want_spans:
                    parts, wspans = parts
                    trace.add_remote(wspans, shard=shard)
                for index, part in zip(indices, parts):
                    results[index].extend(part)
        except Exception as exc:
            self._fanout_failed("query_many", exc)
        if want_spans:
            trace.add("fanout", t_fan, monotonic(), shards=len(ordered))
        if obs:
            _probes.fanout_latency.labels("query_many").observe(
                perf_counter() - start
            )
        return results

    def knn(self, key: Key, n: int) -> List[List[Tuple[Key, Any]]]:
        """Per-shard k-nearest candidate lists (every shard queried; the
        owning tree merges by ``(distance, shard, rank)``)."""
        trace = _span.current_trace()
        with _span.maybe_span(trace, "refresh"):
            self.refresh()
        pool = self._pool()
        shards = range(len(self._snapshots))
        obs = _rt.enabled
        if obs:
            start = perf_counter()
            _probes.fanout_tasks.labels("knn").inc(len(self._snapshots))
            for shard in shards:
                _probes.record_shard_op(shard, "knn")
        want_spans = trace is not None
        t_fan = monotonic()
        try:
            futures = [
                pool.submit(
                    _worker_knn, name, self._codec, key, n, want_spans
                )
                for name in self._names(shards)
            ]
            results = []
            for shard, future in zip(shards, futures):
                part = future.result()
                if want_spans:
                    part, wspans = part
                    trace.add_remote(wspans, shard=shard)
                results.append(part)
        except Exception as exc:
            self._fanout_failed("knn", exc)
        if want_spans:
            trace.add("fanout", t_fan, monotonic(), shards=len(self._snapshots))
        if obs:
            _probes.fanout_latency.labels("knn").observe(
                perf_counter() - start
            )
        return results

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            _log.info("snapshot process pool shut down")
        for snapshot in self._snapshots:
            if snapshot is not None:
                self._discard(snapshot)
        self._snapshots = [None for _ in self._snapshots]

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

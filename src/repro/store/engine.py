"""``DurablePHTree``: the LSM-flavored persistence layer.

Architecture (DESIGN.md §14):

- every mutation is validated against the live tree, appended to the
  WAL (group-fsync'd), then applied to an in-memory
  :class:`~repro.parallel.sharded.ShardedPHTree` -- the authoritative
  read view -- and tracked in the *pending* delta (puts + deletes not
  yet captured by a segment);
- :meth:`flush` freezes the pending delta per shard into immutable
  on-disk segment files (the verbatim :func:`~repro.core.frozen.freeze`
  stream, ``PHL1`` learned trailer included for learned stores), plus
  one tombstone batch for pending deletes, rotates the WAL, and commits
  everything with one atomic manifest swap;
- :meth:`checkpoint` snapshots the live shards directly
  (:meth:`ShardedPHTree.freeze_shards`) as a fresh one-segment-per-shard
  chain; :meth:`compact` flushes and then takes the same snapshot,
  because after a flush the live tree *is* the merged chain;
- :meth:`open` recovers: verify the manifest, mmap-attach its segments
  zero-copy, repair the WAL's torn tail, read each segment as a z-sorted
  run (from its ``PHL1`` z-column when it has one), merge each shard's
  runs with the newer segments and the WAL tail by z-code, bulk-load
  every shard from its merged run, and garbage-collect orphan files
  from crashed flushes.

Durability contract: an operation is durable once its WAL append
returns (fsync'd); a flush/compaction is durable exactly at its
manifest rename.  A crash at *any* byte offset in between recovers to
the newest committed manifest plus the longest valid WAL prefix --
``check/faults.py`` and ``tests/store/test_crash_points.py`` prove it
at seeded offsets through :mod:`repro.store.io`.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bulk import bulk_load_sorted
from repro.core.frozen import freeze
from repro.core.serialize import NoneValueCodec, U64ValueCodec
from repro.core.specialize import z_functions
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from repro.parallel.sharded import ShardedPHTree
from repro.store import io as store_io
from repro.store.manifest import (
    MANIFEST_NAME,
    MANIFEST_TMP,
    Manifest,
    SegmentRecord,
    load_manifest,
    write_manifest,
)
from repro.store.segment import (
    Segment,
    segment_name,
    tombstone_name,
    write_segment_file,
    write_tombstone_file,
)
from repro.store.wal import RecordCodec, WalRecord, WriteAheadLog
from repro.store.wal import OP_DEL, OP_PUT, OP_UPD

__all__ = ["DurablePHTree", "StoreError"]

Key = Tuple[int, ...]
_Item = Tuple[Key, Any]
#: A z-sorted run: ascending z-codes and the aligned ``(key, value)``s.
_Run = Tuple[List[int], List[_Item]]

_MISSING = object()

_CODECS = {"none": NoneValueCodec, "u64": U64ValueCodec}
_CODEC_NAMES = {NoneValueCodec: "none", U64ValueCodec: "u64"}


class StoreError(RuntimeError):
    """A durable-store protocol violation (bad directory, geometry
    mismatch, use-after-close, a segment failing recovery's checks)."""


def _wal_name(generation: int) -> str:
    return f"wal-{generation:08d}.log"


def _strictly_ascending(values: List[int]) -> bool:
    return all(map(lt, values, islice(values, 1, None)))


def _merge_run(
    run: Optional[_Run],
    changed: List[int],
    delta: Dict[int, Optional[_Item]],
) -> _Run:
    """Apply ``delta`` at the ascending z-codes ``changed`` to ``run``:
    a ``(key, value)`` replaces or inserts, ``None`` deletes.  Unchanged
    stretches of the run are copied a slice at a time."""
    zs, items = run if run is not None else ([], [])
    n = len(zs)
    out_zs: List[int] = []
    out_items: List[_Item] = []
    prev = 0
    for z in changed:
        i = bisect_left(zs, z, prev)
        if i > prev:
            out_zs += zs[prev:i]
            out_items += items[prev:i]
        prev = i + 1 if i < n and zs[i] == z else i
        item = delta[z]
        if item is not None:
            out_zs.append(z)
            out_items.append(item)
    out_zs += zs[prev:]
    out_items += items[prev:]
    return out_zs, out_items


class DurablePHTree:
    """A crash-safe PH-tree over a directory: WAL + frozen segments.

    Construct with :meth:`open` (``DurablePHTree.open(path, dims=3)``);
    the same call recovers an existing directory, in which case the
    geometry arguments are read back from the manifest and must match
    when given.  The full read API of the live tree is exposed
    (``get``/``query``/``knn``/batches); mutations are durable when
    they return.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "use DurablePHTree.open(path, ...) to create or recover a store"
        )

    # -- construction / recovery ---------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        *,
        dims: Optional[int] = None,
        width: int = 64,
        shards: int = 4,
        value_codec: Any = None,
        learned: bool = False,
        hc_mode: str = "auto",
        sync: bool = True,
    ) -> "DurablePHTree":
        """Open (creating or recovering) the store at directory ``path``.

        ``dims`` is required when creating; on recovery every geometry
        argument is optional and checked against the manifest.
        ``sync=False`` trades the per-commit fsync away (group commits
        via :meth:`put_all` still write once); crash recovery then
        loses the unsynced suffix but never corrupts.
        """
        self = object.__new__(cls)
        store_io.arm_from_env()
        os.makedirs(path, exist_ok=True)
        manifest = load_manifest(path)
        if manifest is None:
            if dims is None:
                raise StoreError(
                    f"no manifest in {path!r}: pass dims= to create a store"
                )
            codec = value_codec if value_codec is not None else NoneValueCodec
            if codec not in _CODEC_NAMES:
                raise StoreError(
                    "value_codec must be NoneValueCodec or U64ValueCodec "
                    "(the manifest must be able to name it)"
                )
            self._init_common(
                path, dims, width, shards, codec, learned, hc_mode, sync
            )
            self._create_fresh()
        else:
            if dims is not None and dims != manifest.dims:
                raise StoreError(
                    f"dims mismatch: store has {manifest.dims}, got {dims}"
                )
            codec = value_codec
            if codec is None:
                codec = _CODECS["u64" if manifest.value_bits else "none"]
            if codec.bits != manifest.value_bits:
                raise StoreError(
                    f"value codec mismatch: store uses {manifest.value_bits} "
                    f"value bits, codec has {codec.bits}"
                )
            self._init_common(
                path,
                manifest.dims,
                manifest.width,
                manifest.shards,
                codec,
                manifest.learned,
                hc_mode,
                sync,
            )
            self._recover(manifest)
        return self

    def _init_common(
        self, path, dims, width, shards, codec, learned, hc_mode, sync
    ) -> None:
        self._path = os.path.abspath(path)
        self._dims = dims
        self._width = width
        self._n_shards = shards
        self._codec = codec
        self._learned = learned
        self._hc_mode = hc_mode
        self._sync = sync
        self._records = RecordCodec(dims, width, codec.bits)
        self._mutex = threading.RLock()
        self._closed = False
        self._pending_puts: Dict[Key, Any] = {}
        self._pending_dels: set = set()
        self._segments: List[Segment] = []
        self._wal: Optional[WriteAheadLog] = None
        self._manifest: Optional[Manifest] = None
        self._next_seq = 1
        self._recovery_info: Dict[str, int] = {}
        self._live = ShardedPHTree(
            dims, width, shards=shards, value_codec=codec, hc_mode=hc_mode
        )
        self._check_key = self._live._check_key
        self._z_of, self._un_z = z_functions(dims, width)

    def _create_fresh(self) -> None:
        # Protocol: WAL first, manifest second.  A crash in between
        # leaves a WAL with no manifest -- indistinguishable from an
        # empty directory at the next open, which recreates both
        # (create truncates, so stray bytes cannot resurface).
        with store_io.scope("create"):
            wal_file = _wal_name(0)
            self._wal = WriteAheadLog.create(
                os.path.join(self._path, wal_file)
            )
            manifest = Manifest(
                dims=self._dims,
                width=self._width,
                value_bits=self._codec.bits,
                shards=self._n_shards,
                learned=self._learned,
                wal=wal_file,
                wal_seq=0,
                next_file_id=0,
                generation=0,
            )
            write_manifest(self._path, manifest)
        self._manifest = manifest
        self._recovery_info = {
            "created": 1,
            "segments": 0,
            "replayed": 0,
            "torn_bytes": 0,
            "walked_segments": 0,
        }

    def _recover(self, manifest: Manifest) -> None:
        kb = self._records.key_bytes
        segments = []
        try:
            for record in manifest.segments:
                segments.append(
                    Segment.open(
                        self._path, record, self._codec, self._dims, kb
                    )
                )
            wal, payloads, torn = WriteAheadLog.open(
                os.path.join(self._path, manifest.wal)
            )
        except BaseException:
            for seg in segments:
                seg.close()
            raise
        self._segments = segments
        self._wal = wal
        self._manifest = manifest

        tail: List[WalRecord] = []
        last_seq = manifest.wal_seq
        for payload in payloads:
            rec = self._records.decode(payload)
            if rec.seq <= manifest.wal_seq:
                # Flushed before the WAL rotated; already in a segment.
                continue
            if rec.seq <= last_seq:
                raise StoreError(
                    f"WAL sequence regression: {rec.seq} after {last_seq}"
                )
            last_seq = rec.seq
            tail.append(rec)
        self._next_seq = last_seq + 1

        runs, delta, walked = self._chain_runs()
        self._fold_wal(tail, runs, delta)
        entries = self._rebuild_live(runs, delta)
        self._gc_orphans()
        replayed = len(tail)
        self._recovery_info = {
            "created": 0,
            "segments": len(segments),
            "replayed": replayed,
            "torn_bytes": torn,
            "entries": entries,
            "walked_segments": walked,
        }
        _recorder.record(
            "store_recovery",
            path=self._path,
            segments=len(segments),
            replayed=replayed,
            torn_bytes=torn,
            entries=entries,
        )
        _probes.store_recoveries.inc()
        if replayed:
            _probes.store_wal_replayed.inc(replayed)
        if torn:
            _probes.store_torn_bytes.inc(torn)
        _probes.store_segments_live.set(len(segments))

    # -- recovery: segments as z-sorted runs -----------------------------------
    #
    # A segment is one shard's entries in z-order, and a learned
    # segment's PHL1 trailer already holds that order as a flat column.
    # Recovery keeps each shard's oldest segment as its base run and
    # folds everything newer -- later segments, tombstones, the WAL
    # tail -- into one delta keyed by z-code: ``(key, value)`` for a
    # live entry, ``None`` for a deletion.  Each shard's base merges
    # with its slice of the delta and goes straight to the sorted bulk
    # loader; a shard with nothing newer than its base loads the run
    # as is.

    def _chain_runs(
        self,
    ) -> Tuple[List[Optional[_Run]], Dict[int, Optional[_Item]], int]:
        """Fold the segment chain (oldest first) into ``(runs, delta,
        walked)``: each shard's base run, the z-keyed delta of every
        newer record, and how many segments had to be walked."""
        z_of = self._z_of
        shard_of_z = self._live.router.shard_of_z
        runs: List[Optional[_Run]] = [None] * self._n_shards
        delta: Dict[int, Optional[_Item]] = {}
        walked = 0
        for seg in self._segments:
            if seg.frozen is None:
                # A tombstone erases its keys from every older record;
                # a shard with no base yet holds nothing older.
                for key in seg.tombstones:
                    z = z_of(key)
                    if runs[shard_of_z(z)] is not None:
                        delta[z] = None
                continue
            run, was_walked = self._segment_run(seg)
            walked += was_walked
            shard = seg.record.shard
            if runs[shard] is None:
                runs[shard] = run
            else:
                delta.update(zip(*run))
        return runs, delta, walked

    def _segment_run(self, seg: Segment) -> Tuple[_Run, bool]:
        """One data segment as a checked z-sorted run ``(zs, items)``,
        and whether its stream had to be walked.

        A learned segment is read from its trailer: z-codes copied from
        the z-column, values read at the value-position column, keys
        de-interleaved from the z-codes -- no descent.  A segment
        without a trailer (every segment of an unlearned store) walks
        its stream; in a learned store that is recorded as an event.
        Columns that disagree with the header's entry count, leave the
        shard's z-interval or the stream, or do not strictly ascend
        raise :class:`StoreError` naming the file.
        """
        frozen = seg.frozen
        name = seg.record.file
        shard = seg.record.shard
        if not 0 <= shard < self._n_shards:
            raise StoreError(f"segment {name}: bad shard {shard}")
        n = len(frozen)
        model = frozen.learned_index
        if model is None:
            items = list(frozen.items())
            zs = [self._z_of(key) for key, _ in items]
        else:
            zs, valpos = model.columns()
        if len(zs) != n:
            raise StoreError(
                f"segment {name}: run holds {len(zs)} entries, its header "
                f"says {n}"
            )
        if not n:
            return ([], []), False
        lo, hi = self._live.router.z_interval(shard)
        if zs[0] < lo or zs[-1] > hi:
            raise StoreError(
                f"segment {name}: z-codes leave shard {shard}'s interval"
            )
        if not _strictly_ascending(zs):
            raise StoreError(f"segment {name}: z-codes do not strictly ascend")
        if model is None:
            if self._learned:
                _recorder.record(
                    "store_segment_walked", path=self._path, file=name,
                    entries=n,
                )
            return (zs, items), True
        if (
            valpos[0] < 0
            or valpos[-1] + self._codec.bits > frozen.stream_bits
            or not _strictly_ascending(valpos)
        ):
            raise StoreError(
                f"segment {name}: value offsets are not ascending inside "
                "the stream"
            )
        items = list(zip(map(self._un_z, zs), frozen.values_at(valpos)))
        return (zs, items), False

    def _fold_wal(
        self,
        tail: List[WalRecord],
        runs: List[Optional[_Run]],
        delta: Dict[int, Optional[_Item]],
    ) -> None:
        """Fold the WAL tail into ``delta`` and rebuild the pending
        sets: replayed records are in the WAL and the live tree, but not
        yet in any segment."""
        z_of = self._z_of
        decode = self._codec.decode
        puts = self._pending_puts
        dels = self._pending_dels
        for rec in tail:
            key = rec.key
            if rec.op == OP_PUT:
                value = decode(rec.value)
                delta[z_of(key)] = (key, value)
                puts[key] = value
                dels.discard(key)
            elif rec.op == OP_DEL:
                delta[z_of(key)] = None
                puts.pop(key, None)
                dels.add(key)
            elif rec.op == OP_UPD:
                z = z_of(key)
                item = delta.get(z, _MISSING)
                if item is _MISSING:
                    item = self._run_lookup(runs, z)
                if item is None:
                    continue  # moving an absent key is a no-op
                new_key = rec.new_key
                value = item[1]
                delta[z] = None
                delta[z_of(new_key)] = (new_key, value)
                puts.pop(key, None)
                dels.add(key)
                puts[new_key] = value
                dels.discard(new_key)
            else:  # pragma: no cover - decode rejects unknown ops
                raise StoreError(f"unknown WAL op {rec.op}")

    def _run_lookup(
        self, runs: List[Optional[_Run]], z: int
    ) -> Optional[_Item]:
        """The base-run entry with z-code ``z``, or ``None``."""
        run = runs[self._live.router.shard_of_z(z)]
        if run is None:
            return None
        zs, items = run
        i = bisect_left(zs, z)
        if i < len(zs) and zs[i] == z:
            return items[i]
        return None

    def _rebuild_live(
        self,
        runs: List[Optional[_Run]],
        delta: Dict[int, Optional[_Item]],
    ) -> int:
        """Merge each shard's base run with its slice of ``delta`` and
        install the result as the live tree via per-shard sorted bulk
        loads; returns the entry count."""
        live = ShardedPHTree(
            self._dims,
            self._width,
            shards=self._n_shards,
            value_codec=self._codec,
            hc_mode=self._hc_mode,
        )
        shard_of_z = live.router.shard_of_z
        changes: List[List[int]] = [[] for _ in range(self._n_shards)]
        for z in sorted(delta):
            changes[shard_of_z(z)].append(z)
        total = 0
        for shard, run in enumerate(runs):
            if changes[shard]:
                run = _merge_run(run, changes[shard], delta)
            runs[shard] = None  # let the shard's run go once it is built
            if run is None or not run[0]:
                continue
            zs, items = run
            built = bulk_load_sorted(
                items,
                self._dims,
                self._width,
                hc_mode=self._hc_mode,
                validate=False,
                zcodes=zs,
            )
            locked = live._shards[shard]
            with locked.lock.write():
                locked._tree = built
                live._generations[shard] += 1
            total += len(items)
        self._live = live
        self._check_key = live._check_key
        return total

    def _gc_orphans(self) -> None:
        """Unlink data files not referenced by the committed manifest --
        the debris of a flush or compaction that died pre-commit."""
        assert self._manifest is not None
        live = {self._manifest.wal, MANIFEST_NAME}
        for seg in self._segments:
            live.update(seg.files())
        removed = []
        for name in os.listdir(self._path):
            if name in live or name == MANIFEST_TMP:
                if name == MANIFEST_TMP:
                    os.unlink(os.path.join(self._path, name))
                continue
            if name.startswith(("seg-", "wal-")):
                os.unlink(os.path.join(self._path, name))
                removed.append(name)
        if removed:
            _recorder.record(
                "store_gc", path=self._path, removed=sorted(removed)
            )

    # -- geometry / introspection --------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def width(self) -> int:
        return self._width

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def learned(self) -> bool:
        return self._learned

    @property
    def live(self) -> ShardedPHTree:
        """The authoritative in-memory read view."""
        return self._live

    @property
    def manifest(self) -> Optional[Manifest]:
        return self._manifest

    @property
    def segments(self) -> List[Segment]:
        return list(self._segments)

    @property
    def wal_bytes(self) -> int:
        return self._wal.size if self._wal is not None else 0

    @property
    def pending_ops(self) -> int:
        return len(self._pending_puts) + len(self._pending_dels)

    @property
    def recovery_info(self) -> Dict[str, int]:
        """What the last :meth:`open` did: ``created``, ``segments``
        attached, WAL records ``replayed``, ``torn_bytes`` discarded,
        ``walked_segments`` read by walking their stream (no trailer)
        and, after a recovery, the ``entries`` loaded."""
        return dict(self._recovery_info)

    def stats(self) -> Dict[str, Any]:
        with self._mutex:
            self._ensure_open()
            assert self._manifest is not None
            return {
                "path": self._path,
                "dims": self._dims,
                "width": self._width,
                "shards": self._n_shards,
                "learned": self._learned,
                "entries": len(self._live),
                "generation": self._manifest.generation,
                "segments": len(self._segments),
                "segment_bytes": sum(s.nbytes for s in self._segments),
                "wal_bytes": self.wal_bytes,
                "wal_seq": self._next_seq - 1,
                "pending_puts": len(self._pending_puts),
                "pending_dels": len(self._pending_dels),
                "recovery": self.recovery_info,
            }

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    # -- mutations ------------------------------------------------------------

    def put(self, key: Sequence[int], value: Any = None) -> Any:
        """Insert/overwrite; durable on return.  Returns the previous
        value (``None`` if absent), like the live tree."""
        with self._mutex:
            self._ensure_open()
            key = self._check_key(key)
            raw = self._codec.encode(value)
            payload = self._records.encode_put(self._next_seq, key, raw)
            with store_io.scope("wal"):
                appended = self._wal.append([payload], sync=self._sync)
            self._next_seq += 1
            previous = self._live.put(key, value)
            self._pending_puts[key] = value
            self._pending_dels.discard(key)
            if _rt.enabled:
                _probes.store_wal_appends.inc()
                _probes.store_wal_bytes.inc(appended)
            return previous

    def put_all(
        self, entries: Sequence[Tuple[Sequence[int], Any]]
    ) -> None:
        """Group commit: all entries framed into one WAL write and made
        durable with a single fsync."""
        with self._mutex:
            self._ensure_open()
            payloads = []
            checked = []
            seq = self._next_seq
            for key, value in entries:
                key = self._check_key(key)
                raw = self._codec.encode(value)
                payloads.append(self._records.encode_put(seq, key, raw))
                checked.append((key, value))
                seq += 1
            if not payloads:
                return
            with store_io.scope("wal"):
                appended = self._wal.append(payloads, sync=self._sync)
            self._next_seq = seq
            self._live.put_all(checked)
            for key, value in checked:
                self._pending_puts[key] = value
                self._pending_dels.discard(key)
            if _rt.enabled:
                _probes.store_wal_appends.inc()
                _probes.store_wal_bytes.inc(appended)

    def remove(self, key: Sequence[int], default: Any = _MISSING) -> Any:
        """Remove ``key``; raises ``KeyError`` (no WAL traffic) when
        absent unless ``default`` is given."""
        with self._mutex:
            self._ensure_open()
            key = self._check_key(key)
            if not self._live.contains(key):
                if default is _MISSING:
                    raise KeyError(key)
                return default
            payload = self._records.encode_del(self._next_seq, key)
            with store_io.scope("wal"):
                appended = self._wal.append([payload], sync=self._sync)
            self._next_seq += 1
            value = self._live.remove(key)
            self._pending_puts.pop(key, None)
            self._pending_dels.add(key)
            if _rt.enabled:
                _probes.store_wal_appends.inc()
                _probes.store_wal_bytes.inc(appended)
            return value

    def update_key(
        self, old_key: Sequence[int], new_key: Sequence[int]
    ) -> None:
        """Move an entry's key (paper §3.6), with the live tree's exact
        error contract; durable on return."""
        with self._mutex:
            self._ensure_open()
            old_key = self._check_key(old_key)
            new_key = self._check_key(new_key)
            if self._live.contains(new_key):
                if old_key == new_key:
                    return
                raise ValueError(
                    f"target key already present: {new_key}"
                )
            if not self._live.contains(old_key):
                raise KeyError(old_key)
            payload = self._records.encode_update(
                self._next_seq, old_key, new_key
            )
            with store_io.scope("wal"):
                appended = self._wal.append([payload], sync=self._sync)
            self._next_seq += 1
            self._live.update_key(old_key, new_key)
            value = self._pending_puts.pop(old_key, _MISSING)
            if value is _MISSING:
                value = self._live.get(new_key)
            self._pending_dels.add(old_key)
            self._pending_dels.discard(new_key)
            self._pending_puts[new_key] = value
            if _rt.enabled:
                _probes.store_wal_appends.inc()
                _probes.store_wal_bytes.inc(appended)

    def clear(self) -> None:
        """Drop everything: live tree, pending delta, segment chain."""
        with self._mutex:
            self._ensure_open()
            self._live.clear()
            self._pending_puts.clear()
            self._pending_dels.clear()
            with store_io.scope("flush"):
                self._commit(segments=[], rotate_wal=True)

    # -- flush / compaction ----------------------------------------------------

    def _freeze_items(
        self, items: List[Tuple[Key, Any]], zs: List[int]
    ) -> bytes:
        tree = bulk_load_sorted(
            items,
            self._dims,
            self._width,
            hc_mode=self._hc_mode,
            validate=False,
            zcodes=zs,
        )
        return freeze(tree, self._codec, learned=self._learned)

    def _split_sorted(
        self, mapping: Dict[Key, Any]
    ) -> List[Tuple[int, List[Tuple[Key, Any]], List[int]]]:
        """z-sort ``mapping`` and cut it into contiguous shard runs."""
        z_of = self._z_of
        merged = sorted((z_of(key), key) for key in mapping)
        shard_of_z = self._live.router.shard_of_z
        runs: List[Tuple[int, List[Tuple[Key, Any]], List[int]]] = []
        n = len(merged)
        start = 0
        while start < n:
            shard = shard_of_z(merged[start][0])
            end = start + 1
            while end < n and shard_of_z(merged[end][0]) == shard:
                end += 1
            chunk = merged[start:end]
            runs.append(
                (
                    shard,
                    [(key, mapping[key]) for _, key in chunk],
                    [z for z, _ in chunk],
                )
            )
            start = end
        return runs

    def _commit(
        self, segments: List[SegmentRecord], rotate_wal: bool
    ) -> None:
        """Swap in a manifest naming ``segments`` as the full chain,
        optionally rotating the WAL; attaches the new chain and clears
        the pending delta.  Caller holds the mutex and an io scope."""
        assert self._manifest is not None and self._wal is not None
        old_wal_path = self._wal.path
        old_segments = self._segments
        generation = self._manifest.generation + 1
        if rotate_wal:
            wal_file = _wal_name(generation)
            new_wal = WriteAheadLog.create(
                os.path.join(self._path, wal_file)
            )
        else:
            wal_file = self._manifest.wal
            new_wal = self._wal
        manifest = Manifest(
            dims=self._dims,
            width=self._width,
            value_bits=self._codec.bits,
            shards=self._n_shards,
            learned=self._learned,
            wal=wal_file,
            wal_seq=self._next_seq - 1,
            next_file_id=self._manifest.next_file_id,
            generation=generation,
            segments=segments,
        )
        write_manifest(self._path, manifest)
        # -- committed: everything below is cleanup of the old chain.
        kb = self._records.key_bytes
        attached = [
            Segment.open(self._path, rec, self._codec, self._dims, kb)
            for rec in segments
        ]
        self._manifest = manifest
        self._segments = attached
        self._pending_puts.clear()
        self._pending_dels.clear()
        if rotate_wal and new_wal is not self._wal:
            self._wal.close()
            self._wal = new_wal
            store_io.unlink(old_wal_path)
        stale = {
            name
            for seg in old_segments
            for name in seg.files()
        } - {name for seg in attached for name in seg.files()}
        for seg in old_segments:
            if seg not in attached:
                seg.close()
        for name in sorted(stale):
            store_io.unlink(os.path.join(self._path, name))
        _probes.store_segments_live.set(len(attached))

    def flush(self) -> int:
        """Freeze the pending delta to new segment files and commit.

        Returns the number of chain records written (0 when clean).
        Durable at the manifest swap; a crash anywhere inside recovers
        the exact same contents from the previous manifest + WAL.
        """
        with self._mutex:
            self._ensure_open()
            if not self._pending_puts and not self._pending_dels:
                return 0
            assert self._manifest is not None
            with store_io.scope("flush"):
                file_id = self._manifest.next_file_id
                records: List[SegmentRecord] = list(
                    self._manifest.segments
                )
                written = 0
                if self._pending_dels:
                    name = tombstone_name(file_id)
                    file_id += 1
                    write_tombstone_file(
                        os.path.join(self._path, name),
                        sorted(self._pending_dels),
                        self._dims,
                        self._records.key_bytes,
                    )
                    records.append(
                        SegmentRecord(
                            tombstones=name,
                            removals=len(self._pending_dels),
                        )
                    )
                    written += 1
                for shard, items, zs in self._split_sorted(
                    self._pending_puts
                ):
                    name = segment_name(file_id)
                    file_id += 1
                    write_segment_file(
                        os.path.join(self._path, name),
                        self._freeze_items(items, zs),
                    )
                    records.append(
                        SegmentRecord(
                            file=name, shard=shard, entries=len(items)
                        )
                    )
                    written += 1
                self._manifest.next_file_id = file_id
                self._commit(records, rotate_wal=True)
            _recorder.record(
                "store_flush",
                path=self._path,
                written=written,
                chain=len(records),
                wal_seq=self._next_seq - 1,
            )
            _probes.store_flushes.inc()
            return written

    def compact(self) -> int:
        """Flush, then rewrite the chain as at most one segment per
        shard (tombstones and shadowed versions erased).

        After the flush the live tree holds exactly the merged chain,
        so the new chain is a snapshot of the live shards -- the same
        path :meth:`checkpoint` takes -- and the WAL, empty since the
        flush, stays.  Returns the number of segments committed.
        """
        with self._mutex:
            self._ensure_open()
            self.flush()
            if not self._segments:
                return 0
            records = self._commit_snapshot("compact", rotate_wal=False)
            _recorder.record(
                "store_compaction",
                path=self._path,
                segments=len(records),
                entries=len(self._live),
            )
            _probes.store_compactions.inc()
            return len(records)

    def checkpoint(self) -> int:
        """Snapshot the live shards directly to a fresh one-segment-per-
        shard chain (flush + compact in one pass, no chain replay).

        The fast path for bulk ingest: the per-shard streams come from
        :meth:`ShardedPHTree.freeze_shards` under shard read locks.
        """
        with self._mutex:
            self._ensure_open()
            records = self._commit_snapshot("flush", rotate_wal=True)
            _recorder.record(
                "store_checkpoint",
                path=self._path,
                segments=len(records),
                entries=len(self._live),
            )
            _probes.store_flushes.inc()
            return len(records)

    def _commit_snapshot(
        self, scope: str, rotate_wal: bool
    ) -> List[SegmentRecord]:
        """Write each non-empty live shard's frozen stream as a segment
        and commit them as the whole chain, inside io ``scope``.  A
        shard's stream depends only on its contents (paper §3), so it is
        byte-identical to freezing a bulk load of them.  Caller holds
        the mutex."""
        assert self._manifest is not None
        blobs = self._live.freeze_shards(self._codec, learned=self._learned)
        sizes = self._live.shard_sizes()
        with store_io.scope(scope):
            records: List[SegmentRecord] = []
            file_id = self._manifest.next_file_id
            for shard, blob in enumerate(blobs):
                if not sizes.get(shard):
                    continue
                name = segment_name(file_id)
                file_id += 1
                write_segment_file(os.path.join(self._path, name), blob)
                records.append(
                    SegmentRecord(
                        file=name, shard=shard, entries=sizes[shard]
                    )
                )
            self._manifest.next_file_id = file_id
            self._commit(records, rotate_wal=rotate_wal)
        return records

    # -- reads (delegated to the live tree) ------------------------------------

    def get(self, key: Sequence[int], default: Any = None) -> Any:
        return self._live.get(key, default)

    def contains(self, key: Sequence[int]) -> bool:
        return self._live.contains(key)

    def __contains__(self, key: Sequence[int]) -> bool:
        return self._live.contains(key)

    def get_many(
        self, keys: Sequence[Sequence[int]], default: Any = None
    ) -> List[Any]:
        return self._live.get_many(keys, default)

    def contains_many(self, keys: Sequence[Sequence[int]]) -> List[bool]:
        return self._live.contains_many(keys)

    def query(
        self, lower: Sequence[int], upper: Sequence[int]
    ) -> List[Tuple[Key, Any]]:
        return self._live.query(lower, upper)

    def query_many(
        self, boxes: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> List[List[Tuple[Key, Any]]]:
        return self._live.query_many(boxes)

    def count(self, lower: Sequence[int], upper: Sequence[int]) -> int:
        return self._live.count(lower, upper)

    def knn(self, key: Sequence[int], n: int) -> List[Tuple[Key, Any]]:
        return self._live.knn(key, n)

    def items(self) -> Iterator[Tuple[Key, Any]]:
        return self._live.items()

    def keys(self) -> Iterator[Key]:
        return self._live.keys()

    def __iter__(self) -> Iterator[Key]:
        return self._live.keys()

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """fsync and close the WAL, unmap segments, shut the live tree.
        The store reopens (recovering nothing) with :meth:`open`."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None and not self._wal.closed:
                try:
                    with store_io.scope("wal"):
                        self._wal.sync()
                except store_io.SimulatedCrash:
                    # The harness simulated our death mid-phase: the
                    # "process" performs no further I/O; dropping the
                    # fd without the sync is exactly what SIGKILL does.
                    pass
                self._wal.close()
            for seg in self._segments:
                seg.close()
            self._segments = []
            self._live.close()

    def __enter__(self) -> "DurablePHTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass

"""DurablePHTree lifecycle: open/mutate/flush/compact/recover."""

from __future__ import annotations

import os
import random

import pytest

from repro.check.validate import validate_tree
from repro.core.serialize import NoneValueCodec, U64ValueCodec
from repro.store import DurablePHTree, StoreError

DIMS, WIDTH = 2, 16


def _items(n=120, seed=5):
    rng = random.Random(seed)
    out = {}
    while len(out) < n:
        out[tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))] = (
            rng.randrange(1 << 32)
        )
    return out


def _open(path, **kw):
    kw.setdefault("dims", DIMS)
    kw.setdefault("width", WIDTH)
    kw.setdefault("shards", 4)
    kw.setdefault("value_codec", U64ValueCodec)
    return DurablePHTree.open(str(path), **kw)


def test_constructor_is_blocked():
    with pytest.raises(TypeError, match="DurablePHTree.open"):
        DurablePHTree()


def test_fresh_open_requires_dims(tmp_path):
    with pytest.raises(StoreError, match="pass dims="):
        DurablePHTree.open(str(tmp_path / "db"))


def test_fresh_open_requires_nameable_codec(tmp_path):
    class WeirdCodec:
        bits = 32

    with pytest.raises(StoreError, match="value_codec"):
        DurablePHTree.open(
            str(tmp_path / "db"), dims=2, value_codec=WeirdCodec
        )


def test_put_get_remove_roundtrip(tmp_path):
    with _open(tmp_path / "db") as store:
        assert store.put((1, 2), 10) is None
        assert store.put((1, 2), 11) == 10  # previous value back
        assert store.get((1, 2)) == 11
        assert (1, 2) in store
        assert len(store) == 1
        assert store.remove((1, 2)) == 11
        with pytest.raises(KeyError):
            store.remove((1, 2))
        assert store.remove((1, 2), default=-1) == -1
        assert len(store) == 0 and not store


def test_update_key_contract_matches_live_tree(tmp_path):
    with _open(tmp_path / "db") as store:
        store.put((1, 1), 7)
        store.put((2, 2), 8)
        # Target occupied: ValueError -- unless it is a self-move.
        with pytest.raises(ValueError):
            store.update_key((1, 1), (2, 2))
        store.update_key((1, 1), (1, 1))  # no-op
        # Missing source: KeyError.
        with pytest.raises(KeyError):
            store.update_key((3, 3), (4, 4))
        store.update_key((1, 1), (5, 5))
        assert store.get((5, 5)) == 7
        assert store.get((1, 1)) is None


def test_reopen_replays_wal(tmp_path):
    db = tmp_path / "db"
    items = _items(80)
    with _open(db) as store:
        store.put_all(list(items.items()))
        victim = next(iter(items))
        store.remove(victim)
        del items[victim]
    with _open(db) as store:
        info = store.recovery_info
        assert info["created"] == 0
        assert info["replayed"] == 81  # 80 puts + 1 delete
        assert dict(store.items()) == items
        validate_tree(store)


def test_flush_writes_segments_and_tombstones(tmp_path):
    db = tmp_path / "db"
    items = _items(100)
    with _open(db) as store:
        store.put_all(list(items.items()))
        for key in list(items)[:10]:
            store.remove(key)
            del items[key]
        assert store.pending_ops > 0
        written = store.flush()
        assert written >= 2  # >=1 data segment + 1 tombstone batch
        assert store.pending_ops == 0
        assert store.flush() == 0  # clean store: no-op
        tombs = [s for s in store.segments if s.record.tombstones]
        datas = [s for s in store.segments if s.record.file]
        assert len(tombs) == 1 and tombs[0].record.removals == 10
        assert sum(len(s.frozen) for s in datas) == len(items)
        assert dict(store.items()) == items
        validate_tree(store)
    with _open(db) as store:
        assert store.recovery_info["replayed"] == 0  # WAL rotated
        assert dict(store.items()) == items


def test_compact_merges_chain(tmp_path):
    db = tmp_path / "db"
    items = _items(120)
    keys = list(items)
    with _open(db) as store:
        store.put_all([(k, items[k]) for k in keys[:60]])
        store.flush()
        store.put_all([(k, items[k]) for k in keys[60:]])
        for key in keys[:15]:
            store.remove(key)
            del items[key]
        merged = store.compact()
        assert 1 <= merged <= store.n_shards
        assert all(s.record.file for s in store.segments)  # no tombs
        assert sum(
            s.record.entries for s in store.segments
        ) == len(items)
        assert dict(store.items()) == items
        validate_tree(store)
    with _open(db) as store:
        assert dict(store.items()) == items


def test_checkpoint_snapshots_live_shards(tmp_path):
    db = tmp_path / "db"
    items = _items(90)
    with _open(db) as store:
        store.put_all(list(items.items()))
        segs = store.checkpoint()
        assert 1 <= segs <= store.n_shards
        assert store.pending_ops == 0
        validate_tree(store)
    with _open(db) as store:
        assert store.recovery_info["replayed"] == 0
        assert dict(store.items()) == items


def test_close_while_a_segment_view_is_held(tmp_path):
    """A caller holding a ``Segment.frozen`` must not make ``close()``
    raise ``BufferError``: the store drops its references, the map is
    released with the caller's last view, and the deferral is recorded."""
    from repro.obs import recorder

    db = tmp_path / "db"
    items = _items(90)
    with _open(db) as store:
        store.put_all(list(items.items()))
        store.checkpoint()
    store = _open(db)
    held = [seg.frozen for seg in store.segments if seg.frozen is not None]
    assert held
    before = recorder.get_recorder().seq
    store.close()
    assert store.closed
    assert store.segments == []
    deferred = [
        detail
        for seq, _, kind, detail in recorder.dump()
        if kind == "segment_unmap_deferred" and seq > before
    ]
    assert len(deferred) == len(held)
    # The held views still read the mapping they pinned.
    assert sum(len(frozen) for frozen in held) == len(items)
    with _open(db) as store:
        assert dict(store.items()) == items
    del held


def test_orphan_files_are_garbage_collected(tmp_path):
    db = tmp_path / "db"
    items = _items(40)
    with _open(db) as store:
        store.put_all(list(items.items()))
        store.flush()
    # Debris of a crashed flush: files no manifest references.
    for orphan in ("seg-99999999.phs", "wal-99999999.log"):
        with open(os.path.join(str(db), orphan), "wb") as f:
            f.write(b"debris")
    with _open(db) as store:
        names = set(os.listdir(str(db)))
        assert "seg-99999999.phs" not in names
        assert "wal-99999999.log" not in names
        assert dict(store.items()) == items


def test_geometry_mismatch_is_rejected(tmp_path):
    db = tmp_path / "db"
    _open(db).close()
    with pytest.raises(StoreError, match="dims mismatch"):
        DurablePHTree.open(str(db), dims=5, value_codec=U64ValueCodec)
    with pytest.raises(StoreError, match="value codec mismatch"):
        DurablePHTree.open(str(db), value_codec=NoneValueCodec)


def test_codec_defaults_from_manifest(tmp_path):
    db = tmp_path / "db"
    with _open(db) as store:
        store.put((3, 4), 99)
    with DurablePHTree.open(str(db)) as store:  # codec inferred
        assert store.get((3, 4)) == 99


def test_queries_delegate_to_live_tree(tmp_path):
    with _open(tmp_path / "db") as store:
        items = _items(60)
        store.put_all(list(items.items()))
        lo = (0,) * DIMS
        hi = ((1 << WIDTH) - 1,) * DIMS
        assert dict(store.query(lo, hi)) == items
        assert store.count(lo, hi) == len(items)
        some = list(items)[:5]
        assert store.get_many(some) == [items[k] for k in some]
        assert store.contains_many(some) == [True] * 5
        assert set(store.keys()) == set(items)
        nearest = store.knn(next(iter(items)), 1)
        assert len(nearest) == 1


def test_clear_drops_everything_durably(tmp_path):
    db = tmp_path / "db"
    with _open(db) as store:
        store.put_all(list(_items(50).items()))
        store.flush()
        store.put((7, 7), 1)
        store.clear()
        assert len(store) == 0
        assert store.segments == []
    with _open(db) as store:
        assert len(store) == 0
        assert dict(store.items()) == {}


def test_closed_store_raises(tmp_path):
    store = _open(tmp_path / "db")
    store.close()
    assert store.closed
    store.close()  # idempotent
    with pytest.raises(StoreError, match="closed"):
        store.put((1, 1), 1)
    with pytest.raises(StoreError, match="closed"):
        store.stats()


def test_stats_shape(tmp_path):
    with _open(tmp_path / "db") as store:
        store.put_all(list(_items(30).items()))
        store.flush()
        stats = store.stats()
        assert stats["entries"] == 30
        assert stats["segments"] == len(store.segments)
        assert stats["wal_seq"] == 30
        assert stats["pending_puts"] == 0
        assert stats["segment_bytes"] > 0
        assert stats["recovery"]["created"] == 1

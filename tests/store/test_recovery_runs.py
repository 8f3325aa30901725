"""Recovery and compaction over z-sorted runs.

A segment is one shard's entries in z-order; a learned segment's PHL1
trailer holds that order as a flat z-column.  Recovery reads each
segment as a run, merges it with newer segments and the WAL tail by
z-code, and bulk-loads the result; compaction snapshots the live tree.
These tests pin that the result equals the reference model across chain
shapes, that the rebuilt pending delta is the one the writes left, that
the on-disk bytes did not change, and that recovery checks the trailer
columns it now trusts.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct

import pytest

from repro.check.model import ReferenceModel
from repro.check.validate import validate_tree
from repro.core.bulk import bulk_load
from repro.core.frozen import FrozenPHTree, freeze
from repro.core.serialize import NoneValueCodec, U64ValueCodec
from repro.obs import recorder
from repro.store import DurablePHTree, StoreError


class _Run:
    """A store driven in lockstep with the reference model."""

    def __init__(self, path, *, dims=2, width=16, shards=4, learned=True,
                 codec=U64ValueCodec, seed=11, key_bits=None):
        self.path = str(path)
        self.dims, self.width = dims, width
        self.codec = codec
        self.rng = random.Random(seed)
        self.key_bits = key_bits if key_bits is not None else (width,) * dims
        self.model = ReferenceModel(dims, width)
        self.store = DurablePHTree.open(
            self.path, dims=dims, width=width, shards=shards,
            value_codec=codec, learned=learned,
        )

    def key(self):
        return tuple(self.rng.randrange(1 << b) for b in self.key_bits)

    def value(self):
        return self.rng.randrange(1 << 64) if self.codec is U64ValueCodec else None

    def present(self, n):
        return self.rng.sample(sorted(self.model.data), n)

    def put_all(self, n):
        entries = {}
        while len(entries) < n:
            entries[self.key()] = self.value()
        self.store.put_all(list(entries.items()))
        for key, value in entries.items():
            self.model.put(key, value)
        return list(entries)

    def put(self, key, value=None):
        value = self.value() if value is None else value
        assert self.store.put(key, value) == self.model.put(key, value)

    def remove(self, key):
        assert self.store.remove(key) == self.model.remove(key)

    def move(self, old, new):
        self.store.update_key(old, new)
        self.model.update_key(old, new)

    def fresh_key(self):
        while True:
            key = self.key()
            if key not in self.model.data:
                return key

    def reopen_and_check(self):
        """Close, reopen and compare contents and the pending delta."""
        store = self.store
        pending = (dict(store._pending_puts), set(store._pending_dels))
        pending_ops = store.pending_ops
        store.close()
        self.store = store = DurablePHTree.open(self.path)
        assert list(store.items()) == self.model.items()
        assert (dict(store._pending_puts), set(store._pending_dels)) == pending
        assert store.pending_ops == pending_ops
        validate_tree(store)
        for locked in store.live._shards:
            tree = locked.unsafe_tree
            rebuilt = bulk_load(list(tree.items()), self.dims, self.width)
            assert freeze(tree, self.codec, learned=True) == freeze(
                rebuilt, self.codec, learned=True
            )
        return store


# -- chain shapes ---------------------------------------------------------


def _checkpoint_only(run):
    run.put_all(300)
    run.store.checkpoint()


def _multi_flush(run):
    first = run.put_all(200)
    run.store.flush()
    # Deletes of keys that live only in the older segment, plus
    # overwrites that shadow it.
    gone = first[:30]
    for key in gone:
        run.remove(key)
    for key in first[30:50]:
        run.put(key)
    run.store.flush()
    # Deleted then re-put across flushes; new keys; a second tombstone.
    for key in gone[:10]:
        run.put(key)
    run.put_all(60)
    for key in first[50:60]:
        run.remove(key)
    run.store.flush()


def _wal_tail(run):
    base = run.put_all(200)
    run.store.checkpoint()
    run.put_all(40)
    for key in run.present(15):
        run.remove(key)
    for key in run.present(10):
        run.put(key)  # overwrite
    # Move a key that lives only in a segment, then move it again.
    segment_only = next(k for k in base if k in run.model.data)
    first_hop = run.fresh_key()
    run.move(segment_only, first_hop)
    run.move(first_hop, run.fresh_key())
    # Move a key that lives only in the WAL, and put over a moved-away key.
    wal_key = run.fresh_key()
    run.put(wal_key)
    run.move(wal_key, run.fresh_key())
    run.put(segment_only)
    # A WAL record moving an absent key replays as a no-op.
    absent, target = run.fresh_key(), run.fresh_key()
    store = run.store
    store._wal.append(
        [store._records.encode_update(store._next_seq, absent, target)]
    )
    store._next_seq += 1


def _flush_then_wal(run):
    _multi_flush(run)
    keys = run.present(20)
    for key in keys[:10]:
        run.remove(key)
    for key in keys[10:]:
        run.move(key, run.fresh_key())
    run.put_all(25)


def _compacted_then_wal(run):
    _multi_flush(run)
    run.store.compact()
    assert all(seg.record.file for seg in run.store.segments)
    for key in run.present(10):
        run.remove(key)
    run.put_all(10)


def _empty_shards(run):
    # Dimension 0 stays in its lower half, so half the shards never get
    # a key; then one populated shard is emptied by deletes.
    run.put_all(150)
    run.store.flush()
    live = run.store.live
    shard = next(s for s, n in live.shard_sizes().items() if n)
    victims = [k for k in run.model.data if live.router.shard_of(k) == shard]
    for key in victims:
        run.remove(key)
    run.store.flush()
    run.put_all(5)


SCENARIOS = {
    "checkpoint-only": _checkpoint_only,
    "multi-flush": _multi_flush,
    "wal-tail": _wal_tail,
    "flush-then-wal": _flush_then_wal,
    "compacted-then-wal": _compacted_then_wal,
}


@pytest.mark.parametrize("learned", [True, False], ids=["learned", "plain"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reopen_matches_model(tmp_path, name, learned):
    run = _Run(tmp_path / "db", learned=learned)
    SCENARIOS[name](run)
    store = run.reopen_and_check()
    walked = sum(1 for seg in store.segments if seg.frozen is not None)
    assert store.recovery_info["walked_segments"] == (0 if learned else walked)
    # And once more after a compaction of the recovered store.
    store.compact()
    run.reopen_and_check().close()


@pytest.mark.parametrize(
    "dims,width", [(3, 20), (2, 40), (1, 12)], ids=["3x20", "2x40", "1x12"]
)
def test_reopen_matches_model_across_shapes(tmp_path, dims, width):
    # 2x40 has two-word z-codes in the trailer; 1x12 is the identity
    # de-interleave.
    run = _Run(tmp_path / "db", dims=dims, width=width, shards=8)
    _flush_then_wal(run)
    run.reopen_and_check().close()


def test_empty_shards(tmp_path):
    run = _Run(tmp_path / "db", shards=8, key_bits=(15, 16))
    _empty_shards(run)
    store = run.reopen_and_check()
    sizes = store.live.shard_sizes()
    assert sum(1 for n in sizes.values() if not n) >= 4
    store.close()


def test_none_values(tmp_path):
    run = _Run(tmp_path / "db", codec=NoneValueCodec)
    _flush_then_wal(run)
    run.reopen_and_check().close()


def test_recovery_and_compaction_never_walk_learned_segments(
    tmp_path, monkeypatch
):
    run = _Run(tmp_path / "db")
    _flush_then_wal(run)
    run.store.close()

    def forbidden(*args, **kwargs):
        raise AssertionError("walked a learned segment's stream")

    with monkeypatch.context() as patch:
        patch.setattr(FrozenPHTree, "items", forbidden)
        patch.setattr(FrozenPHTree, "_walk", forbidden)
        store = DurablePHTree.open(run.path)
        assert store.recovery_info["walked_segments"] == 0
        store.compact()
        store.close()
        store = DurablePHTree.open(run.path)
    assert list(store.items()) == run.model.items()
    store.close()


# -- checks on the trailer columns --------------------------------------------


def _trailer_columns(blob):
    """``(n, zwords, z-column offset, valpos-column offset)``."""
    nbytes = FrozenPHTree(blob).nbytes
    off = nbytes + (-nbytes % 8)
    _magic, zwords, _flags, n, segs, _eps, _cap = struct.unpack_from(
        "=4sHHQQQQ", blob, off
    )
    zcol = off + 40 + 8 * (segs * (3 + zwords))
    return n, zwords, zcol, zcol + 8 * n * zwords


def _closed_store(tmp_path):
    run = _Run(tmp_path / "db")
    run.put_all(200)
    run.store.checkpoint()
    seg = next(s for s in run.store.segments if s.record.shard == 0)
    path = os.path.join(run.path, seg.record.file)
    run.store.close()
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    return run, seg.record.file, path, blob


def _rewrite(path, blob):
    with open(path, "wb") as f:
        f.write(blob)


def test_swapped_z_words_fail_open(tmp_path):
    _run, name, path, blob = _closed_store(tmp_path)
    _n, _zw, zcol, _vcol = _trailer_columns(bytes(blob))
    blob[zcol : zcol + 16] = blob[zcol + 8 : zcol + 16] + blob[zcol : zcol + 8]
    _rewrite(path, blob)
    with pytest.raises(StoreError, match=f"{name}.*ascend"):
        DurablePHTree.open(str(tmp_path / "db"))


def test_z_codes_outside_the_shard_fail_open(tmp_path):
    _run, name, path, blob = _closed_store(tmp_path)
    n, _zw, zcol, _vcol = _trailer_columns(bytes(blob))
    last = zcol + 8 * (n - 1)
    # Still the largest z-code of the run, but in the last shard's range.
    blob[last : last + 8] = struct.pack("=Q", (1 << 32) - 1)
    _rewrite(path, blob)
    with pytest.raises(StoreError, match=f"{name}.*interval"):
        DurablePHTree.open(str(tmp_path / "db"))


def test_value_offsets_outside_the_stream_fail_open(tmp_path):
    _run, name, path, blob = _closed_store(tmp_path)
    n, _zw, _zcol, vcol = _trailer_columns(bytes(blob))
    last = vcol + 8 * (n - 1)
    blob[last : last + 8] = struct.pack("=Q", 8 * len(blob))
    _rewrite(path, blob)
    with pytest.raises(StoreError, match=f"{name}.*value offsets"):
        DurablePHTree.open(str(tmp_path / "db"))


def test_entry_count_mismatch_fails_open(tmp_path):
    _run, name, path, blob = _closed_store(tmp_path)
    # The header's entry count (big-endian u64 after magic, dims, width).
    count = struct.unpack_from(">Q", blob, 8)[0]
    struct.pack_into(">Q", blob, 8, count + 1)
    _rewrite(path, blob)
    with pytest.raises(StoreError, match=f"{name}.*header"):
        DurablePHTree.open(str(tmp_path / "db"))


def test_segment_without_trailer_is_walked_and_counted(tmp_path):
    run, name, path, blob = _closed_store(tmp_path)
    nbytes = FrozenPHTree(bytes(blob)).nbytes
    _rewrite(path, blob[:nbytes])
    recorder.clear()
    store = DurablePHTree.open(run.path)
    assert list(store.items()) == run.model.items()
    assert store.recovery_info["walked_segments"] == 1
    walked = [e for e in recorder.dump() if e[2] == "store_segment_walked"]
    assert [e[3]["file"] for e in walked] == [name]
    store.close()


# -- the on-disk format ----------------------------------------------------------

#: SHA-256 over the chain's file digests after each phase of
#: :func:`_format_scenario`; computed before recovery and compaction
#: moved to z-sorted runs, so a change here is a format change.
FORMAT_PINS = {
    (3, 12, True): {
        "checkpoint": "40b1beb031cd9114eb27c72bc04caac69656cc67058d0b38bc655c19ffdf20c5",
        "flush": "4b0a5e3993659eff9ec494a64e29e40d9c6964b126786cdec52f5992ec2d10e6",
        "compact": "856300d0ff7be67f55700df2da8f650172f366b9006cd80415b9237b757b7212",
    },
    (2, 40, True): {
        "checkpoint": "98b73a21fb71f0d1c7ff831d2729f60176f7380261cc20520086236e795578c3",
        "flush": "3fc7263a29067c3a04283cbffbc092f45899de3f77a735ed6cad2e36cf9deacb",
        "compact": "de95803074911c23a0e11c82286ba74fc74946497607598dd56cc2c4d2aa4b55",
    },
    (3, 12, False): {
        "checkpoint": "4dab8878652d3c0349f62dd0b67a6b14e2bea2774d1c6f99348fc5e00e1b55a8",
        "flush": "80fe029568a9909cbb749e30c96df848a92de247415adcc0105b631ebc911f74",
        "compact": "ae057c674af3d626962917c7aacf78ef6e6575f61b2a8634d62e12c14bd0e453",
    },
}


def _chain_digest(store):
    digests = []
    for rec in store.manifest.segments:
        with open(os.path.join(store.path, rec.file or rec.tombstones), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _format_scenario(root, dims, width, learned):
    codec = U64ValueCodec if learned else NoneValueCodec
    rng = random.Random(4242)
    mask = (1 << width) - 1

    def key():
        return tuple(rng.randrange(mask + 1) for _ in range(dims))

    def val():
        return rng.randrange(1 << 64) if codec is U64ValueCodec else None

    out = {}
    with DurablePHTree.open(
        root, dims=dims, width=width, shards=4, value_codec=codec,
        learned=learned,
    ) as store:
        live = {}
        while len(live) < 400:
            live[key()] = val()
        store.put_all(list(live.items()))
        store.checkpoint()
        out["checkpoint"] = _chain_digest(store)

        def churn(n):
            for _ in range(n):
                r = rng.random()
                keys = list(live)
                if r < 0.5 or not keys:
                    k = key() if rng.random() < 0.7 or not keys else rng.choice(keys)
                    v = val()
                    store.put(k, v)
                    live[k] = v
                elif r < 0.8:
                    k = rng.choice(keys)
                    store.remove(k)
                    del live[k]
                else:
                    k = rng.choice(keys)
                    nk = key()
                    if nk in live:
                        continue
                    store.update_key(k, nk)
                    live[nk] = live.pop(k)

        churn(150)
        store.flush()
        out["flush"] = _chain_digest(store)
        churn(150)
        store.compact()
        out["compact"] = _chain_digest(store)
    return out


@pytest.mark.parametrize("shape", sorted(FORMAT_PINS), ids=str)
def test_segment_bytes_are_pinned(tmp_path, shape):
    dims, width, learned = shape
    got = _format_scenario(str(tmp_path / "db"), dims, width, learned)
    assert got == FORMAT_PINS[shape]

"""``update_key`` moves that cross shard boundaries, exercised under
concurrent readers and checked lockstep against an unsharded oracle."""

from __future__ import annotations

import random
import threading

import pytest

from repro import PHTree
from repro.check import validate_tree
from repro.parallel import ShardedPHTree

DIMS, WIDTH, SHARDS = 2, 16, 4
LIMIT = 1 << WIDTH


def _unique_keys(rng, n):
    seen = set()
    while len(seen) < n:
        seen.add(tuple(rng.randrange(LIMIT) for _ in range(DIMS)))
    return list(seen)


def test_update_key_crosses_shards_lockstep_oracle():
    rng = random.Random(2014)
    keys = _unique_keys(rng, 200)
    sharded = ShardedPHTree(dims=DIMS, width=WIDTH, shards=SHARDS)
    oracle = PHTree(dims=DIMS, width=WIDTH)
    for value, key in enumerate(keys):
        sharded.put(key, value)
        oracle.put(key, value)

    crossings = 0
    live = list(keys)
    for step in range(400):
        old_key = live[rng.randrange(len(live))]
        new_key = tuple(rng.randrange(LIMIT) for _ in range(DIMS))
        if sharded.contains(new_key):
            # Occupied target: both sides must refuse identically.
            with pytest.raises(ValueError):
                sharded.update_key(old_key, new_key)
            with pytest.raises(ValueError):
                oracle.update_key(old_key, new_key)
            continue
        if sharded._router.shard_of(old_key) != sharded._router.shard_of(
            new_key
        ):
            crossings += 1
        sharded.update_key(old_key, new_key)
        oracle.update_key(old_key, new_key)
        live[live.index(old_key)] = new_key
        if step % 100 == 0:
            assert list(sharded.items()) == list(oracle.items())
    # The point of the test: a healthy share of moves changed shards.
    assert crossings > 50
    assert list(sharded.items()) == list(oracle.items())
    validate_tree(sharded)


def test_update_key_cross_shard_under_concurrent_readers():
    rng = random.Random(77)
    keys = _unique_keys(rng, 300)
    sharded = ShardedPHTree(dims=DIMS, width=WIDTH, shards=SHARDS)
    oracle = PHTree(dims=DIMS, width=WIDTH)
    # Every key ever inserted or moved to, with its (immutable) value;
    # written by the mover thread *before* the key becomes visible, so
    # readers can always resolve what they see.  Keys are never reused.
    ever_values = {}
    for value, key in enumerate(keys):
        sharded.put(key, value)
        oracle.put(key, value)
        ever_values[key] = value

    stop = threading.Event()
    problems = []

    def reader():
        # Hammer reads across all shards while keys migrate between
        # them.  Per-shard locking means a full iteration is not one
        # atomic snapshot, but every observed entry must carry its one
        # true value, every shard-local slice must be duplicate-free,
        # and nothing may raise.
        local_rng = random.Random(threading.get_ident())
        domain_lo = (0,) * DIMS
        domain_hi = (LIMIT - 1,) * DIMS
        while not stop.is_set():
            try:
                snapshot = list(sharded.items())
                for key, value in snapshot:
                    if ever_values.get(key) != value:
                        problems.append(
                            f"entry {key} seen with value {value}, "
                            f"expected {ever_values.get(key)}"
                        )
                window = sharded.query(domain_lo, domain_hi)
                for key, value in window:
                    if ever_values.get(key) != value:
                        problems.append(f"window saw torn {key}")
                probe = snapshot[
                    local_rng.randrange(len(snapshot))
                ][0]
                found = sharded.get(probe, None)
                if found is not None and ever_values.get(probe) != found:
                    problems.append(f"get({probe}) returned {found}")
            except Exception as exc:  # pragma: no cover - fail loudly
                problems.append(f"reader raised {exc!r}")
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()

    crossings = 0
    live = list(keys)
    try:
        moves = 0
        while moves < 250:
            index = rng.randrange(len(live))
            old_key = live[index]
            new_key = tuple(rng.randrange(LIMIT) for _ in range(DIMS))
            if new_key in ever_values:
                continue  # never reuse a key: values stay unambiguous
            if sharded._router.shard_of(
                old_key
            ) != sharded._router.shard_of(new_key):
                crossings += 1
            ever_values[new_key] = ever_values[old_key]
            sharded.update_key(old_key, new_key)
            oracle.update_key(old_key, new_key)
            live[index] = new_key
            moves += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

    assert not problems, problems[:5]
    assert crossings > 30
    assert list(sharded.items()) == list(oracle.items())
    assert len(sharded) == len(keys)
    validate_tree(sharded)

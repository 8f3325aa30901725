"""Point reads through the stack: ``PHTree`` -> ``ShardedPHTree`` ->
``DurablePHTree``.

``ShardedPHTree.get``/``contains`` check a key once (the shard engine's
fused check, ``_check_key`` for what it declines), route it, take the
shard's read lock and call the shard tree's ``get_checked``; ``get_many``
answers each shard's group under one read lock, key by key up to
``GET_MANY_CUTOVER`` keys and by the shard tree's ``get_many`` above.
Every layer
must answer, fail and count exactly like one ``PHTree``.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.phtree import PHTree
from repro.core.serialize import U64ValueCodec
from repro.obs import probes
from repro.parallel import ShardedPHTree
from repro.parallel.sharded import GET_MANY_CUTOVER
from repro.store import DurablePHTree

DIMS = 3
WIDTH = 12
SHARDS = 4


class _Int(int):
    """An int subclass: ``PHTree`` accepts it as a coordinate."""


def _keys(n=1200, seed=3):
    rng = random.Random(seed)
    return list(
        dict.fromkeys(
            tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
            for _ in range(n)
        )
    )


def _probes(keys, seed=4):
    """The stored keys plus ~10% absent ones, shuffled."""
    rng = random.Random(seed)
    stored = set(keys)
    absent = []
    while len(absent) < len(keys) // 10:
        key = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        if key not in stored:
            absent.append(key)
    probes_ = keys + absent
    rng.shuffle(probes_)
    return probes_


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    """One reference ``PHTree`` and every layer holding the same entries:
    prefix- and learned-routed ``ShardedPHTree`` and a ``DurablePHTree``
    reopened from its checkpoint."""
    keys = _keys()
    entries = [(key, i) for i, key in enumerate(keys)]
    reference = PHTree(dims=DIMS, width=WIDTH)
    for key, value in entries:
        reference.put(key, value)
    prefix = ShardedPHTree.build(entries, DIMS, WIDTH, shards=SHARDS)
    learned = ShardedPHTree.build(
        entries, DIMS, WIDTH, shards=SHARDS, router="learned"
    )
    path = str(tmp_path_factory.mktemp("point-reads") / "store")
    with DurablePHTree.open(
        path, dims=DIMS, width=WIDTH, shards=SHARDS,
        value_codec=U64ValueCodec,
    ) as store:
        store.put_all(entries)
        store.checkpoint()
    durable = DurablePHTree.open(path, value_codec=U64ValueCodec)
    yield keys, reference, {
        "prefix": prefix, "learned": learned, "durable": durable,
    }
    durable.close()


LAYERS = ["prefix", "learned", "durable"]


@pytest.mark.parametrize("layer", LAYERS)
def test_answers_match_one_phtree(layers, layer):
    keys, reference, trees = layers
    tree = trees[layer]
    probes_ = _probes(keys)
    assert [tree.get(k, "?") for k in probes_] == [
        reference.get(k, "?") for k in probes_
    ]
    assert [tree.contains(k) for k in probes_] == [
        reference.contains(k) for k in probes_
    ]
    assert [k in tree for k in probes_[:50]] == [
        k in reference for k in probes_[:50]
    ]
    for size in (1, 16, 64, len(probes_)):
        batch = probes_[:size]
        assert tree.get_many(batch, "?") == reference.get_many(batch, "?")
        assert tree.contains_many(batch) == reference.contains_many(batch)
    assert tree.get_many([]) == [] and tree.contains_many([]) == []


@pytest.mark.parametrize("layer", LAYERS)
def test_get_many_runs_both_sides_of_the_cutover(
    layers, layer, monkeypatch
):
    """A small batch is answered key by key in every shard; a batch
    whose shard groups exceed the cut-over goes to the shard trees'
    batch engine."""
    keys, reference, trees = layers
    tree = trees[layer]
    engine = type(reference)
    calls = {"get": 0, "get_many": 0}
    for name in calls:
        original = getattr(engine, name)

        def spy(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(engine, name, spy)
    small = _probes(keys)[:64]
    want = [reference.get(k) for k in small]
    calls.update(get=0, get_many=0)
    assert tree.get_many(small) == want
    assert calls == {"get": len(small), "get_many": 0}
    # Every stored key four times: ~1,200 keys per shard.
    big = keys * 4
    assert len(big) // SHARDS > GET_MANY_CUTOVER
    calls.update(get=0, get_many=0)
    assert tree.get_many(big) == [i for _ in range(4) for i in range(len(keys))]
    assert calls == {"get": 0, "get_many": SHARDS}


def _failure(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared below
        return type(exc), str(exc)
    return None


BAD_KEYS = [
    pytest.param((1, 2), id="arity"),
    pytest.param((1.0, 2, 3), id="float"),
    pytest.param((1, -2, 3), id="negative"),
    pytest.param((1, 2, 1 << WIDTH), id="too-wide"),
    pytest.param(7, id="not-iterable"),
]


@pytest.mark.parametrize("bad", BAD_KEYS)
@pytest.mark.parametrize("layer", LAYERS)
def test_bad_keys_fail_like_phtree(layers, layer, bad):
    keys, reference, trees = layers
    tree = trees[layer]
    good = keys[0]
    for op in (
        lambda t: t.get(bad),
        lambda t: t.contains(bad),
        lambda t: t.get_many([good, bad]),
        lambda t: t.contains_many([good, bad]),
    ):
        expected = _failure(lambda: op(reference))
        assert expected is not None
        assert _failure(lambda: op(tree)) == expected


@pytest.mark.parametrize("layer", LAYERS)
def test_bad_iterator_keys_name_the_bad_coordinate(layers, layer):
    """A key given as an iterator is read once: when the fused check
    declines it, ``_check_key`` still sees its coordinates."""
    keys, _, trees = layers
    tree = trees[layer]
    message = "coordinate 0 is float, expected int (use PHTreeF for floats)"
    for op, found in (
        (lambda t, k: t.get(k), 0),
        (lambda t, k: t.contains(k), True),
        (lambda t, k: t.get_many([keys[1], k]), [1, 0]),
        (lambda t, k: t.contains_many([k]), [True]),
    ):
        with pytest.raises(TypeError) as info:
            op(tree, iter([1.0, 2, 3]))
        assert str(info.value) == message
        assert op(tree, iter(keys[0])) == found


@pytest.mark.parametrize("layer", LAYERS)
def test_layers_accept_what_phtree_accepts(layers, layer):
    keys, reference, trees = layers
    tree = trees[layer]
    spellings = []
    for key in keys[:20]:
        spellings.append(list(key))
        spellings.append(tuple(_Int(v) for v in key))
    spellings += [(True, False, 1), [0, True, 3], (_Int(1), 0, 0)]
    for key in spellings:
        assert tree.get(key, "?") == reference.get(key, "?"), key
        assert tree.contains(key) == reference.contains(key), key
    assert tree.get_many(spellings) == reference.get_many(spellings)
    assert tree.contains_many(spellings) == reference.contains_many(
        spellings
    )


@pytest.fixture
def observed():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _counts():
    return {
        "ops_get": probes.ops_get.value,
        "ops_get_many": probes.ops_get_many.value,
        "batch_keys": probes.batch_keys_get.value,
        "point_nodes": probes.point_nodes_visited.value,
        "batch_nodes": probes.batch_nodes_visited.value,
        "shard_ops": {
            labels: child.value
            for labels, child in probes.shard_ops.children()
            if child.value
        },
        "lock_waits": probes.shard_lock_wait_read.count,
    }


@pytest.mark.parametrize("layer", ["prefix", "durable"])
def test_observed_reads_move_the_same_counters(layers, layer, observed):
    """With observability on, a routed ``get`` counts as one ``get`` on
    its shard tree (ops, nodes visited), one shard op and one lock wait;
    a ``get_many`` as one shard-tree ``get_many`` per shard group."""
    keys, _, trees = layers
    tree = trees[layer]
    live = tree.live if layer == "durable" else tree
    shard_of = live.router.shard_of
    shard_trees = [s.unsafe_tree for s in live._shards]
    probes_ = _probes(keys)[:300]

    for key in probes_:
        shard_trees[shard_of(key)].get(key)
    direct = _counts()
    obs.reset()
    for key in probes_:
        tree.get(key)
    routed = _counts()
    assert routed["ops_get"] == direct["ops_get"] == len(probes_)
    assert routed["point_nodes"] == direct["point_nodes"]
    per_shard = {}
    for key in probes_:
        index = str(shard_of(key))
        per_shard[(index, "get")] = per_shard.get((index, "get"), 0) + 1
    assert routed["shard_ops"] == per_shard
    assert routed["lock_waits"] == len(probes_)

    batch = probes_[:64]
    groups = {}
    for key in batch:
        groups.setdefault(shard_of(key), []).append(key)
    obs.reset()
    for index, group in groups.items():
        shard_trees[index].get_many(group)
    direct = _counts()
    obs.reset()
    tree.get_many(batch)
    routed = _counts()
    assert routed["ops_get_many"] == direct["ops_get_many"] == len(groups)
    assert routed["batch_keys"] == direct["batch_keys"] == len(batch)
    assert routed["batch_nodes"] == direct["batch_nodes"]
    assert routed["shard_ops"] == {
        (str(index), "get_many"): 1 for index in groups
    }
    assert routed["lock_waits"] == len(groups)

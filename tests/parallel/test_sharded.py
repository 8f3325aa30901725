"""ShardedPHTree vs a single PHTree: exact observational equivalence.

The acceptance bar for the parallel layer: every operation's result --
*order included* -- equals the unsharded tree's, across dimensionalities
and the paper's CUBE/CLUSTER distributions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.phtree import PHTree
from repro.datasets.cluster import generate_cluster
from repro.datasets.cube import generate_cube
from repro.parallel import ShardedPHTree

WIDTH = 16


def _int_keys(points, width=WIDTH):
    scale = 1 << width
    return [
        tuple(max(0, min(int(v * scale), scale - 1)) for v in p)
        for p in points
    ]


def _dataset(name, n, dims, seed):
    if name == "CUBE":
        return _int_keys(generate_cube(n, dims, seed=seed))
    return _int_keys(generate_cluster(n, dims, seed=seed))


def _boxes(rng, dims, n_boxes, extent_shift=1):
    top = (1 << WIDTH) - 1
    extent = 1 << (WIDTH - extent_shift)
    out = []
    for _ in range(n_boxes):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(dims))
        out.append((lo, tuple(min(v + extent, top) for v in lo)))
    return out


@pytest.mark.parametrize("dims", [2, 6, 14])
@pytest.mark.parametrize("dataset", ["CUBE", "CLUSTER"])
class TestOracleEquivalence:
    """One scenario per (dims, distribution): mutate both trees in
    lockstep, compare every read exactly."""

    def test_lockstep_oracle(self, dims, dataset):
        rng = random.Random(dims * 31 + len(dataset))
        keys = _dataset(dataset, 600, dims, seed=dims)
        oracle = PHTree(dims=dims, width=WIDTH)
        sharded = ShardedPHTree(dims=dims, width=WIDTH, shards=8)

        # -- put (with duplicates: same replacement semantics) ------------
        for i, key in enumerate(keys):
            assert sharded.put(key, i) == oracle.put(key, i)
        for key in keys[:40]:  # replacement returns the old value
            assert sharded.put(key, "x") == oracle.put(key, "x")
        assert len(sharded) == len(oracle)

        # -- get / contains -----------------------------------------------
        for key in keys[:100]:
            assert sharded.get(key) == oracle.get(key)
            assert (key in sharded) == (key in oracle)
        missing = tuple(0 for _ in range(dims))
        assert sharded.get(missing, "d") == oracle.get(missing, "d")
        batch = keys[:80] + [missing]
        assert sharded.get_many(batch) == oracle.get_many(batch)

        # -- window queries (entries AND order) ----------------------------
        for lo, hi in _boxes(rng, dims, 25):
            assert sharded.query(lo, hi) == list(oracle.query(lo, hi))
        boxes = _boxes(rng, dims, 12) + [
            (tuple(5 for _ in range(dims)), tuple(1 for _ in range(dims)))
        ]  # one empty box rides along
        assert sharded.query_many(boxes) == oracle.query_many(boxes)

        # -- kNN (exact tie order) ----------------------------------------
        for _ in range(15):
            q = tuple(rng.randrange(1 << WIDTH) for _ in range(dims))
            for n in (1, 5, 13):
                assert sharded.knn(q, n) == oracle.knn(q, n)

        # -- iteration (global z-order) ------------------------------------
        assert list(sharded.items()) == list(oracle.items())
        assert list(sharded.keys()) == list(oracle.keys())

        # -- delete ---------------------------------------------------------
        doomed = list(dict.fromkeys(keys))[::3]
        for key in doomed:
            assert sharded.remove(key) == oracle.remove(key)
        with pytest.raises(KeyError):
            sharded.remove(doomed[0])
        assert sharded.remove(doomed[0], "gone") == "gone"
        assert list(sharded.items()) == list(oracle.items())
        for lo, hi in _boxes(rng, dims, 10):
            assert sharded.query(lo, hi) == list(oracle.query(lo, hi))
        sharded.check_invariants()

    def test_bulk_build_equals_incremental(self, dims, dataset):
        keys = _dataset(dataset, 500, dims, seed=dims + 100)
        entries = [(k, i) for i, k in enumerate(keys)]
        built = ShardedPHTree.build(
            entries, dims=dims, width=WIDTH, shards=8
        )
        incremental = ShardedPHTree(dims=dims, width=WIDTH, shards=8)
        for key, value in entries:
            incremental.put(key, value)
        assert list(built.items()) == list(incremental.items())
        assert built.shard_sizes() == incremental.shard_sizes()
        built.check_invariants()


class TestShardTopology:
    def test_shard_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ShardedPHTree(dims=2, width=8, shards=6)

    def test_single_shard_degenerates_gracefully(self):
        tree = ShardedPHTree(dims=2, width=8, shards=1)
        oracle = PHTree(dims=2, width=8)
        rng = random.Random(0)
        for _ in range(100):
            k = (rng.randrange(256), rng.randrange(256))
            tree.put(k, None)
            oracle.put(k, None)
        assert list(tree.items()) == list(oracle.items())

    def test_keys_land_in_routed_shard(self):
        tree = ShardedPHTree(dims=3, width=8, shards=8)
        rng = random.Random(5)
        for _ in range(200):
            tree.put(tuple(rng.randrange(256) for _ in range(3)), None)
        tree.check_invariants()  # includes the routing invariant
        assert sum(tree.shard_sizes().values()) == len(tree)

    def test_generation_counter_tracks_writes(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        before = tree.generations
        tree.put((0, 0), None)  # shard 0
        tree.put((255, 255), None)  # shard 3
        after = tree.generations
        assert after[0] == before[0] + 1
        assert after[3] == before[3] + 1
        assert after[1] == before[1] and after[2] == before[2]

    def test_invalid_keys_raise_like_phtree(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        for bad in [(1,), (1, 2, 3), (-1, 0), (256, 0)]:
            with pytest.raises(ValueError):
                tree.put(bad, None)
            with pytest.raises(ValueError):
                tree.get(bad)


class TestUpdateKey:
    def test_within_and_across_shards(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        oracle = PHTree(dims=2, width=8)
        for k in [(0, 0), (3, 4), (250, 250)]:
            tree.put(k, str(k))
            oracle.put(k, str(k))
        # Across shards: (3, 4) is in shard 0, (200, 7) in shard 2.
        tree.update_key((3, 4), (200, 7))
        oracle.update_key((3, 4), (200, 7))
        # Within one shard.
        tree.update_key((0, 0), (1, 1))
        oracle.update_key((0, 0), (1, 1))
        assert list(tree.items()) == list(oracle.items())
        with pytest.raises(KeyError):
            tree.update_key((9, 9), (10, 10))
        with pytest.raises(ValueError):
            tree.update_key((1, 1), (250, 250))
        tree.check_invariants()


class TestBatchedReads:
    def test_put_all_and_clear(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        entries = [((i, 255 - i), i) for i in range(100)]
        tree.put_all(entries)
        assert len(tree) == 100
        assert tree.get((10, 245)) == 10
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_count_matches_query(self):
        rng = random.Random(11)
        keys = _dataset("CUBE", 300, 3, seed=1)
        tree = ShardedPHTree.build(
            [(k, None) for k in keys], dims=3, width=WIDTH, shards=8
        )
        for lo, hi in _boxes(rng, 3, 10):
            assert tree.count(lo, hi) == len(tree.query(lo, hi))


def _sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _knn_modes(tree, key, n):
    """``tree.knn`` with observability off, on, and under a trace."""
    from repro import obs
    from repro.obs.span import start_trace

    plain = tree.knn(key, n)
    obs.enable()
    try:
        observed = tree.knn(key, n)
    finally:
        obs.disable()
    with start_trace():
        traced = tree.knn(key, n)
    return plain, observed, traced


def _tie_routers():
    """A 4-shard prefix router and a 4-shard learned router with a
    duplicate cut (shard 1 owns nothing) and an unaligned last cut, so
    shard 2's bounding box overlaps shard 3's."""
    from repro.learned.router import LearnedZRouter

    return {
        "prefix": "prefix",
        "learned": LearnedZRouter(dims=2, width=4, cuts=[128, 128, 200]),
    }


class TestKnnTiesAndBounds:
    """Cross-shard kNN with equidistant entries in different shards.

    2-d, width 4.  The query (9, 5) lies in shard 2; the entry (11, 5)
    there and (7, 5) in shard 0 are both at squared distance 4, which
    is also shard 0's region distance.  So shard 2 is searched first,
    its n-th best is 4, and shard 0 must still be searched (the bound
    is inclusive) -- where (7, 5) wins the tie on z-order because
    shard 0 precedes shard 2.  Shard 1 holds no entries.
    """

    QUERY = (9, 5)
    NEAR = (11, 5)
    TIE = (7, 5)
    ENTRIES = [(9, 9), (3, 3), (13, 2), NEAR, TIE, (15, 15), (0, 7)]

    @pytest.fixture(params=["prefix", "learned"])
    def trees(self, request):
        router = _tie_routers()[request.param]
        entries = [(key, i) for i, key in enumerate(self.ENTRIES)]
        sharded = ShardedPHTree.build(
            entries, dims=2, width=4, shards=4, router=router
        )
        oracle = PHTree(dims=2, width=4)
        for key, value in entries:
            oracle.put(key, value)
        return sharded, oracle

    def test_scenario_preconditions(self, trees):
        from repro.core.knn import squared_euclidean_region_int

        sharded, _ = trees
        router = sharded.router
        region = squared_euclidean_region_int(self.QUERY)
        near = router.shard_of(self.QUERY)
        tie = router.shard_of(self.TIE)
        assert router.shard_of(self.NEAR) == near
        assert tie < near
        assert region(*router.bounds(near)) == 0
        tie_dist = _sq_dist(self.QUERY, self.TIE)
        assert tie_dist == _sq_dist(self.QUERY, self.NEAR) == 4
        assert region(*router.bounds(tie)) == tie_dist
        assert 0 in sharded.shard_sizes().values()

    def test_equidistant_lower_shard_wins_the_tie(self, trees):
        sharded, oracle = trees
        for result in _knn_modes(sharded, self.QUERY, 1):
            assert result == oracle.knn(self.QUERY, 1)
            assert result[0][0] == self.TIE

    def test_every_n_matches_the_unsharded_tree(self, trees):
        sharded, oracle = trees
        size = len(oracle)
        queries = [self.QUERY, (8, 8), (0, 0), (15, 0), (7, 12)]
        for query in queries:
            for n in (1, 3, size, size + 3):
                expected = oracle.knn(query, n)
                for result in _knn_modes(sharded, query, n):
                    assert result == expected, (query, n)

    def test_empty_tree_and_nonpositive_n(self):
        for router in _tie_routers().values():
            tree = ShardedPHTree(dims=2, width=4, shards=4, router=router)
            for result in _knn_modes(tree, self.QUERY, 3):
                assert result == []
            assert tree.knn(self.QUERY, 0) == []


@pytest.mark.parametrize("router", ["prefix", "learned"])
def test_knn_matches_unsharded_on_tie_heavy_grids(router):
    """Small domains make equidistant entries across shards common;
    every n up to past the tree size must match, order included."""
    rng = random.Random(17)
    for dims, width, shards in [(1, 5, 4), (2, 3, 8), (2, 4, 4), (3, 3, 8)]:
        top = (1 << width) - 1
        keys = {
            tuple(rng.randint(0, top) for _ in range(dims))
            for _ in range(3 * shards)
        }
        entries = [(key, i) for i, key in enumerate(sorted(keys))]
        sharded = ShardedPHTree.build(
            entries, dims=dims, width=width, shards=shards, router=router
        )
        oracle = PHTree(dims=dims, width=width)
        for key, value in entries:
            oracle.put(key, value)
        for _ in range(12):
            query = tuple(rng.randint(0, top) for _ in range(dims))
            for n in range(1, len(entries) + 4):
                assert sharded.knn(query, n) == oracle.knn(query, n)

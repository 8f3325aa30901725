"""LearnedZRouter / ZCdfModel: interval semantics, balance, parity.

The learned router must be a drop-in for ZShardRouter: same protocol,
same contiguous z-interval ownership, observationally identical query
results through ShardedPHTree -- only the cut *positions* differ.
"""

from __future__ import annotations

import random

import pytest

from repro.core.phtree import PHTree
from repro.encoding.interleave import interleave
from repro.learned.cdf import ZCdfModel
from repro.learned.router import LearnedZRouter
from repro.parallel.router import ZShardRouter
from repro.parallel.sharded import ShardedPHTree


def _skew_keys(n, dims, width, seed=0):
    """Keys confined to the lowest quarter of every dimension: all
    share their top two bits, the prefix router's worst case."""
    rng = random.Random(seed)
    top = 1 << (width - 2)
    return list({
        tuple(rng.randrange(top) for _ in range(dims))
        for _ in range(n)
    })


class TestIntervalSemantics:
    def test_intervals_partition_the_z_space(self):
        rng = random.Random(1)
        zs = sorted(rng.randrange(1 << 24) for _ in range(500))
        router = LearnedZRouter.from_sorted_zcodes(zs, 3, 8, 8)
        expected_lo = 0
        for shard in range(router.n_shards):
            lo, hi = router.z_interval(shard)
            assert lo == expected_lo
            expected_lo = hi + 1
        assert expected_lo == 1 << 24

    def test_shard_of_consistent_with_intervals(self):
        rng = random.Random(2)
        zs = sorted(rng.randrange(1 << 24) for _ in range(400))
        router = LearnedZRouter.from_sorted_zcodes(zs, 3, 8, 5)
        for _ in range(2000):
            z = rng.randrange(1 << 24)
            shard = router.shard_of_z(z)
            lo, hi = router.z_interval(shard)
            assert lo <= z <= hi

    def test_shard_of_key_matches_shard_of_z(self):
        rng = random.Random(3)
        keys = [
            (rng.randrange(256), rng.randrange(256)) for _ in range(300)
        ]
        zs = sorted(interleave(key, 8) for key in keys)
        router = LearnedZRouter.from_sorted_zcodes(zs, 2, 8, 4)
        for key in keys:
            assert router.shard_of(key) == router.shard_of_z(
                interleave(key, 8)
            )

    def test_uniform_cuts_equal_prefix_router(self):
        # Equal-volume learned cuts at a power-of-two shard count are
        # exactly the prefix router's boundaries: every key must agree.
        learned = LearnedZRouter.uniform(2, 8, 8)
        prefix = ZShardRouter(dims=2, width=8, shards=8)
        rng = random.Random(4)
        for _ in range(2000):
            key = (rng.randrange(256), rng.randrange(256))
            assert learned.shard_of(key) == prefix.shard_of(key)
        for shard in range(8):
            assert learned.z_interval(shard) == prefix.z_interval(shard)

    def test_non_power_of_two_shard_counts(self):
        for shards in (1, 3, 5, 7):
            router = LearnedZRouter.uniform(2, 8, shards)
            assert router.n_shards == shards
            assert router.shard_of_z((1 << 16) - 1) == shards - 1


class TestBalance:
    def test_order_statistic_cuts_balance_skew(self):
        dims, width, shards = 3, 16, 8
        keys = _skew_keys(4000, dims, width, seed=7)
        zs = sorted(interleave(key, width) for key in keys)
        prefix = ZShardRouter(dims=dims, width=width, shards=shards)
        learned = LearnedZRouter.from_sorted_zcodes(
            zs, dims, width, shards
        )
        ideal = len(zs) / shards

        def worst(router):
            counts = [0] * shards
            for z in zs:
                counts[router.shard_of_z(z)] += 1
            return max(counts) / ideal

        # The prefix router funnels the whole population into shard 0;
        # the learned cuts stay within rounding of perfect balance.
        assert worst(prefix) >= 3.0
        assert worst(learned) <= 1.5

    def test_split_sorted_respects_intervals(self):
        rng = random.Random(11)
        keys = sorted(
            {(rng.randrange(256), rng.randrange(256)) for _ in range(300)},
            key=lambda key: interleave(key, 8),
        )
        items = [(key, None) for key in keys]
        zs = [interleave(key, 8) for key in keys]
        router = LearnedZRouter.from_sorted_zcodes(zs, 2, 8, 4)
        rebuilt = []
        for shard, run in router.split_sorted(items):
            lo, hi = router.z_interval(shard)
            for key, _ in run:
                assert lo <= interleave(key, 8) <= hi
            rebuilt.extend(run)
        assert rebuilt == items

    def test_shards_for_box_never_misses(self):
        rng = random.Random(13)
        keys = list(
            {(rng.randrange(256), rng.randrange(256)) for _ in range(400)}
        )
        zs = sorted(interleave(key, 8) for key in keys)
        router = LearnedZRouter.from_sorted_zcodes(zs, 2, 8, 8)
        for _ in range(100):
            lo = (rng.randrange(256), rng.randrange(256))
            hi = (
                min(lo[0] + rng.randrange(64), 255),
                min(lo[1] + rng.randrange(64), 255),
            )
            hit_shards = set(router.shards_for_box(lo, hi))
            for key in keys:
                if all(a <= v <= b for v, a, b in zip(key, lo, hi)):
                    assert router.shard_of(key) in hit_shards


class TestCdfModel:
    def test_quantiles_monotone_and_bounded(self):
        rng = random.Random(17)
        zs = sorted(rng.randrange(1 << 32) for _ in range(1000))
        model = ZCdfModel.from_sorted_zcodes(zs, 32)
        previous = -1
        for i in range(21):
            q = model.quantile(i / 20)
            assert 0 <= q < 1 << 32
            assert q >= previous
            previous = q

    def test_mass_below_tracks_empirical_cdf(self):
        rng = random.Random(19)
        zs = sorted(rng.randrange(1 << 24) for _ in range(2000))
        model = ZCdfModel.from_sorted_zcodes(zs, 24)
        for z in (zs[100], zs[500], zs[1000], zs[1900]):
            empirical = sum(1 for v in zs if v < z) / len(zs)
            fraction = model.mass_below(z) / model.total
            assert abs(fraction - empirical) < 0.05

    def test_cuts_are_equi_mass(self):
        rng = random.Random(23)
        zs = sorted(rng.randrange(1 << 24) for _ in range(3000))
        cuts = ZCdfModel.from_sorted_zcodes(zs, 24).cuts(6)
        assert cuts == sorted(cuts)
        assert len(cuts) == 5
        counts = []
        bounds = [0] + cuts + [1 << 24]
        for lo, hi in zip(bounds, bounds[1:]):
            counts.append(sum(1 for z in zs if lo <= z < hi))
        assert max(counts) <= 1.5 * (len(zs) / 6)


class TestShardedIntegration:
    def _entries(self, n, dims, width, seed):
        keys = _skew_keys(n, dims, width, seed=seed)
        return [(key, i) for i, key in enumerate(keys)]

    def test_learned_build_matches_reference(self):
        dims, width = 2, 16
        entries = self._entries(500, dims, width, seed=29)
        reference = PHTree(dims=dims, width=width)
        for key, value in entries:
            reference.put(key, value)
        sharded = ShardedPHTree.build(
            entries, dims=dims, width=width, shards=4, router="learned"
        )
        assert isinstance(sharded.router, LearnedZRouter)
        for key, value in entries:
            assert sharded.get(key) == value
        top = (1 << width) - 1
        assert list(sharded.query((0, 0), (top, top))) == list(
            reference.query((0, 0), (top, top))
        )
        rng = random.Random(31)
        for _ in range(20):
            probe = (rng.randrange(top), rng.randrange(top))
            assert sharded.knn(probe, 5) == reference.knn(probe, 5)
        sharded.check_invariants()

    def test_learned_build_balances_skew(self):
        dims, width = 3, 16
        entries = self._entries(2000, dims, width, seed=37)
        sharded = ShardedPHTree.build(
            entries, dims=dims, width=width, shards=8, router="learned"
        )
        sizes = sharded.shard_sizes()
        assert max(sizes.values()) <= 1.5 * (len(entries) / 8)

    def test_relearn_router_rebalances_incremental_build(self):
        dims, width = 2, 16
        entries = self._entries(1200, dims, width, seed=41)
        sharded = ShardedPHTree(dims=dims, width=width, shards=8)
        for key, value in entries:
            sharded.put(key, value)
        before = max(sharded.shard_sizes().values())
        assert before == len(entries)  # prefix worst case
        sharded.relearn_router()
        after = max(sharded.shard_sizes().values())
        assert after <= 1.5 * (len(entries) / 8)
        for key, value in entries:
            assert sharded.get(key) == value
        sharded.check_invariants()

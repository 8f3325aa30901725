"""Tests for the per-(k, width) specialization layer.

Two concerns:

- correctness: every generated kernel is pinned against the generic
  engine or definitional oracle it replaces -- identical results,
  identical iteration order, identical tree shapes;
- the bounded LRU registry: many tree shapes keep the cache at its cap,
  eviction is least-recently-used, and evicted specializations keep
  working for the trees that hold them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import specialize
from repro.core.batch import _get_many_plain
from repro.core.bulk import bulk_load
from repro.core.kernel import _range_scan_plain
from repro.core.masks import address_fits, address_successor
from repro.core.node import hypercube_address
from repro.core.phtree import PHTree
from repro.core.specialize import get_spec
from repro.encoding.interleave import deinterleave_naive, interleave_naive


@pytest.fixture(autouse=True)
def _restore_registry():
    cap = specialize.registry_cap()
    yield
    specialize.set_registry_cap(cap)


def _random_tree(k, width, n, seed, **kwargs):
    rng = random.Random(seed)
    tree = PHTree(dims=k, width=width, **kwargs)
    # Never ask for more unique keys than the key space holds.
    n = min(n, (1 << min(k * width, 40)) // 2)
    keys = set()
    while len(keys) < n:
        key = tuple(rng.randrange(1 << width) for _ in range(k))
        if key not in keys:
            keys.add(key)
            tree.put(key, len(keys))
    return tree, keys


@st.composite
def shape(draw):
    # k <= 12 de-interleaves through a row table, k > 12 by byte steps:
    # draw on both sides of that cut.
    k = draw(st.integers(min_value=1, max_value=16))
    width = draw(st.sampled_from([1, 3, 8, 16, 20, 33, 64]))
    return k, width


class TestGeneratedPrimitives:
    @settings(max_examples=30, deadline=None)
    @given(shape(), st.data())
    def test_hc_address_matches_oracle(self, kw, data):
        k, width = kw
        spec = get_spec(k, width)
        key = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
            for _ in range(k)
        )
        for post in range(width):
            assert spec.hc_address(key, post) == hypercube_address(
                key, post
            )

    @settings(max_examples=30, deadline=None)
    @given(shape(), st.data())
    def test_morton_kernels_match_oracles(self, kw, data):
        k, width = kw
        spec = get_spec(k, width)
        key = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
            for _ in range(k)
        )
        code = interleave_naive(key, width)
        assert spec.interleave(key) == code
        assert spec.deinterleave(code) == deinterleave_naive(
            code, k, width
        )

    @pytest.mark.parametrize("k", [2, 3, 5, 12, 13, 16])
    @pytest.mark.parametrize("width", [1, 7, 20, 64])
    def test_deinterleave_matches_oracle_on_random_codes(self, k, width):
        spec = get_spec(k, width)
        rng = random.Random(k * 100 + width)
        top = (1 << (k * width)) - 1
        codes = [0, top] + [rng.randrange(top + 1) for _ in range(500)]
        for code in codes:
            assert spec.deinterleave(code) == deinterleave_naive(
                code, k, width
            )

    def test_check_key(self):
        spec = get_spec(3, 8)
        assert spec.check_key((1, 2, 255)) == (1, 2, 255)
        assert spec.check_key([1, 2, 3]) == (1, 2, 3)
        assert spec.check_key((1, 2)) is None  # wrong arity
        assert spec.check_key((1, 2, 256)) is None  # out of range
        assert spec.check_key((1, 2, -1)) is None  # negative
        assert spec.check_key((1, 2, "x")) is None  # wrong type
        assert spec.check_key(7) is None  # not iterable
        # Declined, not wrong: bools are valid ints for the tree but the
        # fast path hands them to the exact checker.
        assert spec.check_key((True, 2, 3)) is None

    def test_successor_enumerates_fitting_addresses(self):
        for k in (1, 2, 3, 5):
            full = (1 << k) - 1
            for ml in range(full + 1):
                for mh in range(full + 1):
                    if ml & ~mh:
                        continue  # contradictory masks never occur
                    expected = [
                        a
                        for a in range(full + 1)
                        if address_fits(a, ml, mh)
                    ]
                    walked = []
                    a = ml
                    while a >= 0:
                        walked.append(a)
                        a = address_successor(a, ml, mh)
                    assert walked == expected, (k, ml, mh)


class TestGeneratedEngines:
    @pytest.mark.parametrize(
        "k,width", [(1, 8), (2, 16), (3, 20), (5, 33), (7, 64)]
    )
    def test_put_builds_identical_trees(self, k, width):
        tree, keys = _random_tree(k, width, 300, seed=k * 100 + width)
        generic, _ = _random_tree(
            k, width, 300, seed=k * 100 + width, specialize=False
        )
        assert tree.specialization is not None
        assert generic.specialization is None
        tree.check_invariants()
        zero = (0,) * k
        top = ((1 << width) - 1,) * k
        assert list(_range_scan_plain(tree.root, zero, top)) == list(
            _range_scan_plain(generic.root, zero, top)
        )
        # Reads agree across engines, hits and misses alike.
        rng = random.Random(99)
        probes = list(keys)[:50] + [
            tuple(rng.randrange(1 << width) for _ in range(k))
            for _ in range(50)
        ]
        for key in probes:
            assert tree.get(key) == generic.get(key)
            assert tree.contains(key) == generic.contains(key)

    def test_put_overwrite_and_remove(self):
        tree, keys = _random_tree(3, 16, 200, seed=5)
        some = next(iter(keys))
        assert tree.put(some, "new") is not None
        assert tree.get(some) == "new"
        for key in list(keys)[:100]:
            tree.remove(key)
        tree.check_invariants()

    @pytest.mark.parametrize("k,width", [(1, 8), (3, 20), (5, 33)])
    def test_range_scan_parity(self, k, width):
        tree, _ = _random_tree(k, width, 400, seed=k + width)
        spec = tree.specialization
        rng = random.Random(17)
        for _ in range(40):
            lo = tuple(rng.randrange(1 << width) for _ in range(k))
            hi = tuple(
                min((1 << width) - 1, v + rng.randrange(1 << width))
                for v in lo
            )
            expected = list(_range_scan_plain(tree.root, lo, hi))
            assert (
                list(spec.range_scan_plain(tree.root, lo, hi)) == expected
            )
            for slack in (1, 4):
                assert list(
                    spec.range_scan_plain(tree.root, lo, hi, slack)
                ) == list(_range_scan_plain(tree.root, lo, hi, slack))

    def test_get_many_parity(self):
        tree, keys = _random_tree(3, 20, 500, seed=23)
        rng = random.Random(29)
        batch = list(keys) + [
            tuple(rng.randrange(1 << 20) for _ in range(3))
            for _ in range(200)
        ]
        rng.shuffle(batch)
        spec = tree.specialization
        assert spec.get_many_plain(tree, batch) == _get_many_plain(
            tree, batch
        )
        assert spec.get_many_plain(
            tree, batch, presorted=True
        ) == _get_many_plain(tree, batch, presorted=True)

    def test_knn_order_matches_generic(self):
        tree, keys = _random_tree(3, 16, 300, seed=31)
        generic, _ = _random_tree(3, 16, 300, seed=31, specialize=False)
        rng = random.Random(37)
        for _ in range(10):
            q = tuple(rng.randrange(1 << 16) for _ in range(3))
            assert tree.knn(q, 10) == generic.knn(q, 10)

    def test_bulk_load_matches_put(self):
        rng = random.Random(41)
        entries = {
            tuple(rng.randrange(1 << 20) for _ in range(3)): i
            for i in range(400)
        }
        loaded = bulk_load(list(entries.items()), dims=3, width=20)
        grown = PHTree(dims=3, width=20)
        for key, value in entries.items():
            grown.put(key, value)
        loaded.check_invariants()
        zero, top = (0,) * 3, ((1 << 20) - 1,) * 3
        assert list(_range_scan_plain(loaded.root, zero, top)) == list(
            _range_scan_plain(grown.root, zero, top)
        )

    def test_non_uniform_widths_still_specialize(self):
        tree = PHTree(dims=3, width=(8, 16, 20))
        assert tree.specialization is not None
        rng = random.Random(43)
        reference = {}
        for _ in range(200):
            key = (
                rng.randrange(1 << 8),
                rng.randrange(1 << 16),
                rng.randrange(1 << 20),
            )
            reference[key] = rng.randrange(100)
            tree.put(key, reference[key])
        tree.check_invariants()
        for key, value in reference.items():
            assert tree.get(key) == value
        # Narrow-dimension violations still raise the exact error.
        with pytest.raises(ValueError):
            tree.put((1 << 8, 0, 0))

    def test_error_messages_unchanged(self):
        tree = PHTree(dims=2, width=8)
        generic = PHTree(dims=2, width=8, specialize=False)
        bad = [(1,), (1, 2, 3), (1, 256), (1, -1), (1, "x"), 7]
        for key in bad:
            try:
                generic.put(key)
            except Exception as exc:  # noqa: BLE001
                with pytest.raises(type(exc), match=None) as info:
                    tree.put(key)
                assert str(info.value) == str(exc)
            else:  # pragma: no cover - all cases above must raise
                raise AssertionError(f"{key!r} unexpectedly valid")

    def test_bool_coordinates_accepted(self):
        tree = PHTree(dims=2, width=8)
        tree.put((True, False), "b")
        assert tree.get((1, 0)) == "b"
        assert tree.contains((True, False))


class TestBoundedRegistry:
    def test_cache_hit_returns_same_bundle(self):
        assert get_spec(3, 20) is get_spec(3, 20)

    def test_too_many_dims_fall_back(self):
        assert get_spec(specialize.MAX_SPECIALIZED_DIMS + 1, 8) is None
        tree = PHTree(dims=specialize.MAX_SPECIALIZED_DIMS + 1, width=8)
        assert tree.specialization is None
        key = (1,) * (specialize.MAX_SPECIALIZED_DIMS + 1)
        tree.put(key, "v")
        assert tree.get(key) == "v"

    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError):
            get_spec(0, 8)
        with pytest.raises(ValueError):
            get_spec(3, 0)
        with pytest.raises(ValueError):
            specialize.set_registry_cap(-1)
        with pytest.raises(ValueError):
            specialize.set_registry_cap(-64)

    def test_cap_zero_disables_caching(self):
        # Regression: cap 0 used to be rejected; it now cleanly turns
        # the cache off instead of being conflated with "invalid".
        specialize.clear_registry()
        specialize.set_registry_cap(4)
        get_spec(2, 9)
        assert specialize.registry_size() == 1
        specialize.set_registry_cap(0)
        assert specialize.registry_cap() == 0
        assert specialize.registry_size() == 0  # emptied on disable
        # Builds still work, are functional, but are never retained.
        a = get_spec(2, 9)
        b = get_spec(2, 9)
        assert a is not None and b is not None
        assert a is not b  # no caching: every call builds fresh
        assert specialize.registry_size() == 0
        # Trees built while caching is off still specialize fine.
        tree, keys = _random_tree(2, 9, 50, seed=90)
        assert tree.specialization is not None
        for key in list(keys)[:10]:
            assert tree.contains(key)
        # Re-enabling restores normal cache behaviour.
        specialize.set_registry_cap(8)
        assert get_spec(2, 9) is get_spec(2, 9)
        assert specialize.registry_size() == 1

    def test_cap_held_across_100_shapes(self):
        specialize.clear_registry()
        specialize.set_registry_cap(16)
        shapes = [(k, w) for k in range(1, 11) for w in range(5, 15)]
        assert len(shapes) == 100
        for k, w in shapes:
            assert get_spec(k, w) is not None
            assert specialize.registry_size() <= 16
        assert specialize.registry_size() == 16

    def test_lru_eviction_order(self):
        specialize.clear_registry()
        specialize.set_registry_cap(2)
        a = get_spec(2, 5)
        b = get_spec(2, 6)
        # Touch a: it becomes most recently used, so c evicts b, not a.
        assert get_spec(2, 5) is a
        c = get_spec(2, 7)
        assert specialize.registry_size() == 2
        assert get_spec(2, 5) is a  # still cached
        assert get_spec(2, 7) is c  # still cached
        assert get_spec(2, 6) is not b  # evicted: rebuilt fresh

    def test_live_trees_survive_eviction(self):
        specialize.clear_registry()
        specialize.set_registry_cap(1)
        tree, keys = _random_tree(3, 12, 150, seed=47)
        spec = tree.specialization
        # Flood the registry: the tree's bundle is long evicted...
        for w in range(1, 30):
            get_spec(4, w)
        assert specialize.registry_size() == 1
        assert get_spec(3, 12) is not spec
        # ...but the tree keeps working on its own strong reference.
        for key in list(keys)[:20]:
            assert tree.contains(key)
        tree.put((0, 0, 0), "post-eviction")
        assert tree.get((0, 0, 0)) == "post-eviction"
        lo, hi = (0,) * 3, ((1 << 12) - 1,) * 3
        assert sum(1 for _ in tree.query(lo, hi)) == len(keys) + 1

    def test_shrinking_cap_evicts(self):
        specialize.clear_registry()
        specialize.set_registry_cap(8)
        for w in range(1, 9):
            get_spec(2, w)
        assert specialize.registry_size() == 8
        specialize.set_registry_cap(3)
        assert specialize.registry_size() == 3

"""Tests of the floating-point facade (paper Section 3.3)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PHTreeF

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestBasics:
    def test_put_get_remove(self):
        tree = PHTreeF(dims=2)
        assert tree.put((0.5, -0.25), "v") is None
        assert tree.get((0.5, -0.25)) == "v"
        assert tree.contains((0.5, -0.25))
        assert (0.5, -0.25) in tree
        assert tree.remove((0.5, -0.25)) == "v"
        assert len(tree) == 0

    def test_remove_missing(self):
        tree = PHTreeF(dims=2)
        with pytest.raises(KeyError):
            tree.remove((1.0, 2.0))
        assert tree.remove((1.0, 2.0), default="gone") == "gone"

    def test_negative_zero_is_positive_zero(self):
        tree = PHTreeF(dims=1)
        tree.put((-0.0,), "zero")
        assert tree.get((0.0,)) == "zero"
        assert tree.put((0.0,), "updated") == "zero"
        assert len(tree) == 1

    def test_nan_rejected(self):
        tree = PHTreeF(dims=1)
        with pytest.raises(ValueError):
            tree.put((float("nan"),))

    def test_infinities_storable(self):
        tree = PHTreeF(dims=1)
        tree.put((float("inf"),), "+inf")
        tree.put((float("-inf"),), "-inf")
        assert tree.get((float("inf"),)) == "+inf"
        assert tree.get((float("-inf"),)) == "-inf"

    def test_update_key(self):
        tree = PHTreeF(dims=2)
        tree.put((1.5, 2.5), "v")
        tree.update_key((1.5, 2.5), (-3.25, 4.0))
        assert tree.get((-3.25, 4.0)) == "v"
        assert not tree.contains((1.5, 2.5))

    def test_clear(self, small_float_tree):
        tree, _ = small_float_tree
        tree.clear()
        assert len(tree) == 0
        tree.check_invariants()


class TestQueries:
    def test_range_query_brute_force(self, small_float_tree):
        tree, reference = small_float_tree
        rng = random.Random(3)
        for _ in range(25):
            lo = (rng.uniform(-10, 8), rng.uniform(-10, 8))
            hi = (lo[0] + rng.uniform(0, 4), lo[1] + rng.uniform(0, 4))
            got = sorted(k for k, _ in tree.query(lo, hi))
            want = sorted(
                k
                for k in reference
                if lo[0] <= k[0] <= hi[0] and lo[1] <= k[1] <= hi[1]
            )
            assert got == want

    def test_range_query_spanning_zero(self):
        # Negative and positive values live in different encoded halves;
        # a box spanning zero exercises the boundary.
        tree = PHTreeF(dims=1)
        for v in (-2.0, -0.5, 0.0, 0.5, 2.0):
            tree.put((v,))
        got = sorted(k[0] for k, _ in tree.query((-1.0,), (1.0,)))
        assert got == [-0.5, 0.0, 0.5]

    def test_query_matches_masks_off(self, small_float_tree):
        tree, _ = small_float_tree
        lo, hi = (-5.0, -5.0), (5.0, 5.0)
        masked = sorted(k for k, _ in tree.query(lo, hi))
        naive = sorted(k for k, _ in tree.query(lo, hi, use_masks=False))
        assert masked == naive

    def test_items_decode_back(self):
        tree = PHTreeF(dims=2)
        points = {(0.1, -0.2), (1e-300, 1e300), (-5.5, 42.0)}
        for p in points:
            tree.put(p)
        assert set(tree.keys()) == points


class TestKnnFloat:
    def test_brute_force_equivalence(self, small_float_tree):
        tree, reference = small_float_tree
        rng = random.Random(17)
        for _ in range(10):
            query = (rng.uniform(-12, 12), rng.uniform(-12, 12))
            got = tree.knn(query, 9)

            def d2(p):
                return sum((a - b) ** 2 for a, b in zip(p, query))

            want = sorted(d2(k) for k in reference)[:9]
            assert [round(d2(k), 10) for k, _ in got] == [
                round(w, 10) for w in want
            ]

    def test_exact_match_first(self):
        tree = PHTreeF(dims=2)
        tree.put((1.0, 1.0), "here")
        tree.put((1.1, 1.0), "near")
        got = tree.knn((1.0, 1.0), 1)
        assert got == [((1.0, 1.0), "here")]

    def test_nan_query_rejected(self):
        tree = PHTreeF(dims=1)
        tree.put((1.0,))
        with pytest.raises(ValueError):
            tree.knn((float("nan"),), 1)

    def test_knn_with_mixed_magnitudes(self):
        # Node regions spanning exponent ranges must still produce valid
        # lower bounds (the clamped-region decode path).
        tree = PHTreeF(dims=1)
        values = [1e-300, 1e-10, 1.0, 1e10, 1e300, -1e300, -1.0]
        for v in values:
            tree.put((v,))
        got = tree.knn((0.5,), 3)
        want = sorted(values, key=lambda v: abs(v - 0.5))[:3]
        assert [k[0] for k, _ in got] == want

    def test_arena_knn_searches_the_slabs(self, monkeypatch):
        """On the arena layout a float kNN runs the slab search: it never
        reads ``ArenaPHTree.root`` (which materialises a shadow copy of
        the whole tree), and it answers exactly like the object layout,
        infinities and signed zeros included."""
        from repro import PHTree
        from repro.core.arena_tree import ArenaPHTree

        arena = PHTreeF.from_int_tree(PHTree(dims=3, width=64, layout="arena"))
        objects = PHTreeF.from_int_tree(
            PHTree(dims=3, width=64, layout="object")
        )
        rng = random.Random(23)
        specials = [0.0, -0.0, 1.5, math.inf, -math.inf]
        for i in range(600):
            point = tuple(
                rng.choice(specials) if rng.random() < 0.2
                else rng.uniform(-50, 50)
                for _ in range(3)
            )
            arena.put(point, i)
            objects.put(point, i)

        def no_shadow(self):
            raise AssertionError("float kNN read ArenaPHTree.root")

        monkeypatch.setattr(ArenaPHTree, "root", property(no_shadow))
        for _ in range(60):
            query = tuple(
                rng.choice([rng.uniform(-60, 60), math.inf, 0.0])
                for _ in range(3)
            )
            n = rng.randrange(0, 12)
            assert arena.knn(query, n) == objects.knn(query, n), query


class TestPropertyRoundTrip:
    @given(
        st.lists(
            st.tuples(finite, finite), min_size=1, max_size=40, unique=True
        )
    )
    @settings(max_examples=40)
    def test_all_inserted_points_are_found(self, points):
        tree = PHTreeF(dims=2)
        expected = {}
        for p in points:
            folded = tuple(0.0 if v == 0.0 else v for v in p)
            tree.put(p, repr(p))
            expected[folded] = repr(p)
        assert len(tree) == len(expected)
        for p, value in expected.items():
            assert tree.get(p) == value
        tree.check_invariants()

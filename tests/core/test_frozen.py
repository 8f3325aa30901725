"""Tests for the frozen (byte-stream-resident) PH-tree."""

from __future__ import annotations

import mmap
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PHTree
from repro.core.frozen import FrozenPHTree, freeze
from repro.core.serialize import U64ValueCodec


def frozen_of(reference, dims=3, width=16, codec=None):
    tree = PHTree(dims=dims, width=width)
    for key, value in reference.items():
        tree.put(key, value)
    if codec is None:
        return FrozenPHTree(freeze(tree))
    return FrozenPHTree(freeze(tree, codec), codec)


class TestBasics:
    def test_empty(self):
        frozen = FrozenPHTree(freeze(PHTree(dims=2, width=8)))
        assert len(frozen) == 0
        assert not frozen.contains((1, 2))
        assert list(frozen.items()) == []
        assert frozen.count((0, 0), (255, 255)) == 0

    def test_single_entry(self):
        tree = PHTree(dims=2, width=8)
        tree.put((7, 9))
        frozen = FrozenPHTree(freeze(tree))
        assert len(frozen) == 1
        assert frozen.contains((7, 9))
        assert not frozen.contains((7, 8))
        assert list(frozen.keys()) == [(7, 9)]

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            FrozenPHTree(b"XXXX" + b"\x00" * 32)

    def test_dimension_check(self):
        frozen = frozen_of({(1, 2, 3): None})
        with pytest.raises(ValueError):
            frozen.contains((1, 2))


class TestAgainstLiveTree:
    def test_point_queries(self, rng):
        reference = {
            tuple(rng.randrange(1 << 16) for _ in range(3)): None
            for _ in range(2000)
        }
        frozen = frozen_of(reference)
        for key in list(reference)[:300]:
            assert frozen.contains(key)
        for _ in range(300):
            probe = tuple(rng.randrange(1 << 16) for _ in range(3))
            assert frozen.contains(probe) == (probe in reference)

    def test_values_round_trip(self, rng):
        reference = {
            tuple(rng.randrange(1 << 16) for _ in range(3)): rng.randrange(
                1 << 40
            )
            for _ in range(500)
        }
        frozen = frozen_of(reference, codec=U64ValueCodec)
        for key, value in reference.items():
            assert frozen.get(key) == value
        assert frozen.get((0, 0, 0), default="absent") in (
            reference.get((0, 0, 0)),
            "absent",
        )

    def test_iteration_matches(self, rng):
        reference = {
            tuple(rng.randrange(1 << 12) for _ in range(2)): None
            for _ in range(800)
        }
        tree = PHTree(dims=2, width=12)
        for key in reference:
            tree.put(key)
        frozen = FrozenPHTree(freeze(tree))
        assert list(frozen.keys()) == list(tree.keys())  # same z-order

    def test_window_queries(self, rng):
        reference = {
            tuple(rng.randrange(1 << 12) for _ in range(2)): None
            for _ in range(800)
        }
        frozen = frozen_of(reference, dims=2, width=12)
        for _ in range(25):
            lo = tuple(rng.randrange(1 << 12) for _ in range(2))
            hi = tuple(
                min(v + rng.randrange(1 << 10), (1 << 12) - 1) for v in lo
            )
            got = sorted(k for k, _ in frozen.query(lo, hi))
            want = sorted(
                k
                for k in reference
                if all(
                    lo[d] <= k[d] <= hi[d] for d in range(2)
                )
            )
            assert got == want
            assert frozen.count(lo, hi) == len(want)

    def test_inverted_box_empty(self):
        frozen = frozen_of({(1, 1, 1): None})
        assert list(frozen.query((5, 0, 0), (0, 15, 15))) == []

    def test_thaw_round_trip(self, rng):
        reference = {
            tuple(rng.randrange(1 << 16) for _ in range(3)): None
            for _ in range(400)
        }
        frozen = frozen_of(reference)
        thawed = frozen.thaw()
        thawed.check_invariants()
        assert set(thawed.keys()) == set(reference)


class TestFrozenKnn:
    def test_matches_brute_force(self, rng):
        reference = {
            tuple(rng.randrange(1 << 12) for _ in range(2)): None
            for _ in range(600)
        }
        frozen = frozen_of(reference, dims=2, width=12)
        for _ in range(15):
            query = tuple(rng.randrange(1 << 12) for _ in range(2))

            def d2(k):
                return sum((a - b) ** 2 for a, b in zip(k, query))

            got = [d2(k) for k, _ in frozen.knn(query, 6)]
            want = sorted(d2(k) for k in reference)[:6]
            assert got == want

    def test_edge_cases(self):
        tree = PHTree(dims=2, width=8)
        frozen = FrozenPHTree(freeze(tree))
        assert frozen.knn((1, 1), 3) == []
        tree.put((5, 5), None)
        frozen = FrozenPHTree(freeze(tree))
        assert frozen.knn((0, 0), 3) == [((5, 5), None)]
        assert frozen.knn((0, 0), 0) == []
        with pytest.raises(ValueError):
            frozen.knn((1,), 1)

    def test_exact_hit_first(self, rng):
        reference = {
            tuple(rng.randrange(1 << 10) for _ in range(2)): None
            for _ in range(200)
        }
        frozen = frozen_of(reference, dims=2, width=10)
        target = next(iter(reference))
        got = frozen.knn(target, 1)
        assert got[0][0] == target


class TestMemoryClaim:
    def test_memory_is_exactly_the_bytes(self):
        frozen = frozen_of({(1, 2, 3): None, (4, 5, 6): None})
        data = freeze_of_same(frozen)
        assert frozen.memory_bytes() == len(data)

    def test_frozen_beats_flat_array_on_clustered_data(self, rng):
        tree = PHTree(dims=3, width=64)
        base = 0xABCDEF << 40
        for _ in range(2000):
            tree.put(
                tuple(base | rng.randrange(1 << 20) for _ in range(3))
            )
        data = freeze(tree)
        assert len(data) < len(tree) * 3 * 8


class TestFrozenBufferAttach:
    """FrozenPHTree over any buffer, zero-copy."""

    def _tree(self):
        tree = PHTree(dims=2, width=8)
        for key in [(1, 2), (3, 4), (200, 100), (255, 0)]:
            tree.put(key, None)
        return tree

    def test_memoryview_and_bytearray_match_bytes(self):
        blob = freeze(self._tree())
        reference = FrozenPHTree(blob)
        for buffer in (memoryview(blob), bytearray(blob)):
            frozen = FrozenPHTree(buffer)
            assert list(frozen.items()) == list(reference.items())
            assert frozen.nbytes == reference.nbytes == len(blob)

    def test_padded_buffer_reports_exact_nbytes(self):
        """A buffer larger than the stream still reports the exact
        frozen length in nbytes and memory_bytes."""
        blob = freeze(self._tree())
        padded = memoryview(blob + b"\x00" * 512)
        frozen = FrozenPHTree(padded)
        assert frozen.nbytes == len(blob)
        assert frozen.memory_bytes() == len(blob)
        assert len(frozen) == 4

    def test_mmap_attach_is_queryable(self, tmp_path):
        """The store's segment buffer: a read-only map of the file."""
        path = tmp_path / "seg-00000001.phs"
        path.write_bytes(freeze(self._tree()))
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            frozen = FrozenPHTree(mapped)
            assert frozen.contains((200, 100))
            assert sorted(frozen.keys()) == [
                (1, 2),
                (3, 4),
                (200, 100),
                (255, 0),
            ]
            del frozen  # release the view before closing the mapping
        finally:
            mapped.close()

    def test_truncated_buffer_rejected(self):
        blob = freeze(self._tree())
        with pytest.raises(ValueError):
            FrozenPHTree(memoryview(blob[: len(blob) - 2]))


def freeze_of_same(frozen: FrozenPHTree) -> bytes:
    return freeze(frozen.thaw())


@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        max_size=60,
        unique=True,
    )
)
@settings(max_examples=40)
def test_property_frozen_equals_live(keys):
    tree = PHTree(dims=2, width=8)
    for key in keys:
        tree.put(key)
    frozen = FrozenPHTree(freeze(tree))
    assert len(frozen) == len(tree)
    assert list(frozen.keys()) == list(tree.keys())
    for key in keys:
        assert frozen.contains(key)

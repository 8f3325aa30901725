"""Empirical verification of the paper's complexity claims (§3.5-3.6).

These tests measure structural quantities (search-path lengths, node
visits) rather than wall-clock time, so they are deterministic and
CI-safe.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro import PHTree, collect_stats
from repro.core.node import Node


def search_path_length(root: Optional[Node], key) -> int:
    """Number of nodes visited by a point query for ``key``, starting
    at ``root`` -- a tree's ``root``, read once per tree: on the arena
    layout every read of it rebuilds the whole object shadow."""
    node = root
    visits = 0
    key = tuple(key)
    while node is not None:
        visits += 1
        slot = node.get_slot(node.address_of(key))
        if slot is None or not isinstance(slot, Node):
            return visits
        if not slot.matches_prefix(key):
            return visits + 1
        node = slot
    return visits


class TestPointQueryComplexity:
    """§3.5: point queries traverse at most w nodes."""

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_path_bounded_by_width(self, width):
        rng = random.Random(width)
        tree = PHTree(dims=2, width=width)
        keys = [
            (rng.randrange(1 << width), rng.randrange(1 << width))
            for _ in range(2000)
        ]
        for key in keys:
            tree.put(key)
        root = tree.root
        for key in keys[:200]:
            assert search_path_length(root, key) <= width

    def test_path_growth_is_logarithmic_not_linear(self):
        """§4.3.2: 'very little decrease in performance for large
        datasets' -- the average search path grows like log(n), far
        slower than n."""
        rng = random.Random(7)
        keys = [
            (rng.randrange(1 << 32), rng.randrange(1 << 32))
            for _ in range(16000)
        ]

        def average_path(n):
            tree = PHTree(dims=2, width=32)
            for key in keys[:n]:
                tree.put(key)
            sample = keys[: min(n, 500)]
            root = tree.root
            return sum(
                search_path_length(root, k) for k in sample
            ) / len(sample)

        small = average_path(1000)
        large = average_path(16000)
        # 16x the data: path grows by far less than 16x (log2(16) = 4
        # extra levels at most for random data).
        assert large - small <= 5.0
        assert large / small < 2.0

    def test_boolean_hypercube_single_node(self):
        """§2: one node suffices for 16D boolean data (the binary trie
        needs up to 16)."""
        tree = PHTree(dims=16, width=1)
        rng = random.Random(3)
        keys = {
            tuple(rng.randrange(2) for _ in range(16))
            for _ in range(200)
        }
        for key in keys:
            tree.put(key)
        root = tree.root
        for key in list(keys)[:50]:
            assert search_path_length(root, key) == 1


class TestUpdateComplexity:
    """§3.6: update cost is O(w*k) = O(log n_max), independent of n."""

    def test_max_possible_entries_bound(self):
        # n_max = 2**(k*w): the paper's framing of O(w*k) as O(log n_max).
        tree = PHTree(dims=2, width=4)
        # Fill the entire key space: 2**(2*4) = 256 entries.
        for x in range(16):
            for y in range(16):
                tree.put((x, y))
        assert len(tree) == 256
        tree.check_invariants()
        stats = collect_stats(tree)
        assert stats.max_depth <= 4

    def test_degeneration_bounded_by_width(self):
        """§3.6: 'degeneration of the tree is inherently limited to w'
        even for adversarial insertion orders."""
        width = 16
        tree = PHTree(dims=1, width=width)
        # Sorted insertion: the kD-tree killer; harmless here.
        for v in range(2000):
            tree.put((v,))
        assert collect_stats(tree).max_depth <= width

    def test_node_count_bounded_by_entries(self):
        """A PH-tree never has more nodes than entries (for n > 1),
        §3.4's r_e/n > 1."""
        rng = random.Random(11)
        for k in (1, 3, 8):
            tree = PHTree(dims=k, width=16)
            for _ in range(500):
                tree.put(
                    tuple(rng.randrange(1 << 16) for _ in range(k))
                )
            stats = collect_stats(tree)
            assert stats.n_nodes < stats.n_entries


class TestRangeQueryComplexity:
    def test_best_case_output_sensitive(self):
        """§3.5 best case: a fully matching subtree is emitted without
        per-entry checks -- output-sensitive enumeration."""
        tree = PHTree(dims=2, width=16)
        rng = random.Random(13)
        # Dense cluster sharing a 8-bit prefix.
        base = 0xAB00
        cluster = {
            (base | rng.randrange(256), base | rng.randrange(256))
            for _ in range(400)
        }
        for key in cluster:
            tree.put(key)
        tree.put((0, 0))
        got = list(tree.query((base, base), (base | 255, base | 255)))
        assert len(got) == len(cluster)

    def test_worst_case_is_full_scan_but_correct(self):
        """§3.5 worst case: low-selectivity boolean dimension."""
        tree = PHTree(dims=2, width=8)
        rng = random.Random(17)
        reference = set()
        for _ in range(500):
            key = (rng.randrange(2), rng.randrange(256))
            tree.put(key)
            reference.add(key)
        got = {k for k, _ in tree.query((1, 0), (1, 255))}
        assert got == {k for k in reference if k[0] == 1}

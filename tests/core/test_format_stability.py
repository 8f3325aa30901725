"""Golden-bytes tests: the serialised formats are persistence formats,
so their byte layout must not drift silently between revisions."""

from __future__ import annotations

import hashlib
import random

from repro import PHTree
from repro.core.frozen import freeze
from repro.core.serialize import (
    U64ValueCodec,
    deserialize_tree,
    serialize_tree,
)


def reference_tree():
    """A fixed small tree exercising prefixes, sub-nodes and postfixes."""
    tree = PHTree(dims=2, width=8)
    for key, value in [
        ((0b0000_0001, 0b1000_0000), 11),
        ((0b0000_0011, 0b1000_0000), 22),
        ((0b0000_0011, 0b1000_0010), 33),
        ((0b1111_0000, 0b0000_1111), 44),
    ]:
        tree.put(key, value)
    return tree


class TestGoldenBytes:
    # Pinned hex digests of the two formats for the reference tree.
    # If a change legitimately alters the format, update these constants
    # AND bump the format magic (PHT1/PHF1) -- old files must not decode
    # silently wrong.
    GOLDEN_PHT1 = "54c1b9a1f133d99e6ea7c0138e5d452f"
    GOLDEN_PHF1 = "6cd806413d3541b79b62eef0a7831384"

    @staticmethod
    def digest(data: bytes) -> str:
        return hashlib.md5(data).hexdigest()

    def test_serialize_format_pinned(self):
        data = serialize_tree(reference_tree(), U64ValueCodec)
        assert self.digest(data) == self.GOLDEN_PHT1, (
            "PHT1 byte layout changed; bump the magic and regenerate "
            f"the golden digest ({self.digest(data)})"
        )

    def test_frozen_format_pinned(self):
        data = freeze(reference_tree(), U64ValueCodec)
        assert self.digest(data) == self.GOLDEN_PHF1, (
            "PHF1 byte layout changed; bump the magic and regenerate "
            f"the golden digest ({self.digest(data)})"
        )

    def test_header_fields_exact(self):
        data = serialize_tree(reference_tree(), U64ValueCodec)
        assert data[:4] == b"PHT1"
        # k = 2 (H), w = 8 (H), size = 4 (Q).
        assert data[4:6] == (2).to_bytes(2, "big")
        assert data[6:8] == (8).to_bytes(2, "big")
        assert data[8:16] == (4).to_bytes(8, "big")


class TestSerializedStreamPinned:
    """SHA-256 pins of whole ``PHT1`` streams of seeded trees (the
    20k-entry one is the tree ``examples/persistence.py`` writes), so a
    rewrite of the serialiser's writer or reader must reproduce the
    format bit for bit."""

    SHA_20K_U64 = (
        "242016b51302120c1d3fdd006bf09e97f6bace72afaac93ae7b6c46acb98676a"
    )
    SHA_3K_NONE = (
        "42e0d9bd595d9c8853fae58bd8273aa05da47fe23f4fac99a7134a89ffabcea0"
    )

    def test_20k_entry_u64_stream_pinned_and_round_trips(self):
        rng = random.Random(99)
        tree = PHTree(dims=3, width=32)
        for i in range(20_000):
            tree.put(tuple(rng.randrange(1 << 32) for _ in range(3)), i)
        data = serialize_tree(tree, U64ValueCodec)
        assert hashlib.sha256(data).hexdigest() == self.SHA_20K_U64
        restored = deserialize_tree(data, U64ValueCodec)
        assert list(restored.items()) == list(tree.items())
        assert serialize_tree(restored, U64ValueCodec) == data

    def test_3k_entry_set_stream_pinned(self):
        rng = random.Random(7)
        tree = PHTree(dims=2, width=16)
        for _ in range(3000):
            tree.put((rng.randrange(1 << 16), rng.randrange(1 << 16)))
        data = serialize_tree(tree)
        assert hashlib.sha256(data).hexdigest() == self.SHA_3K_NONE
        assert serialize_tree(deserialize_tree(data)) == data

"""Bit-stream serialisation of PH-trees (paper Section 3.4, reference [9]).

The PH-tree serialises "most of the data of each node into a single
bit-string": values occupy exactly the number of bits they need, prefixes
are shared, postfixes are truncated to their real length.  This module
implements that layout for whole trees -- nodes are written depth-first,
each as::

    [post_len: 8] [infix bits: infix_len * k] [repr flag: 1]
    [slot count: k+1] ( [address: k] [type: 1] [payload] )*

where an entry payload is ``post_len * k`` postfix bits plus the value
codec's bits, and a sub-node payload is the recursively embedded child.

Because slots are written in ascending address order and the tree's
structure is determined only by its key set, two trees holding the same
keys serialise to identical bytes regardless of their construction history
-- the test suite uses this as the order-independence oracle.

Three magic numbers share this byte-stream family:

- ``PHT1`` (this module): mutable-tree round-trip via
  :func:`serialize_tree` / :func:`deserialize_tree`,
- ``PHF1`` (:mod:`repro.core.frozen`): the same node layout behind a
  read-only header, queried in place without materialising nodes,
- ``PHL1`` (:mod:`repro.learned.index`): an *optional* learned-index
  trailer appended after the ``PHF1`` payload (zero-padded to an 8-byte
  boundary).  ``freeze(..., learned=True)`` writes it;
  ``FrozenPHTree`` attaches it zero-copy when present and ignores it
  otherwise, so a ``PHF1`` stream with a trailer is still a valid plain
  frozen stream to older readers -- the header's bit length bounds the
  payload, and anything past it is opt-in.

Value codecs (:class:`NoneValueCodec`, :class:`U64ValueCodec`) are shared
across all three: the codec's ``bits`` contract is what lets the frozen
reader and the learned trailer's value-position array skip entries
without decoding them.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.core.hypercube import HCContainer, LHCContainer
from repro.core.node import Entry, Node
from repro.core.phtree import PHTree
from repro.encoding.bitbuffer import BitBuffer, BitReader

__all__ = [
    "NoneValueCodec",
    "U64ValueCodec",
    "deserialize_tree",
    "serialize_tree",
]

_MAGIC = b"PHT1"


class NoneValueCodec:
    """Codec for set semantics: all values must be None, zero bits used."""

    bits = 0

    @staticmethod
    def encode(value: Any) -> int:
        """Validate that the value is None; contributes zero bits."""
        if value is not None:
            raise ValueError(
                "NoneValueCodec can only serialise None values; "
                "pass a value codec matching your payload"
            )
        return 0

    @staticmethod
    def decode(raw: int) -> Any:
        """All values decode to None under set semantics."""
        return None


class U64ValueCodec:
    """Codec for unsigned 64-bit integer values."""

    bits = 64

    @staticmethod
    def encode(value: Any) -> int:
        """Validate and pass through an unsigned 64-bit integer."""
        if not isinstance(value, int) or not 0 <= value < (1 << 64):
            raise ValueError(f"value must be a u64 integer, got {value!r}")
        return value

    @staticmethod
    def decode(raw: int) -> Any:
        """Return the stored integer unchanged."""
        return raw


def serialize_tree(tree: PHTree, value_codec: Any = NoneValueCodec) -> bytes:
    """Serialise ``tree`` into a self-describing byte string."""
    k = tree.dims
    w = tree.width
    if w > 256:
        raise ValueError(
            f"the serialised format stores post_len in 8 bits; "
            f"width {w} > 256 is not representable"
        )
    root = tree.root
    if root is not None:
        data, nbits = _write_node(root, w, k, value_codec)
        buf = BitBuffer(data, nbits)
    else:
        buf = BitBuffer()
    header = _MAGIC + struct.pack(
        ">HHQQ", k, w, len(tree), buf.bit_length
    )
    return header + buf.to_bytes()


def deserialize_tree(
    data: bytes,
    value_codec: Any = NoneValueCodec,
    hc_mode: str = "auto",
) -> PHTree:
    """Rebuild a PH-tree from :func:`serialize_tree` output.

    The stored HC/LHC flags are honoured, so the rebuilt tree is
    byte-identical under re-serialisation.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a serialised PH-tree (bad magic)")
    offset = len(_MAGIC)
    if len(data) < offset + struct.calcsize(">HHQQ"):
        raise ValueError("truncated PH-tree header")
    k, w, size, bit_length = struct.unpack_from(">HHQQ", data, offset)
    offset += struct.calcsize(">HHQQ")
    tree = PHTree(dims=k, width=w, hc_mode=hc_mode)
    if size == 0:
        if bit_length:
            raise ValueError("empty tree with non-empty node stream")
        return tree
    reader = BitReader(data[offset:], bit_length)
    root, consumed = _read_node(
        reader, 0, parent_post_len=w, parent_prefix=(0,) * k,
        parent_address=0, k=k, value_codec=value_codec,
    )
    if consumed != bit_length:
        raise ValueError(
            f"trailing bits in node stream: read {consumed} of {bit_length}"
        )
    if tree.layout == "arena":
        # The arena engine re-records the decoded graph into its slabs
        # (representation flags preserved, so re-serialisation stays
        # byte-identical).
        tree._adopt_root(root, size)
    else:
        tree._root = root
        tree._size = size
    return tree


def _write_node(
    node: Node,
    parent_post_len: int,
    k: int,
    value_codec: Any,
) -> Tuple[int, int]:
    """Return ``node``'s serialised subtree as one ``(data, bit_length)``
    integer.

    Children return their finished bodies bottom-up and the parent
    shifts each in once, as :func:`repro.core.frozen.freeze` does, so
    every bit moves O(depth) times instead of the O(stream) cost a
    ``BitBuffer.append`` per field pays on one growing integer.
    """
    post_len = node.post_len
    infix_len = parent_post_len - 1 - post_len
    if infix_len != node.infix_len:
        raise AssertionError(
            f"inconsistent infix_len: stored {node.infix_len}, "
            f"derived {infix_len}"
        )
    acc = post_len
    bits = 8
    if infix_len:
        shift = post_len + 1
        mask = (1 << infix_len) - 1
        for value in node.prefix:
            acc = (acc << infix_len) | ((value >> shift) & mask)
        bits += infix_len * k
    is_hc = 1 if node.container.is_hc else 0
    acc = (((acc << 1) | is_hc) << (k + 1)) | node.num_slots()
    bits += k + 2
    post_mask = (1 << post_len) - 1
    vbits = value_codec.bits
    encode = value_codec.encode
    for address, slot in node.items():
        if isinstance(slot, Node):
            cdata, cbits = _write_node(slot, post_len, k, value_codec)
            acc = (((((acc << k) | address) << 1) | 1) << cbits) | cdata
            bits += k + 1 + cbits
        else:
            acc = ((acc << k) | address) << 1
            bits += k + 1
            if post_len:
                for value in slot.key:
                    acc = (acc << post_len) | (value & post_mask)
                bits += post_len * k
            # Encode unconditionally: zero-bit codecs still validate that
            # the value is representable (silently dropping a value would
            # corrupt the round trip).
            value = encode(slot.value)
            if value >> vbits:
                raise ValueError(
                    f"value codec emitted {value}, which does not fit "
                    f"its declared {vbits} bits"
                )
            acc = (acc << vbits) | value
            bits += vbits
    return acc, bits


def _read_node(
    buf: BitReader,
    pos: int,
    parent_post_len: int,
    parent_prefix: Tuple[int, ...],
    parent_address: int,
    k: int,
    value_codec: Any,
) -> Tuple[Node, int]:
    post_len = buf.read(pos, 8)
    pos += 8
    infix_len = parent_post_len - 1 - post_len
    if infix_len < 0:
        raise ValueError("corrupt stream: child post_len above parent")
    # Reassemble the full prefix: parent prefix bits, then the address bit
    # the child occupies in the parent, then the infix bits.  For the root
    # call parent_post_len == w and parent_address == 0, so no spurious
    # bit w is ever set.
    prefix = []
    shift = post_len + 1
    for dim in range(k):
        address_bit = (parent_address >> (k - 1 - dim)) & 1
        prefix.append(
            parent_prefix[dim] | (address_bit << parent_post_len)
        )
    if infix_len:
        new_prefix = []
        mask = (1 << infix_len) - 1
        for dim in range(k):
            infix = buf.read(pos, infix_len)
            pos += infix_len
            new_prefix.append(prefix[dim] | (infix << shift))
        prefix = new_prefix
    node = Node(post_len=post_len, infix_len=infix_len,
                prefix=tuple(prefix))
    is_hc = buf.read(pos, 1) == 1
    pos += 1
    count = buf.read(pos, k + 1)
    pos += k + 1
    container: Any = HCContainer(k) if is_hc else LHCContainer()
    n_sub = 0
    n_post = 0
    post_bits = post_len
    for _ in range(count):
        address = buf.read(pos, k)
        pos += k
        is_sub = buf.read(pos, 1) == 1
        pos += 1
        if is_sub:
            child, pos = _read_node(
                buf, pos, post_len, tuple(prefix), address, k, value_codec
            )
            container.put(address, child)
            n_sub += 1
        else:
            key = []
            for dim in range(k):
                postfix = buf.read(pos, post_bits) if post_bits else 0
                pos += post_bits
                address_bit = (address >> (k - 1 - dim)) & 1
                key.append(
                    prefix[dim] | (address_bit << post_len) | postfix
                )
            value: Any = None
            if value_codec.bits:
                value = value_codec.decode(buf.read(pos, value_codec.bits))
                pos += value_codec.bits
            container.put(address, Entry(tuple(key), value))
            n_post += 1
    node.container = container
    node._n_sub = n_sub
    node._n_post = n_post
    return node, pos

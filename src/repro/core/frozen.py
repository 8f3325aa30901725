"""FrozenPHTree: queries straight from the packed byte stream.

The paper argues the PH-tree's bit-stream nodes make it "suitable to be
used not only as an extension for indexing data, but also as a primary
storage layout for databases" (Section 1).  This module takes that claim
literally: :func:`freeze` lays a PH-tree out as one immutable byte string
(nodes serialised depth-first, each sub-node slot prefixed with its bit
length so traversal can *skip* subtrees), and :class:`FrozenPHTree`
answers point and window queries by decoding bits on demand -- no node
objects, no pointers, memory use exactly ``len(data)`` bytes.

Frozen layout (after the header)::

    node := [post_len: 8] [infix: infix_len * k]
            [slot count: k+1]
            ( [address: k] [type: 1] payload )*      -- address-sorted
    payload(entry)    := [postfix: post_len * k] [value: value_bits]
    payload(sub-node) := [body length: 32] node

Compared with :mod:`repro.core.serialize` (which optimises for canonical
compactness), the frozen format spends 32 bits per sub-node to buy
O(depth) navigation.

``freeze(..., learned=True)`` appends an *optional trailer* after the
node stream: a :class:`repro.learned.index.LearnedZIndex` mapping
z-address -> entry rank / value-bit offset, fit from the two columns
(z-code, value bit offset) the writers collect as they emit each
entry.  The trailer starts at the first 8-byte boundary past
``nbytes`` and is self-describing (magic ``PHL1``), so readers
that predate it -- and buffers without it -- are unaffected, and
:class:`FrozenPHTree` attaches it zero-copy when present.  Model-served
reads fall back to the exact descent whenever the measured error bound
is violated; see :mod:`repro.learned.index` for the contract.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.node import Node
from repro.core.phtree import PHTree
from repro.core.serialize import NoneValueCodec
from repro.core.specialize import z_functions
from repro.encoding.bitbuffer import BitBuffer, BitReader
from repro.learned.index import (
    ABSENT,
    DEFAULT_EPS,
    DEFAULT_WINDOW_CAP,
    FALLBACK,
    LearnedZIndex,
)
from repro.obs import probes as _probes
from repro.obs import runtime as _rt

__all__ = ["FrozenPHTree", "freeze"]

_MAGIC = b"PHF1"
_LEN_BITS = 32

#: Learned window queries scan the z-code array directly; a predicted
#: span longer than this falls back to the exact pruned tree walk.  The
#: scan pays one deinterleave + box check per entry in the z-interval
#: (hits and misses alike) while the walk prunes whole subtrees, so the
#: crossover sits at a few hundred entries: sweeping the cap over
#: 256..4096 on 3d/w20 CUBE data, 256 won at every box extent tried
#: (fatter boxes simply fall back and the seek overhead is noise).
_LEARNED_SCAN_CAP = 256


def freeze(
    tree: PHTree,
    value_codec: Any = NoneValueCodec,
    *,
    learned: bool = False,
    eps: int = DEFAULT_EPS,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> bytes:
    """Lay ``tree`` out as an immutable, skippable byte stream.

    Arena-backed trees (``layout="arena"``) serialise straight from
    their slabs -- no per-node object materialisation -- which is what
    makes snapshot republish in the parallel layer cheap.  Both paths
    emit identical bytes.

    With ``learned=True`` a :class:`~repro.learned.index.LearnedZIndex`
    trailer is fit over the stream and appended (see the module
    docstring); ``eps`` is the PLA target error and ``window_cap`` the
    measured-error ceiling past which a segment is dead.
    """
    if tree.width > 256:
        raise ValueError(
            f"the frozen format stores post_len in 8 bits; "
            f"width {tree.width} > 256 is not representable"
        )
    # With ``learned`` the writers collect the trailer's two columns as
    # they emit each entry: its z-code and its value field's bit offset.
    cols: "Optional[Tuple[List[int], List[int]]]" = (
        ([], []) if learned and len(tree) else None
    )
    z_of = z_functions(tree.dims, tree.width)[0]
    arena = getattr(tree, "_arena", None)
    if arena is not None:
        if tree._root_off:
            data, nbits = _freeze_subtree_arena(
                arena,
                tree._root_off,
                tree.width,
                tree.dims,
                value_codec,
                0,
                cols,
                z_of,
            )
            buf = BitBuffer(data, nbits)
        else:
            buf = BitBuffer()
        if _rt.enabled:
            _probes.freeze_arena_fast.inc()
    else:
        buf = BitBuffer()
        if tree.root is not None:
            _write_node(
                buf, tree.root, tree.width, tree.dims, value_codec, cols, z_of
            )
    header = _MAGIC + struct.pack(
        ">HHQQ", tree.dims, tree.width, len(tree), buf.bit_length
    )
    blob = header + buf.to_bytes()
    if cols is None:
        return blob
    zcodes, valpos = cols
    model = LearnedZIndex.fit(
        zcodes, valpos, tree.dims * tree.width, eps=eps, window_cap=window_cap
    )
    pad = -len(blob) % 8
    return blob + b"\x00" * pad + model.to_trailer()


def _write_node(
    buf: BitBuffer,
    node: Node,
    parent_post_len: int,
    k: int,
    value_codec: Any,
    cols: "Optional[Tuple[List[int], List[int]]]",
    z_of: Callable[[Tuple[int, ...]], int],
) -> None:
    """Append ``node``'s frozen body to ``buf``; with ``cols`` also
    append each entry's z-code and value bit offset (``buf`` holds the
    whole stream, so its length is the absolute offset)."""
    buf.append(node.post_len, 8)
    infix_len = parent_post_len - 1 - node.post_len
    if infix_len:
        shift = node.post_len + 1
        mask = (1 << infix_len) - 1
        for value in node.prefix:
            buf.append((value >> shift) & mask, infix_len)
    buf.append(node.num_slots(), k + 1)
    post_bits = node.post_len
    post_mask = (1 << post_bits) - 1
    for address, slot in node.items():
        buf.append(address, k)
        if isinstance(slot, Node):
            buf.append(1, 1)
            # Reserve the length field, write the child, patch the field.
            length_pos = buf.bit_length
            buf.append(0, _LEN_BITS)
            start = buf.bit_length
            _write_node(buf, slot, node.post_len, k, value_codec, cols, z_of)
            buf.overwrite(length_pos, buf.bit_length - start, _LEN_BITS)
        else:
            buf.append(0, 1)
            if post_bits:
                for value in slot.key:
                    buf.append(value & post_mask, post_bits)
            if cols is not None:
                cols[0].append(z_of(slot.key))
                cols[1].append(buf.bit_length)
            buf.append(value_codec.encode(slot.value), value_codec.bits)


def _freeze_subtree_arena(
    arena: Any,
    off: int,
    parent_post_len: int,
    k: int,
    value_codec: Any,
    stream_pos: int,
    cols: "Optional[Tuple[List[int], List[int]]]",
    z_of: Callable[[Tuple[int, ...]], int],
) -> Tuple[int, int]:
    """The slab twin of :func:`_write_node`: build the frozen body of
    the node record at ``off`` (and its subtree) straight from the
    arena words, returning it as one ``(data, bit_length)`` integer.

    Children return their finished bodies bottom-up, so the 32-bit body
    length is a plain field written when the child comes back -- no
    reserve-and-patch pass -- and every bit is shifted only O(depth)
    times as subtree integers combine, instead of the O(stream) cost a
    ``BitBuffer.append`` per field would pay.  The bit stream is
    identical to the object walk's.

    ``stream_pos`` is the absolute bit offset at which this body will
    sit in the stream, so the trailer columns (``cols``: z-codes and
    value bit offsets, appended in stream order) come out of the same
    pass.
    """
    words = arena.words
    entries = arena.entries
    values = arena.values
    vbits = value_codec.bits
    encode = value_codec.encode
    h = words[off]
    post_len = h & 63
    acc = post_len
    bits = 8
    infix_len = parent_post_len - 1 - post_len
    if infix_len:
        shift = post_len + 1
        mask = (1 << infix_len) - 1
        for i in range(off + 2, off + 2 + k):
            acc = (acc << infix_len) | ((words[i] >> shift) & mask)
        bits += infix_len * k
    c = words[off + 1]
    n = (c & 2097151) + ((c >> 21) & 2097151)
    acc = (acc << (k + 1)) | n
    bits += k + 1
    post_mask = (1 << post_len) - 1
    base = off + 2 + k
    if h & 4096:  # HC: 2**k direct slots, already in address order
        pairs = (
            (a, words[base + a]) for a in range(1 << k) if words[base + a]
        )
    else:  # LHC: sorted address region, parallel ref region
        cap = 1 << ((h >> 13) & 63)
        pairs = (
            (words[i], words[i + cap]) for i in range(base, base + n)
        )
    for address, ref in pairs:
        if ref & 1:
            cdata, cbits = _freeze_subtree_arena(
                arena,
                ref >> 1,
                post_len,
                k,
                value_codec,
                stream_pos + bits + k + 1 + _LEN_BITS,
                cols,
                z_of,
            )
            # [address: k] [type: 1] [body length: 32] body
            acc = (
                ((((acc << k) | address) << (1 + _LEN_BITS)) | (1 << _LEN_BITS) | cbits)
                << cbits
            ) | cdata
            bits += k + 1 + _LEN_BITS + cbits
        else:
            e = ref >> 1
            acc = ((acc << k) | address) << 1
            bits += k + 1
            if post_len:
                for d in range(e, e + k):
                    acc = (acc << post_len) | (entries[d] & post_mask)
                bits += post_len * k
            if cols is not None:
                cols[0].append(z_of(tuple(entries[e : e + k])))
                cols[1].append(stream_pos + bits)
            value = encode(values[entries[e + k]])
            if value >> vbits:
                raise ValueError(
                    f"value codec emitted {value}, which does not fit "
                    f"its declared {vbits} bits"
                )
            acc = (acc << vbits) | value
            bits += vbits
    return acc, bits


class FrozenPHTree:
    """A read-only PH-tree view over :func:`freeze` output.

    Supports point queries, window queries and iteration with the exact
    semantics of the live tree it was frozen from.  The whole structure
    is the byte string: ``nbytes`` is the stream's exact length.

    ``data`` may be any object exposing the buffer protocol -- ``bytes``,
    ``bytearray``, ``memoryview``, ``mmap`` or a
    ``multiprocessing.shared_memory.SharedMemory.buf`` -- and non-bytes
    buffers are attached *zero-copy*: the tree keeps a ``memoryview`` and
    decodes bits straight out of the caller's storage.  A buffer larger
    than the frozen stream (e.g. a page-rounded shared-memory segment)
    is fine; the header records the exact payload length.

    >>> tree = PHTree(dims=2, width=8)
    >>> tree.put((3, 200), None)
    >>> frozen = FrozenPHTree(freeze(tree))
    >>> frozen.contains((3, 200))
    True
    >>> len(frozen)
    1
    >>> shared = FrozenPHTree(memoryview(freeze(tree) + b"slack"))
    >>> shared.contains((3, 200)) and shared.nbytes == frozen.nbytes
    True
    """

    def __init__(
        self,
        data: "bytes | bytearray | memoryview",
        value_codec: Any = NoneValueCodec,
        *,
        learned: bool = True,
    ) -> None:
        if not isinstance(data, bytes):
            # Zero-copy attach: flatten to unsigned bytes, never copy.
            data = memoryview(data).cast("B")
        if bytes(data[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("not a frozen PH-tree (bad magic)")
        offset = len(_MAGIC)
        if len(data) < offset + struct.calcsize(">HHQQ"):
            raise ValueError("truncated frozen PH-tree header")
        self._dims, self._width, self._size, bit_length = (
            struct.unpack_from(">HHQQ", data, offset)
        )
        offset += struct.calcsize(">HHQQ")
        # The exact stream length; the buffer may be padded beyond it.
        self._nbytes = offset + (bit_length + 7) // 8
        if len(data) < self._nbytes:
            raise ValueError("truncated frozen PH-tree node stream")
        self._stream = data[offset:]
        self._reader = BitReader(self._stream, bit_length)
        self._codec = value_codec
        # A learned trailer, if one follows the stream (zero-copy; the
        # memoryview keeps the caller's buffer alive).  Shared-memory
        # padding is zero-filled, so a missing trailer never false-
        # positives on the magic check.
        self._learned: Optional[LearnedZIndex] = None
        self._zfns = None
        if learned:
            trailer_off = self._nbytes + (-self._nbytes % 8)
            if len(data) > trailer_off:
                view = (
                    data
                    if isinstance(data, memoryview)
                    else memoryview(data)
                )
                self._learned = LearnedZIndex.from_buffer(view, trailer_off)

    @property
    def learned_index(self) -> Optional[LearnedZIndex]:
        """The attached learned z-address model, if the stream carried
        a trailer (and the attach wasn't disabled)."""
        return self._learned

    def _learned_fns(self):
        """Lazy ``(interleave, deinterleave)`` pair for this shape --
        specialised when available, generic otherwise.  Resolved on
        first model-served read so plain attaches stay O(1)."""
        fns = self._zfns
        if fns is None:
            fns = self._zfns = z_functions(self._dims, self._width)
        return fns

    # -- basics --------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions ``k``."""
        return self._dims

    @property
    def width(self) -> int:
        """Bit width ``w``."""
        return self._width

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        """Exact frozen-stream size in bytes (header included) --
        snapshot accounting without copying the buffer."""
        return self._nbytes

    def memory_bytes(self) -> int:
        """Exactly the frozen stream's length -- the point of freezing."""
        return self._nbytes

    @property
    def stream_bits(self) -> int:
        """Bit length of the node stream (header excluded): the range
        every value bit offset must fall in."""
        return self._reader.bit_length

    def values_at(self, positions: Sequence[int]) -> List[Any]:
        """Decode the value fields that start at ``positions`` (bit
        offsets into the node stream, e.g. a trailer's value-position
        column) -- a bulk read with no descent.  Offsets are trusted:
        callers check them against :attr:`stream_bits` first."""
        decode = self._codec.decode
        bits = self._codec.bits
        if not bits:
            return [decode(0)] * len(positions)
        data = self._stream
        from_bytes = int.from_bytes
        mask = (1 << bits) - 1
        return [
            decode(
                (from_bytes(data[p >> 3 : (p + bits + 7) >> 3], "big")
                 >> (-(p + bits) & 7))
                & mask
            )
            for p in positions
        ]

    # -- node parsing ----------------------------------------------------------

    def _parse_header(
        self,
        pos: int,
        parent_post_len: int,
        parent_prefix: Tuple[int, ...],
        parent_address: int,
    ) -> Tuple[int, Tuple[int, ...], int, int]:
        """Decode post_len/prefix/slot-count; return (post_len, prefix,
        n_slots, pos_after_header)."""
        reader = self._reader
        k = self._dims
        post_len = reader.read(pos, 8)
        pos += 8
        infix_len = parent_post_len - 1 - post_len
        prefix = []
        shift = post_len + 1
        for dim in range(k):
            bit = (parent_address >> (k - 1 - dim)) & 1
            prefix.append(parent_prefix[dim] | (bit << parent_post_len))
        if infix_len:
            for dim in range(k):
                infix = reader.read(pos, infix_len)
                pos += infix_len
                prefix[dim] |= infix << shift
        n_slots = reader.read(pos, k + 1)
        pos += k + 1
        return post_len, tuple(prefix), n_slots, pos

    def _entry_at(
        self,
        pos: int,
        post_len: int,
        prefix: Tuple[int, ...],
        address: int,
    ) -> Tuple[Tuple[int, ...], Any, int]:
        """Decode one entry payload; returns (key, value, next_pos)."""
        reader = self._reader
        k = self._dims
        key = []
        for dim in range(k):
            postfix = reader.read(pos, post_len) if post_len else 0
            pos += post_len
            bit = (address >> (k - 1 - dim)) & 1
            key.append(prefix[dim] | (bit << post_len) | postfix)
        value = self._codec.decode(reader.read(pos, self._codec.bits))
        pos += self._codec.bits
        return tuple(key), value, pos

    # -- point queries -----------------------------------------------------------

    def get(self, key: Sequence[int], default: Any = None) -> Any:
        """Value stored at ``key`` or ``default``."""
        found = self._find(tuple(key))
        return default if found is None else found[1]

    def contains(self, key: Sequence[int]) -> bool:
        """Point query against the byte stream."""
        return self._find(tuple(key)) is not None

    def __contains__(self, key: Sequence[int]) -> bool:
        return self.contains(key)

    def _find(self, key: Tuple[int, ...]):
        if self._size == 0:
            return None
        if len(key) != self._dims:
            raise ValueError(
                f"key has {len(key)} dimensions, tree has {self._dims}"
            )
        model = self._learned
        if model is not None:
            width = self._width
            for v in key:
                if v < 0 or (v >> width):
                    # Out of the key domain: interleave would wrap, so
                    # the model could alias; the answer is simply "no".
                    return None
            z_of = self._learned_fns()[0]
            status, rank, abs_err = model.find(z_of(key))
            if status != FALLBACK:
                if _rt.enabled:
                    _probes.learned_lookups_point.inc()
                    _probes.learned_segments_consulted.inc()
                    _probes.learned_prediction_error.inc(abs_err)
                if status == ABSENT:
                    return None
                value = self._codec.decode(
                    self._reader.read(model.value_pos(rank), self._codec.bits)
                )
                return key, value
            if _rt.enabled:
                _probes.learned_lookups_point.inc()
                _probes.learned_fallbacks_point.inc()
        return self._find_exact(key)

    def _find_exact(self, key: Tuple[int, ...]):
        """The model-free descent over the node stream -- the engine
        every learned probe falls back to (and is fuzzed against)."""
        reader = self._reader
        k = self._dims
        pos = 0
        parent_post_len = self._width
        parent_prefix = (0,) * k
        parent_address = 0
        while True:
            post_len, prefix, n_slots, pos = self._parse_header(
                pos, parent_post_len, parent_prefix, parent_address
            )
            shift = post_len + 1
            for dim in range(k):
                if (key[dim] >> shift) != (prefix[dim] >> shift):
                    return None
            target = 0
            for value in key:
                target = (target << 1) | ((value >> post_len) & 1)
            # Scan the address-sorted slot table, skipping sub-trees.
            entry_bits = post_len * k + self._codec.bits
            found_pos = -1
            for _ in range(n_slots):
                address = reader.read(pos, k)
                pos += k
                is_sub = reader.read(pos, 1)
                pos += 1
                if address == target:
                    if not is_sub:
                        entry_key, value, _ = self._entry_at(
                            pos, post_len, prefix, address
                        )
                        return (
                            (entry_key, value)
                            if entry_key == key
                            else None
                        )
                    found_pos = pos + _LEN_BITS
                    break
                if address > target:
                    return None
                if is_sub:
                    pos += _LEN_BITS + reader.read(pos, _LEN_BITS)
                else:
                    pos += entry_bits
            if found_pos < 0:
                return None
            parent_post_len = post_len
            parent_prefix = prefix
            parent_address = target
            pos = found_pos

    # -- iteration and window queries ----------------------------------------------

    def items(self) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Iterate all entries in z-order, decoding lazily."""
        if self._size == 0:
            return
        yield from self._walk(0, self._width, (0,) * self._dims, 0, None)

    def keys(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all keys in z-order."""
        for key, _ in self.items():
            yield key

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return self.keys()

    def query(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Window query evaluated directly on the byte stream."""
        box = (tuple(box_min), tuple(box_max))
        if len(box[0]) != self._dims or len(box[1]) != self._dims:
            raise ValueError("query box dimensionality mismatch")
        if any(lo > hi for lo, hi in zip(*box)):
            return
        if self._size == 0:
            return
        if self._learned is not None:
            scan = self._query_learned(box)
            if scan is not None:
                yield from scan
                return
        yield from self._walk(
            0, self._width, (0,) * self._dims, 0, box
        )

    def _query_learned(self, box):
        """Model-predicted scan: locate the z-rank of ``z(box_min)``,
        scan forward to ``z(box_max)`` filtering exactly.  Any entry in
        the box has a z-code inside ``[z(box_min), z(box_max)]``, and
        ranks are z-sorted, so the output (order included) is identical
        to the pruned tree walk's.  Returns ``None`` -- caller walks
        exactly -- when the predicted span exceeds the scan cap."""
        model = self._learned
        max_v = (1 << self._width) - 1
        lo = tuple(min(max(v, 0), max_v) for v in box[0])
        hi = tuple(min(max(v, 0), max_v) for v in box[1])
        if any(a > b for a, b in zip(lo, hi)):
            return iter(())
        z_of, un_z = self._learned_fns()
        start, err_lo, fb_lo = model.seek(z_of(lo))
        end, err_hi, fb_hi = model.seek(z_of(hi) + 1)
        if _rt.enabled:
            _probes.learned_lookups_window.inc()
            _probes.learned_segments_consulted.inc(2)
            _probes.learned_prediction_error.inc(err_lo + err_hi)
            if fb_lo or fb_hi:
                _probes.learned_fallbacks_window.inc()
        if end - start > _LEARNED_SCAN_CAP:
            if _rt.enabled:
                _probes.learned_fallbacks_window.inc()
            return None
        box_lo, box_hi = box
        reader = self._reader
        bits = self._codec.bits
        decode = self._codec.decode

        def scan():
            for rank in range(start, end):
                key = un_z(model.z_at(rank))
                ok = True
                for v, a, b in zip(key, box_lo, box_hi):
                    if v < a or v > b:
                        ok = False
                        break
                if ok:
                    yield key, decode(
                        reader.read(model.value_pos(rank), bits)
                    )

        return scan()

    def _walk(
        self,
        pos: int,
        parent_post_len: int,
        parent_prefix: Tuple[int, ...],
        parent_address: int,
        box: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        reader = self._reader
        k = self._dims
        post_len, prefix, n_slots, pos = self._parse_header(
            pos, parent_post_len, parent_prefix, parent_address
        )
        if box is not None:
            free = (1 << (post_len + 1)) - 1
            for dim, node_lo in enumerate(prefix):
                if (
                    box[1][dim] < node_lo
                    or box[0][dim] > (node_lo | free)
                ):
                    return
        entry_bits = post_len * k + self._codec.bits
        for _ in range(n_slots):
            address = reader.read(pos, k)
            pos += k
            is_sub = reader.read(pos, 1)
            pos += 1
            if is_sub:
                body = reader.read(pos, _LEN_BITS)
                pos += _LEN_BITS
                yield from self._walk(
                    pos, post_len, prefix, address, box
                )
                pos += body
            else:
                key, value, next_pos = self._entry_at(
                    pos, post_len, prefix, address
                )
                pos = next_pos
                if box is None or all(
                    lo <= v <= hi
                    for v, lo, hi in zip(key, box[0], box[1])
                ):
                    yield key, value

    def count(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> int:
        """Number of entries in the inclusive box."""
        return sum(1 for _ in self.query(box_min, box_max))

    def _knn_seed_bound(self, key: Tuple[int, ...], n: int) -> Optional[int]:
        """Upper bound on the n-th nearest squared distance, seeded by
        the learned model: jump to the query's z-rank, take the 2n
        z-adjacent entries, and use their n-th smallest exact distance.
        Admissible by construction (the bound is a real distance to n
        real entries), so pruning strictly-greater candidates cannot
        change the result set or its tie order."""
        model = self._learned
        if model is None or self._size < n:
            return None
        max_v = (1 << self._width) - 1
        clamped = tuple(min(max(v, 0), max_v) for v in key)
        z_of, un_z = self._learned_fns()
        rank, _err, _fb = model.seek(z_of(clamped))
        lo = rank - n if rank >= n else 0
        hi = min(self._size, lo + 2 * n)
        if hi - lo < n:
            lo = max(0, hi - n)
        if hi - lo < n:
            return None
        if _rt.enabled:
            _probes.learned_lookups_knn.inc()
            _probes.learned_segments_consulted.inc()
        dists = sorted(
            _point_dist_sq(key, un_z(model.z_at(i))) for i in range(lo, hi)
        )
        return dists[n - 1]

    def knn(
        self, key: Sequence[int], n: int = 1
    ) -> List[Tuple[Tuple[int, ...], Any]]:
        """``n`` nearest entries by Euclidean distance in key space,
        computed directly on the byte stream (best-first branch and
        bound over node regions, like the live tree's search).  When a
        learned trailer is attached, the search is seeded with an exact
        distance bound from the query's z-neighbourhood, which prunes
        most heap traffic without affecting results."""
        import heapq

        key = tuple(key)
        if len(key) != self._dims:
            raise ValueError(
                f"key has {len(key)} dimensions, tree has {self._dims}"
            )
        if n <= 0 or self._size == 0:
            return []

        bound = self._knn_seed_bound(key, n)
        z_of = self._learned_fns()[0]
        seq = 0
        # Heap items: (dist, z, seq, kind, payload); kind 0 = node
        # (payload is its parse context, z its region's lowest z-code),
        # kind 1 = entry (payload is (key, value), z the key's z-code).
        # The z component makes equidistant candidates pop in z-order --
        # the live engine's tie contract (see repro.core.knn) -- because
        # a region's lowest z-code never exceeds the z-code of any entry
        # inside it, so a node always pops before a contained tie.
        heap: list = [
            (0, 0, seq, 0, (0, self._width, (0,) * self._dims, 0))
        ]
        reader = self._reader
        k = self._dims
        results: List[Tuple[Tuple[int, ...], Any]] = []
        while heap and len(results) < n:
            dist, _z, _, kind, payload = heapq.heappop(heap)
            if kind == 1:
                results.append(payload)
                continue
            pos, parent_post_len, parent_prefix, parent_address = payload
            post_len, prefix, n_slots, pos = self._parse_header(
                pos, parent_post_len, parent_prefix, parent_address
            )
            for _ in range(n_slots):
                address = reader.read(pos, k)
                pos += k
                is_sub = reader.read(pos, 1)
                pos += 1
                if is_sub:
                    body = reader.read(pos, _LEN_BITS)
                    pos += _LEN_BITS
                    child_context = (pos, post_len, prefix, address)
                    # Child region: prefix + its address bit; lower-bound
                    # with the parent-granularity region (child header
                    # not parsed yet), which is still admissible.
                    child_prefix = tuple(
                        p
                        | (
                            ((address >> (k - 1 - d)) & 1)
                            << post_len
                        )
                        for d, p in enumerate(prefix)
                    )
                    child_dist = _region_dist_sq(
                        key, child_prefix, post_len - 1 if post_len else 0
                    )
                    if bound is None or child_dist <= bound:
                        seq += 1
                        heapq.heappush(
                            heap,
                            (
                                child_dist,
                                z_of(child_prefix),
                                seq,
                                0,
                                child_context,
                            ),
                        )
                    pos += body
                else:
                    entry_key, value, pos = self._entry_at(
                        pos, post_len, prefix, address
                    )
                    entry_dist = _point_dist_sq(key, entry_key)
                    if bound is None or entry_dist <= bound:
                        seq += 1
                        heapq.heappush(
                            heap,
                            (
                                entry_dist,
                                z_of(entry_key),
                                seq,
                                1,
                                (entry_key, value),
                            ),
                        )
        return results

    # -- conversion ---------------------------------------------------------------

    def thaw(self) -> PHTree:
        """Rebuild a mutable PH-tree with this tree's content."""
        tree = PHTree(dims=self._dims, width=self._width)
        for key, value in self.items():
            tree.put(key, value)
        return tree


def _point_dist_sq(
    query: Tuple[int, ...], candidate: Tuple[int, ...]
) -> int:
    """Exact squared Euclidean distance between two keys."""
    total = 0
    for q, v in zip(query, candidate):
        d = q - v
        total += d * d
    return total


def _region_dist_sq(
    query: Tuple[int, ...], prefix: Tuple[int, ...], post_len: int
) -> int:
    """Squared distance from ``query`` to the axis-aligned region whose
    per-dim range is ``[prefix, prefix | (2^(post_len+1) - 1)]``."""
    free = (1 << (post_len + 1)) - 1
    total = 0
    for q, lo in zip(query, prefix):
        hi = lo | free
        if q < lo:
            d = lo - q
        elif q > hi:
            d = q - hi
        else:
            continue
        total += d * d
    return total

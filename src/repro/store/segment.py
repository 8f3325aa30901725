"""On-disk frozen segments: the ``freeze()`` byte stream, verbatim.

A segment file (``seg-NNNNNNNN.phs``) is exactly the output of
:func:`repro.core.frozen.freeze` for one shard's contents -- header,
packed node stream, and (when the store is learned) the zero-copy
``PHL1`` trailer.  Nothing is added or wrapped: opening a segment is
``mmap`` + :class:`~repro.core.frozen.FrozenPHTree` buffer-attach, so
a query against a segment that has never been paged in reads only the
pages its descent touches, and the learned trailer works straight off
the mapping.

Deletes ride in tombstone companions (``seg-NNNNNNNN.tomb``): a CRC'd
batch of fixed-width keys that erase matching entries from every
*older* record in the manifest chain.

Segment files are immutable once written: they are created under
their final name (write + fsync, no rename needed) and only become
live when a manifest referencing them is swapped in.  A crash between
the two leaves an orphan that recovery garbage-collects.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.frozen import FrozenPHTree
from repro.obs import recorder as _recorder
from repro.store import io as store_io
from repro.store.manifest import SegmentRecord

__all__ = [
    "Segment",
    "load_tombstones",
    "segment_name",
    "tombstone_name",
    "write_segment_file",
    "write_tombstone_file",
]

_TOMB_MAGIC = b"PHX1"
_TOMB_HEADER = struct.Struct("<4sIQ")


def segment_name(file_id: int) -> str:
    return f"seg-{file_id:08d}.phs"


def tombstone_name(file_id: int) -> str:
    return f"seg-{file_id:08d}.tomb"


def write_segment_file(path: str, blob: bytes) -> None:
    """Persist one frozen stream under its final, immutable name."""
    fd = store_io.open_fresh(path)
    try:
        store_io.write(fd, blob)
        store_io.fsync(fd)
    finally:
        os.close(fd)


def write_tombstone_file(
    path: str, keys: Sequence[Tuple[int, ...]], dims: int, key_bytes: int
) -> None:
    body = b"".join(
        int(v).to_bytes(key_bytes, "little") for key in keys for v in key
    )
    blob = _TOMB_HEADER.pack(_TOMB_MAGIC, zlib.crc32(body), len(keys)) + body
    fd = store_io.open_fresh(path)
    try:
        store_io.write(fd, blob)
        store_io.fsync(fd)
    finally:
        os.close(fd)


def load_tombstones(
    path: str, dims: int, key_bytes: int
) -> List[Tuple[int, ...]]:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _TOMB_HEADER.size:
        raise ValueError(f"truncated tombstone file {path!r}")
    magic, crc, count = _TOMB_HEADER.unpack_from(data, 0)
    if magic != _TOMB_MAGIC:
        raise ValueError(f"bad tombstone magic in {path!r}")
    body = data[_TOMB_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise ValueError(f"tombstone CRC mismatch in {path!r}")
    stride = dims * key_bytes
    if len(body) != count * stride:
        raise ValueError(f"tombstone size mismatch in {path!r}")
    keys = []
    for i in range(count):
        base = i * stride
        keys.append(
            tuple(
                int.from_bytes(
                    body[base + j * key_bytes : base + (j + 1) * key_bytes],
                    "little",
                )
                for j in range(dims)
            )
        )
    return keys


class Segment:
    """A live, mmap-attached manifest record.

    Frozen segments expose ``frozen`` (a zero-copy
    :class:`FrozenPHTree` over the mapping); tombstone records expose
    ``tombstones`` (the decoded key batch).
    """

    __slots__ = ("record", "frozen", "tombstones", "_mmap", "_file")

    def __init__(
        self,
        record: SegmentRecord,
        frozen: Optional[FrozenPHTree],
        tombstones: List[Tuple[int, ...]],
        mapped: Optional[mmap.mmap],
        file_obj,
    ) -> None:
        self.record = record
        self.frozen = frozen
        self.tombstones = tombstones
        self._mmap = mapped
        self._file = file_obj

    @classmethod
    def open(
        cls,
        directory: str,
        record: SegmentRecord,
        value_codec: Any,
        dims: int,
        key_bytes: int,
    ) -> "Segment":
        if record.tombstones is not None:
            keys = load_tombstones(
                os.path.join(directory, record.tombstones), dims, key_bytes
            )
            return cls(record, None, keys, None, None)
        assert record.file is not None
        f = open(os.path.join(directory, record.file), "rb")
        try:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            f.close()
            raise
        try:
            frozen = FrozenPHTree(mapped, value_codec)
        except BaseException:
            mapped.close()
            f.close()
            raise
        return cls(record, frozen, [], mapped, f)

    @property
    def nbytes(self) -> int:
        return self.frozen.nbytes if self.frozen is not None else 0

    def files(self) -> List[str]:
        out = []
        if self.record.file:
            out.append(self.record.file)
        if self.record.tombstones:
            out.append(self.record.tombstones)
        return out

    def close(self) -> None:
        # Drop the FrozenPHTree's memoryviews before the mmap: an
        # exported view keeps a closed mmap's buffer pinned and raises.
        self.frozen = None
        mapped, self._mmap = self._mmap, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                # A caller still holds a view into the map (a
                # ``Segment.frozen`` it kept): the map is released with
                # that view's last reference instead.
                _recorder.record(
                    "segment_unmap_deferred", file=self.record.file
                )
        if self._file is not None:
            self._file.close()
            self._file = None

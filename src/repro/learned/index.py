"""LearnedZIndex: a bounded-error z-address -> stream-position model.

The frozen byte stream (:mod:`repro.core.frozen`) stores entries in
strict z-order, so the map ``z-code -> entry rank`` is a monotone step
function -- exactly the shape FITing-Tree's shrinking-cone segmentation
(:mod:`repro.learned.pla`) approximates.  This module packages the
fitted segments together with two flat arrays derived from the stream:

- ``zcodes[i]``  -- the i-th entry's full z-code (strictly ascending),
- ``valpos[i]``  -- the *bit* position of the i-th entry's value field
  inside the frozen node stream,

so a point lookup becomes *predict rank, binary-search a tiny window,
read the value bits* -- no descent -- and a window query becomes
*predict the scan start, then scan exactly*.

Everything is serialised as one trailer blob (:meth:`to_trailer`)
appended after the frozen node stream, and re-attached **zero-copy**
(:meth:`from_buffer`): the big arrays stay ``memoryview`` casts into
the caller's buffer (a ``bytes`` object or a shared-memory segment),
so :class:`~repro.parallel.executor.SnapshotPool` workers pay O(1) to
pick the model up.

Trailer layout (all fields native-endian, starting 8-byte aligned)::

    [magic "PHL1": 4] [zwords: u16] [flags: u16]
    [n: u64] [n_segments: u64] [eps: u64] [window_cap: u64]
    seg_starts : u64 * S          -- first entry rank of each segment
    seg_zs     : u64 * S * zwords -- first z-code of each segment (MSW first)
    seg_slopes : f64 * S
    seg_errs   : u64 * S          -- *measured* max |prediction - rank|
    zcodes     : u64 * n * zwords -- every entry's z-code (MSW first)
    valpos     : u64 * n          -- value-field bit offset per entry

The correctness contract: ``seg_errs`` holds errors measured with exact
integer comparisons after the float fit, so for any *present* z-code
the true rank provably lies within ``prediction +- err``; for an absent
probe between ranks ``p-1`` and ``p`` monotonicity bounds the insertion
point within ``prediction +- (err + 2)``.  A segment whose measured
error exceeds ``window_cap`` is *dead*: :meth:`find` refuses to answer
(callers fall back to the exact descent) and :meth:`seek` answers via a
plain full-range binary search, reporting the fallback.  The model is
an accelerator, never an oracle.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, List, Optional, Sequence, Tuple

from repro.learned import pla

__all__ = ["LearnedZIndex", "TRAILER_MAGIC"]

TRAILER_MAGIC = b"PHL1"
_HEADER = "=4sHHQQQQ"
_HEADER_BYTES = struct.calcsize(_HEADER)  # 40

#: Default shrinking-cone target error (positions).  Small enough that
#: the verification window after a prediction is a handful of probes,
#: large enough that uniform data needs only a few segments.
DEFAULT_EPS = 64

#: Default cap on the *measured* per-segment error a reader will chase.
#: Segments worse than this are dead: point lookups fall back to the
#: exact descent, seeks to a full binary search.
DEFAULT_WINDOW_CAP = 512

FOUND = 0
ABSENT = -1
FALLBACK = -2


class LearnedZIndex:
    """Immutable learned model over one frozen segment's z-code stream.

    Build with :meth:`fit` (at freeze time, from plain lists), persist
    with :meth:`to_trailer`, re-attach with :meth:`from_buffer`.  After
    either construction the query surface is identical.
    """

    __slots__ = (
        "n",
        "zwords",
        "eps",
        "window_cap",
        "n_segments",
        "trailer_bytes",
        "_starts",
        "_segz",
        "_slopes",
        "_errs",
        "_z",
        "_valpos",
    )

    def __init__(
        self,
        *,
        n: int,
        zwords: int,
        eps: int,
        window_cap: int,
        starts: Sequence[int],
        segz: Sequence[int],
        slopes: Sequence[float],
        errs: Sequence[int],
        zcodes: Sequence[int],
        valpos: Sequence[int],
        trailer_bytes: int = 0,
    ) -> None:
        self.n = n
        self.zwords = zwords
        self.eps = eps
        self.window_cap = window_cap
        self.n_segments = len(starts)
        if not trailer_bytes:
            # Freshly fit (not attached): the serialised size is fully
            # determined by the shape, so report it without rendering.
            s = len(starts)
            trailer_bytes = _HEADER_BYTES + 8 * (
                s + s * zwords + s + s + n * zwords + n
            )
        self.trailer_bytes = trailer_bytes
        self._starts = starts
        self._segz = segz  # single-word per segment iff zwords == 1
        self._slopes = slopes
        self._errs = errs
        self._z = zcodes  # single-word per entry iff zwords == 1
        self._valpos = valpos

    # -- construction --------------------------------------------------------

    @classmethod
    def fit(
        cls,
        zcodes: List[int],
        valpos: List[int],
        zbits: int,
        eps: int = DEFAULT_EPS,
        window_cap: int = DEFAULT_WINDOW_CAP,
    ) -> "LearnedZIndex":
        """Fit the PLA over a strictly ascending z-code list and bind
        the per-entry value positions.  ``zbits`` is ``dims * width``
        (it fixes the serialised word count per z-code)."""
        if len(zcodes) != len(valpos):
            raise ValueError("zcodes and valpos length mismatch")
        if not zcodes:
            raise ValueError("cannot fit a learned index over zero entries")
        zwords = max(1, (zbits + 63) // 64)
        segments = pla.fit_segments(zcodes, eps)
        errors = pla.measure_errors(zcodes, segments)
        starts = [s for s, _ in segments]
        slopes = [m for _, m in segments]
        segz = [zcodes[s] for s in starts]
        if zwords == 1:
            zseq: Sequence[int] = zcodes
            segzseq: Sequence[int] = segz
        else:
            zseq = _MultiWordView(_pack_words(zcodes, zwords), zwords)
            segzseq = _MultiWordView(_pack_words(segz, zwords), zwords)
        return cls(
            n=len(zcodes),
            zwords=zwords,
            eps=eps,
            window_cap=window_cap,
            starts=starts,
            segz=segzseq,
            slopes=slopes,
            errs=errors,
            zcodes=zseq,
            valpos=valpos,
        )

    def to_trailer(self) -> bytes:
        """Serialise as the frozen-format trailer blob (no padding;
        the caller aligns the write position to 8 bytes)."""
        s = self.n_segments
        header = struct.pack(
            _HEADER,
            TRAILER_MAGIC,
            self.zwords,
            0,
            self.n,
            s,
            self.eps,
            self.window_cap,
        )
        parts = [header]
        parts.append(array("Q", self._starts).tobytes())
        parts.append(_words_bytes(self._segz, s, self.zwords))
        parts.append(array("d", self._slopes).tobytes())
        parts.append(array("Q", self._errs).tobytes())
        parts.append(_words_bytes(self._z, self.n, self.zwords))
        parts.append(array("Q", self._valpos).tobytes())
        return b"".join(parts)

    @classmethod
    def from_buffer(
        cls, data: memoryview, offset: int
    ) -> Optional["LearnedZIndex"]:
        """Zero-copy attach from ``data[offset:]``; ``None`` when no
        valid trailer starts there.  The returned index keeps
        ``memoryview`` casts into ``data`` -- the caller's buffer must
        outlive it (FrozenPHTree holds both)."""
        end = len(data)
        if offset < 0 or offset + _HEADER_BYTES > end:
            return None
        if bytes(data[offset : offset + 4]) != TRAILER_MAGIC:
            return None
        _, zwords, _flags, n, s, eps, window_cap = struct.unpack_from(
            _HEADER, data, offset
        )
        if n == 0 or s == 0 or zwords == 0:
            return None
        pos = offset + _HEADER_BYTES
        need = 8 * (s + s * zwords + s + s + n * zwords + n)
        if pos + need > end:
            return None

        def take(count: int, code: str) -> memoryview:
            nonlocal pos
            nbytes = count * 8
            view = data[pos : pos + nbytes].cast(code)
            pos += nbytes
            return view

        starts = take(s, "Q")
        segz_raw = take(s * zwords, "Q")
        slopes = take(s, "d")
        errs = take(s, "Q")
        z_raw = take(n * zwords, "Q")
        valpos = take(n, "Q")
        if zwords == 1:
            segz: Sequence[int] = segz_raw
            zseq: Sequence[int] = z_raw
        else:
            segz = _MultiWordView(segz_raw, zwords)
            zseq = _MultiWordView(z_raw, zwords)
        return cls(
            n=n,
            zwords=zwords,
            eps=eps,
            window_cap=window_cap,
            starts=starts,
            segz=segz,
            slopes=slopes,
            errs=errs,
            zcodes=zseq,
            valpos=valpos,
            trailer_bytes=pos - offset,
        )

    # -- queries -------------------------------------------------------------

    def z_at(self, i: int) -> int:
        """The i-th entry's z-code."""
        return self._z[i]

    def value_pos(self, i: int) -> int:
        """Bit offset of the i-th entry's value field in the node
        stream."""
        return self._valpos[i]

    def columns(self) -> Tuple[List[int], List[int]]:
        """Copies of the ``(zcodes, valpos)`` columns as plain lists --
        one C-level conversion per column for attached trailers."""
        return (
            _column(self._z, self.zwords),
            _column(self._valpos, 1),
        )

    def _segment_of(self, z: int) -> int:
        """Rightmost segment whose first z-code is <= z (may be -1)."""
        return bisect_right(self._segz, z) - 1

    def find(self, z: int) -> Tuple[int, int, int]:
        """Point probe: ``(status, rank, abs_err)``.

        status FOUND    -> ``rank`` is the entry's position (z present)
        status ABSENT   -> z is provably not in the stream
        status FALLBACK -> dead segment / float overflow; the caller
                           must use its exact engine.

        ``abs_err`` is the distance between the model's prediction and
        the resolved position (0 on FALLBACK).
        """
        j = self._segment_of(z)
        if j < 0:
            return ABSENT, 0, 0
        err = self._errs[j]
        if err > self.window_cap:
            return FALLBACK, 0, 0
        start = self._starts[j]
        end = (
            self._starts[j + 1] if j + 1 < self.n_segments else self.n
        )
        guess = pla.predict(start, self._slopes[j], self._segz[j], z)
        if guess is None:
            return FALLBACK, 0, 0
        # The true insertion point lies in [start, end] (the segment's
        # first z bounds z below, the next segment's first z above), so
        # clamping the prediction into the segment only moves it closer
        # -- the +-margin bracket survives, and the window can never
        # invert (a far-out-of-range prediction would otherwise leave
        # lo > hi and a bisect result outside the array).
        if guess < start:
            guess = start
        elif guess > end:
            guess = end
        margin = err + 2
        lo = guess - margin
        hi = guess + margin
        if lo < start:
            lo = start
        if hi > end:
            hi = end
        p = self._bisect_left(z, lo, hi)
        # The measured error makes the window provably bracketing; the
        # boundary check guards the proof (a violation means a model
        # bug, not a wrong answer -- it degrades to FALLBACK).
        if (p > lo or p == 0 or self._z[p - 1] < z) and (
            p < hi or p == self.n or self._z[p] >= z
        ):
            abs_err = guess - p if guess >= p else p - guess
            if p < self.n and self._z[p] == z:
                return FOUND, p, abs_err
            return ABSENT, p, abs_err
        return FALLBACK, 0, 0

    def seek(self, z: int) -> Tuple[int, int, bool]:
        """Scan-start probe: leftmost rank with ``z_at(rank) >= z``.

        Returns ``(rank, abs_err, fell_back)``.  Always exact: on a
        dead segment (or a violated window) it degrades to a full
        binary search over the z-code array and reports the fallback.
        """
        status, p, abs_err = self.find(z)
        if status != FALLBACK:
            return p, abs_err, False
        return self._bisect_left(z, 0, self.n), 0, True

    def _bisect_left(self, z: int, lo: int, hi: int) -> int:
        zs = self._z
        if type(zs) is _MultiWordView:
            while lo < hi:
                mid = (lo + hi) // 2
                if zs[mid] < z:
                    lo = mid + 1
                else:
                    hi = mid
            return lo
        return bisect_left(zs, z, lo, hi)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Model shape summary (for ``repro.tool query --explain`` and
        the validator)."""
        errs = list(self._errs)
        return {
            "entries": self.n,
            "segments": self.n_segments,
            "eps": self.eps,
            "window_cap": self.window_cap,
            "max_measured_err": max(errs) if errs else 0,
            "dead_segments": sum(1 for e in errs if e > self.window_cap),
            "trailer_bytes": self.trailer_bytes,
            "zwords": self.zwords,
        }


class _MultiWordView(Sequence):
    """Read-only big-int sequence over a flat u64 word array
    (most-significant word first), used when a z-code does not fit one
    word.  Supports ``len``/indexing, which is all the bisects need."""

    __slots__ = ("_words", "_zw")

    def __init__(self, words: Sequence[int], zwords: int) -> None:
        self._words = words
        self._zw = zwords

    def __len__(self) -> int:
        return len(self._words) // self._zw

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            raise TypeError("_MultiWordView does not slice")
        zw = self._zw
        if i < 0:
            i += len(self)
        base = i * zw
        words = self._words
        acc = 0
        for w in range(base, base + zw):
            acc = (acc << 64) | words[w]
        return acc


def _column(seq: Any, zwords: int) -> List[int]:
    """``seq`` (a list, a ``memoryview`` cast or a
    :class:`_MultiWordView`) as a list of ints."""
    if type(seq) is _MultiWordView:
        words = _column(seq._words, 1)
        out = words[0::zwords]
        for w in range(1, zwords):
            out = [(hi << 64) | lo for hi, lo in zip(out, words[w::zwords])]
        return out
    if isinstance(seq, memoryview):
        return seq.tolist()
    return list(seq)


def _pack_words(values: Sequence[int], zwords: int) -> "array":
    """Split each big int into ``zwords`` u64 words, MSW first."""
    mask = (1 << 64) - 1
    out = array("Q", bytes(0))
    for v in values:
        for w in range(zwords - 1, -1, -1):
            out.append((v >> (64 * w)) & mask)
    return out


def _words_bytes(seq: Any, count: int, zwords: int) -> bytes:
    """Serialise ``count`` z-codes from ``seq`` as flat u64 words."""
    if zwords == 1:
        return array("Q", [seq[i] for i in range(count)]).tobytes()
    if type(seq) is _MultiWordView:
        words = seq._words
        return array("Q", [words[i] for i in range(count * zwords)]).tobytes()
    return _pack_words([seq[i] for i in range(count)], zwords).tobytes()

"""Floating-point facade over the PH-tree (paper Section 3.3).

:class:`PHTreeF` stores k-dimensional ``double`` points.  Coordinates are
converted to sortable unsigned 64-bit integers with
:func:`repro.encoding.ieee.encode_double`; because the conversion is a
strict order isomorphism, point and range semantics carry over unchanged and
results are decoded transparently on the way out.

The kNN search runs in decoded double space: node regions are clamped into
the finite-double code range before decoding so that region lower bounds
stay valid even when a subtree's bit-range spans non-finite IEEE patterns.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core import knn as knn_mod
from repro.core.phtree import PHTree
from repro.encoding.ieee import (
    decode_double,
    decode_point,
    encode_double,
    encode_point,
)

__all__ = ["PHTreeF"]

_MISSING = object()

_CODE_NEG_INF = encode_double(float("-inf"))
_CODE_POS_INF = encode_double(float("inf"))


class PHTreeF:
    """A k-dimensional PH-tree over IEEE-754 double coordinates.

    Mirrors the :class:`~repro.core.phtree.PHTree` API with float keys.
    NaN coordinates are rejected; ``-0.0`` is folded into ``0.0`` (as in the
    paper's conversion function).

    >>> tree = PHTreeF(dims=2)
    >>> tree.put((0.5, 0.25), "a")
    >>> tree.get((0.5, 0.25))
    'a'
    >>> [key for key, _ in tree.query((0.0, 0.0), (1.0, 1.0))]
    [(0.5, 0.25)]
    """

    def __init__(
        self,
        dims: int,
        hc_mode: str = "auto",
        hc_hysteresis: float = 0.0,
        specialize: bool = True,
    ) -> None:
        self._tree = PHTree(
            dims=dims,
            width=64,
            hc_mode=hc_mode,
            hc_hysteresis=hc_hysteresis,
            specialize=specialize,
        )

    # -- basic properties --------------------------------------------------

    @classmethod
    def from_int_tree(cls, tree: PHTree) -> "PHTreeF":
        """Wrap an existing 64-bit integer tree whose keys are encoded
        doubles (e.g. one restored by
        :func:`repro.core.serialize.deserialize_tree`)."""
        if tree.width != 64:
            raise ValueError(
                "float facade requires a 64-bit tree, got width="
                f"{tree.width}"
            )
        facade = cls.__new__(cls)
        facade._tree = tree
        return facade

    @property
    def dims(self) -> int:
        """Number of dimensions ``k``."""
        return self._tree.dims

    @property
    def int_tree(self) -> PHTree:
        """The underlying integer-keyed tree (for stats / memory model)."""
        return self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def __contains__(self, key: Sequence[float]) -> bool:
        return self.contains(key)

    # -- point operations ----------------------------------------------------

    def put(self, key: Sequence[float], value: Any = None) -> Any:
        """Insert or update; returns the previous value or None."""
        return self._tree.put(encode_point(key), value)

    def get(self, key: Sequence[float], default: Any = None) -> Any:
        """Value stored at ``key``, or ``default``."""
        return self._tree.get(encode_point(key), default)

    def contains(self, key: Sequence[float]) -> bool:
        """Point query: does ``key`` exist?"""
        return self._tree.contains(encode_point(key))

    def remove(self, key: Sequence[float], default: Any = _MISSING) -> Any:
        """Delete ``key``; KeyError when absent unless ``default`` given."""
        if default is _MISSING:
            return self._tree.remove(encode_point(key))
        return self._tree.remove(encode_point(key), default)

    def update_key(
        self, old_key: Sequence[float], new_key: Sequence[float]
    ) -> None:
        """Move an entry to new float coordinates."""
        self._tree.update_key(encode_point(old_key), encode_point(new_key))

    # -- iteration and queries ------------------------------------------------

    def items(self) -> Iterator[Tuple[Tuple[float, ...], Any]]:
        """Iterate ``(key, value)`` pairs in encoded z-order."""
        for key, value in self._tree.items():
            yield decode_point(key), value

    def keys(self) -> Iterator[Tuple[float, ...]]:
        """Iterate float keys."""
        for key, _ in self.items():
            yield key

    def __iter__(self) -> Iterator[Tuple[float, ...]]:
        return self.keys()

    def query(
        self,
        box_min: Sequence[float],
        box_max: Sequence[float],
        use_masks: bool = True,
    ) -> Iterator[Tuple[Tuple[float, ...], Any]]:
        """Range query over the inclusive float box (Section 3.5)."""
        encoded_min = encode_point(box_min)
        encoded_max = encode_point(box_max)
        for key, value in self._tree.query(
            encoded_min, encoded_max, use_masks=use_masks
        ):
            yield decode_point(key), value

    def query_all(
        self, box_min: Sequence[float], box_max: Sequence[float]
    ) -> List[Tuple[Tuple[float, ...], Any]]:
        """Materialised :meth:`query` result."""
        return list(self.query(box_min, box_max))

    def knn(
        self, key: Sequence[float], n: int = 1
    ) -> List[Tuple[Tuple[float, ...], Any]]:
        """``n`` nearest stored points by Euclidean distance on doubles."""
        query = tuple(float(v) for v in key)
        for v in query:
            if math.isnan(v):
                raise ValueError("NaN cannot be used as a kNN query point")

        def point_distance(int_key: Sequence[int]) -> float:
            total = 0.0
            for q, code in zip(query, int_key):
                stored = decode_double(code)
                if q == stored:
                    # Equal coordinates contribute 0; subtracting would
                    # give NaN for matching infinities (inf - inf).
                    continue
                d = q - stored
                total += d * d
            return total

        def region_distance(
            lower: Sequence[int], upper: Sequence[int]
        ) -> float:
            total = 0.0
            for q, lo_code, hi_code in zip(query, lower, upper):
                # Clamp into the finite/infinite double range: codes beyond
                # encode(+-inf) are NaN patterns that no stored key can
                # have, so shrinking to the valid range keeps the bound a
                # true lower bound.
                lo = decode_double(max(lo_code, _CODE_NEG_INF))
                hi = decode_double(min(hi_code, _CODE_POS_INF))
                if q < lo:
                    d = lo - q
                elif q > hi:
                    d = q - hi
                else:
                    continue
                total += d * d
            return total

        tree = self._tree
        if tree.layout == "arena":
            # Best-first over the slabs; the object engine's ``root``
            # would materialise a shadow copy of the whole tree.
            found = knn_mod.arena_knn_iter(
                tree,
                n,
                point_distance,
                region_distance,
                knn_mod.morton_tiebreak(64),
            )
        else:
            found = knn_mod.knn_iter(
                tree.root,
                n,
                point_distance,
                region_distance,
                knn_mod.morton_tiebreak(64),
            )
        return [
            (decode_point(found_key), value)
            for _, found_key, value in found
        ]

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Remove all entries."""
        self._tree.clear()

    def check_invariants(self) -> None:
        """Delegate structural validation to the integer tree."""
        self._tree.check_invariants()

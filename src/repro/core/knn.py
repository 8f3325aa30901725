"""k-nearest-neighbour search over a PH-tree.

The paper lists nearest-neighbour support as future work with "an early
prototype implementation" (Section 5, Outlook item 2); this module provides
the full feature.  The search is classic best-first branch and bound: a
priority queue holds nodes keyed by a lower bound of their distance to the
query (computed from the node's prefix region) and entries keyed by their
exact distance.  Whenever an entry surfaces before every remaining node, it
is provably the next-nearest neighbour.

Distances are pluggable so the same engine serves the integer-keyed
:class:`~repro.core.phtree.PHTree` (exact integer arithmetic, no overflow)
and the float facade :class:`~repro.core.phtree_float.PHTreeF` (Euclidean
distance on decoded doubles).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from repro.core.kernel import iter_slots
from repro.core.node import Entry, Node
from repro.obs import probes as _probes
from repro.obs import runtime as _rt

__all__ = [
    "knn_iter",
    "morton_tiebreak",
    "squared_euclidean_int",
    "squared_euclidean_region_int",
]

PointDistance = Callable[[Sequence[int]], Any]
RegionDistance = Callable[[Sequence[int], Sequence[int]], Any]


def morton_tiebreak(width: int) -> Callable[[Sequence[int]], int]:
    """The standard ``z_key`` for :func:`knn_iter`: the full Morton code
    of a ``width``-bit key (dimension 0 most significant).

    Trees carrying a per-(k, width) specialization pass
    ``spec.interleave`` instead -- the unrolled LUT kernel computing the
    same code (pinned by the property tests), without the per-call
    closure and validation."""
    from repro.encoding.interleave import interleave

    def z_of(key: Sequence[int]) -> int:
        return interleave(key, width)

    return z_of


def squared_euclidean_int(
    query: Sequence[int],
) -> PointDistance:
    """Exact squared Euclidean distance in integer key space."""

    def distance(key: Sequence[int]) -> int:
        total = 0
        for q, v in zip(query, key):
            d = q - v
            total += d * d
        return total

    return distance


def squared_euclidean_region_int(
    query: Sequence[int],
) -> RegionDistance:
    """Lower bound of squared Euclidean distance to an axis-aligned box."""

    def distance(lower: Sequence[int], upper: Sequence[int]) -> int:
        total = 0
        for q, lo, hi in zip(query, lower, upper):
            if q < lo:
                d = lo - q
            elif q > hi:
                d = q - hi
            else:
                continue
            total += d * d
        return total

    return distance


def knn_iter(
    root: Optional[Node],
    n: int,
    point_distance: PointDistance,
    region_distance: RegionDistance,
    z_key: Optional[Callable[[Sequence[int]], int]] = None,
    *,
    bound: Any = None,
) -> Iterator[Tuple[Any, Tuple[int, ...], Any]]:
    """Yield up to ``n`` entries as ``(distance, key, value)``, nearest
    first.

    ``point_distance(key)`` must return the exact distance of a stored key;
    ``region_distance(lower, upper)`` must return a lower bound of the
    distance to any point in the box ``[lower, upper]``.  Both must be
    mutually comparable and monotone for the search to be exact.

    ``z_key`` (a key -> Morton code function) fixes the order of
    equidistant results: with it, ties are yielded in z-order, making the
    output a pure function of the key set -- the property the sharded
    tree's merge relies on.  A node's tie rank is the z-code of its
    region's lower corner, which is the minimum z-code inside the region,
    so the heap invariant (a node sorts no later than anything beneath
    it) holds for the composite ``(distance, z)`` key as well.  Without
    ``z_key``, ties fall back to discovery order.

    ``bound`` is an inclusive distance limit: a node or entry farther
    than it is never pushed, so the search yields exactly the entries
    of the unbounded result whose distance is ``<= bound``, in the same
    order.  The sharded tree passes its running ``n``-th best distance
    here, so a later shard only searches where it can still place a
    result.
    """
    if _rt.enabled:
        return _knn_iter_instrumented(
            root, n, point_distance, region_distance, z_key, bound
        )
    return _knn_iter_plain(
        root, n, point_distance, region_distance, z_key, bound
    )


def _knn_iter_plain(
    root: Optional[Node],
    n: int,
    point_distance: PointDistance,
    region_distance: RegionDistance,
    z_key: Optional[Callable[[Sequence[int]], int]] = None,
    bound: Any = None,
) -> Iterator[Tuple[Any, Tuple[int, ...], Any]]:
    if n <= 0 or root is None:
        return
    tiebreak = itertools.count()
    if z_key is None:
        z_key = lambda _key: 0  # noqa: E731 - ties fall to the counter
    lower, upper = root.region()
    dist = region_distance(lower, upper)
    if bound is not None and dist > bound:
        return
    heap: list = [(dist, z_key(lower), next(tiebreak), root)]
    produced = 0
    push = heapq.heappush
    node_cls = Node
    while heap:
        dist, _, _, item = heapq.heappop(heap)
        if item.__class__ is node_cls:
            # Region visit: expand the node through the shared traversal
            # kernel (no (address, slot) tuple per child) and compute
            # every sub-node's region bounds inline.
            for slot in iter_slots(item.container):
                if slot.__class__ is node_cls:
                    lower = slot.prefix
                    free = (1 << (slot.post_len + 1)) - 1
                    d = region_distance(lower, tuple(p | free for p in lower))
                else:
                    lower = slot.key
                    d = point_distance(lower)
                if bound is None or d <= bound:
                    push(heap, (d, z_key(lower), next(tiebreak), slot))
        else:
            entry: Entry = item
            yield dist, entry.key, entry.value
            produced += 1
            if produced >= n:
                return


def _knn_iter_instrumented(
    root: Optional[Node],
    n: int,
    point_distance: PointDistance,
    region_distance: RegionDistance,
    z_key: Optional[Callable[[Sequence[int]], int]] = None,
    bound: Any = None,
) -> Iterator[Tuple[Any, Tuple[int, ...], Any]]:
    """Instrumented twin of the best-first loop: counts regions
    expanded, heap pushes, the heap-size high-water mark and entries
    yielded.  The ``finally`` flush reports even for abandoned
    iterators (e.g. ``nearest_iter`` consumers stopping early)."""
    if n <= 0 or root is None:
        _probes.record_knn(0, 0, 0, 0)
        return
    tiebreak = itertools.count()
    if z_key is None:
        z_key = lambda _key: 0  # noqa: E731 - ties fall to the counter
    lower, upper = root.region()
    dist = region_distance(lower, upper)
    if bound is not None and dist > bound:
        _probes.record_knn(0, 0, 0, 0)
        return
    heap: list = [(dist, z_key(lower), next(tiebreak), root)]
    c_regions = 0
    c_pushes = 1  # the root seed
    c_high = 1
    c_entries = 0
    produced = 0
    push = heapq.heappush
    node_cls = Node
    try:
        while heap:
            dist, _, _, item = heapq.heappop(heap)
            if item.__class__ is node_cls:
                c_regions += 1
                for slot in iter_slots(item.container):
                    if slot.__class__ is node_cls:
                        lower = slot.prefix
                        free = (1 << (slot.post_len + 1)) - 1
                        d = region_distance(
                            lower, tuple(p | free for p in lower)
                        )
                    else:
                        lower = slot.key
                        d = point_distance(lower)
                    if bound is None or d <= bound:
                        push(heap, (d, z_key(lower), next(tiebreak), slot))
                        c_pushes += 1
                if len(heap) > c_high:
                    c_high = len(heap)
            else:
                entry: Entry = item
                # Count before yielding: a consumer closing the
                # generator right after this yield must still see the
                # delivered entry in the totals.
                produced += 1
                c_entries += 1
                yield dist, entry.key, entry.value
                if produced >= n:
                    return
    finally:
        _probes.record_knn(c_regions, c_pushes, c_high, c_entries)


def arena_knn_iter(
    tree: Any,
    n: int,
    point_distance: PointDistance,
    region_distance: RegionDistance,
    z_key: Optional[Callable[[Sequence[int]], int]] = None,
    *,
    bound: Any = None,
) -> Iterator[Tuple[Any, Tuple[int, ...], Any]]:
    """Arena twin of :func:`knn_iter`: the same best-first search over
    slab offsets, with the same inclusive ``bound``.

    Heap items carry the tagged slot ref as payload
    (``node_off << 1 | 1`` / ``entry_off << 1``); ordering only ever
    compares the ``(distance, z, tiebreak)`` prefix, exactly like the
    object engine, so ties resolve identically.  Probe counts accumulate
    in locals and publish only with observability enabled.
    """
    obs = _rt.enabled
    root = tree._root_off
    arena = tree._arena
    words = arena.words
    k = arena.k
    if n > 0 and root:
        lower = tuple(words[root + 2 : root + 2 + k])
        free = (1 << ((words[root] & 63) + 1)) - 1
        dist = region_distance(lower, tuple(p | free for p in lower))
    if n <= 0 or not root or (bound is not None and dist > bound):
        if obs:
            _probes.record_knn(0, 0, 0, 0)
        return
    entries = arena.entries
    values = arena.values
    tiebreak = itertools.count()
    if z_key is None:
        z_key = lambda _key: 0  # noqa: E731 - ties fall to the counter
    heap: list = [(dist, z_key(lower), next(tiebreak), (root << 1) | 1)]
    c_regions = 0
    c_pushes = 1  # the root seed
    c_high = 1
    c_entries = 0
    produced = 0
    push = heapq.heappush
    try:
        while heap:
            dist, _, _, ref = heapq.heappop(heap)
            if ref & 1:
                off = ref >> 1
                c_regions += 1
                h = words[off]
                base = off + 2 + k
                if h & 4096:
                    refs = words[base : base + (1 << k)]
                else:
                    c = words[off + 1]
                    nslots = (c & 2097151) + ((c >> 21) & 2097151)
                    rbase = base + (1 << ((h >> 13) & 63))
                    refs = words[rbase : rbase + nslots]
                for cref in refs:
                    if not cref:
                        continue
                    if cref & 1:
                        child = cref >> 1
                        lower = tuple(words[child + 2 : child + 2 + k])
                        cfree = (1 << ((words[child] & 63) + 1)) - 1
                        d = region_distance(
                            lower, tuple(p | cfree for p in lower)
                        )
                    else:
                        e = cref >> 1
                        lower = tuple(entries[e : e + k])
                        d = point_distance(lower)
                    if bound is None or d <= bound:
                        push(heap, (d, z_key(lower), next(tiebreak), cref))
                        c_pushes += 1
                if len(heap) > c_high:
                    c_high = len(heap)
            else:
                e = ref >> 1
                produced += 1
                c_entries += 1
                vref = entries[e + k]
                yield dist, tuple(entries[e : e + k]), (
                    values[vref]
                )
                if produced >= n:
                    return
    finally:
        if obs:
            _probes.record_knn(c_regions, c_pushes, c_high, c_entries)

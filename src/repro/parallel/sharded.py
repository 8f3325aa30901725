"""ShardedPHTree: one PH-tree per z-prefix partition, each behind its lock.

Because the PH-tree's shape is a pure function of its key set (paper
Section 3), partitioning the key set by the top bits of the Morton code
yields S completely independent PH-trees whose *disjoint union is
observationally identical* to the single tree: every read and write
touches exactly the shards whose z-region it intersects, and per-shard
results concatenate (in shard index order) into exactly the unsharded
z-order.  The test suite pins that equivalence operation by operation,
order included.

Each shard is a plain :class:`~repro.core.phtree.PHTree` behind its own
:class:`~repro.core.concurrent.ReadWriteLock`, so writers to different
shards never contend.  Every read traverses the live shard trees it
touches, each under its shard's read lock.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from time import monotonic, perf_counter

from repro.core.bulk import bulk_load_sorted
from repro.core.concurrent import SynchronizedPHTree
from repro.core.knn import squared_euclidean_region_int
from repro.core.phtree import PHTree
from repro.core.serialize import NoneValueCodec
from repro.encoding.interleave import interleave
from repro.obs import heat as _heat
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from repro.obs import span as _span
from repro.parallel.router import ZShardRouter

__all__ = ["ShardedPHTree"]

_MISSING = object()

Key = Tuple[int, ...]

#: :meth:`ShardedPHTree.get_many` answers a shard's group of at most this
#: many keys key by key with the shard tree's ``get``, and a larger one
#: with its batch engine, whose validation pass, z-sort and shared
#: descent paths only pay off once enough keys share paths.
GET_MANY_CUTOVER = 768


class _TimedGuard:
    """Lock guard measuring acquisition wait into a histogram and
    dropping op begin/end events into the flight recorder (only
    constructed on the observability-enabled path)."""

    __slots__ = ("_guard", "_hist", "_shard", "_op")

    def __init__(
        self, guard: Any, hist: Any, shard: int, op: str
    ) -> None:
        self._guard = guard
        self._hist = hist
        self._shard = shard
        self._op = op

    def __enter__(self) -> None:
        _recorder.record("op_begin", shard=self._shard, op=self._op)
        start = perf_counter()
        self._guard.__enter__()
        self._hist.observe(perf_counter() - start)

    def __exit__(self, *exc_info: object) -> None:
        self._guard.__exit__(*exc_info)
        _recorder.record("op_end", shard=self._shard, op=self._op)


class ShardedPHTree:
    """A z-prefix-partitioned, lock-per-shard PH-tree with the exact
    observable behaviour of one :class:`~repro.core.phtree.PHTree`.

    Parameters
    ----------
    dims, width, hc_mode:
        As for :class:`~repro.core.phtree.PHTree` (``width`` may be
        per-dimension; routing uses the maximum width).
    shards:
        Number of partitions; a power of two.  Each shard holds the keys
        whose top ``log2(shards)`` Morton-code bits equal its index.
    router:
        ``"prefix"`` (default) keeps the fixed z-prefix
        :class:`~repro.parallel.router.ZShardRouter`.  ``"learned"``
        uses a :class:`~repro.learned.router.LearnedZRouter` with
        skew-aware equi-mass z-cuts (seeded uniform here; :meth:`build`
        fits the cuts to the data, :meth:`relearn_router` re-fits from
        a sample or the live heat map).  A router *instance* (anything
        with the same surface) is used as-is; ``shards`` is then taken
        from it.  All routers keep the z-interval parity contract, so
        results and their order are identical to the unsharded tree.

    >>> tree = ShardedPHTree(dims=2, width=8, shards=4)
    >>> tree.put((1, 2), None)
    >>> tree.put((200, 3), None)
    >>> len(tree), sorted(tree.shard_sizes().items())[:2]
    (2, [(0, 1), (1, 0)])
    >>> [key for key, _ in tree.query((0, 0), (255, 255))]
    [(1, 2), (200, 3)]
    """

    def __init__(
        self,
        dims: int,
        width: "int | Sequence[int]" = 64,
        shards: int = 8,
        hc_mode: str = "auto",
        router: "str | Any" = "prefix",
    ) -> None:
        proto = PHTree(dims=dims, width=width, hc_mode=hc_mode)
        if router == "prefix":
            router = ZShardRouter(dims, proto.width, shards)
        elif router == "learned":
            from repro.learned.router import LearnedZRouter

            router = LearnedZRouter.uniform(dims, proto.width, shards)
        elif isinstance(router, str):
            raise ValueError(
                f"router must be 'prefix', 'learned' or a router "
                f"instance, got {router!r}"
            )
        else:
            if router.dims != dims or router.width != proto.width:
                raise ValueError(
                    f"router shape ({router.dims}d/w{router.width}) "
                    f"does not match the tree "
                    f"({dims}d/w{proto.width})"
                )
            shards = router.n_shards
        shards = router.n_shards
        self._shards = [SynchronizedPHTree(proto)] + [
            SynchronizedPHTree(
                PHTree(dims=dims, width=width, hc_mode=hc_mode)
            )
            for _ in range(shards - 1)
        ]
        # The locks never change (recovery and re-sharding swap a
        # shard's tree, under its write lock, never the lock itself).
        self._locks = [locked.lock for locked in self._shards]
        self._router = router
        self._width_arg = width
        self._hc_mode = hc_mode
        self._check_key = proto._check_key
        # Point reads check a key once, with the shard engine's fused
        # check where it has one; what it declines goes to _check_key,
        # which raises the sequential error (or accepts bool/int-subclass
        # coordinates).
        spec = proto.specialization
        self._fast_check = (
            spec.check_key
            if spec is not None and proto._uniform
            else proto._check_key
        )

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        entries: "Sequence[Tuple[Sequence[int], Any]]",
        dims: int,
        width: "int | Sequence[int]" = 64,
        shards: int = 8,
        hc_mode: str = "auto",
        router: "str | Any" = "prefix",
    ) -> "ShardedPHTree":
        """Bulk-build: one global z-sort, then a per-shard bottom-up
        :func:`~repro.core.bulk.bulk_load_sorted` over each contiguous
        run (no re-sorting, no per-insert node splicing; the sort's
        z-codes are handed straight to the per-shard builds).

        Duplicate keys keep the last value, matching repeated ``put``.
        ``router="learned"`` fits equi-mass z-cuts to the sorted batch
        itself -- the bulk stream *is* the distribution -- so a skewed
        key set still spreads evenly over the shards.
        """
        tree = cls(dims, width, shards=shards, hc_mode=hc_mode, router=router)
        check = tree._check_key
        deduped: Dict[Key, Any] = {}
        for key, value in entries:
            deduped[check(key)] = value
        w = tree._router.width
        decorated = sorted(
            (interleave(key, w), key) for key in deduped
        )
        items = [(key, deduped[key]) for _, key in decorated]
        zs = [z for z, _ in decorated]
        if router == "learned":
            from repro.learned.router import LearnedZRouter

            tree._router = LearnedZRouter.from_sorted_zcodes(
                zs, dims, w, tree.n_shards
            )
        # Cut the sorted batch into per-shard runs straight from the
        # z-codes (works for any contiguous-z-interval router).
        shard_of_z = tree._router.shard_of_z
        start = 0
        n = len(items)
        while start < n:
            shard = shard_of_z(zs[start])
            end = start + 1
            while end < n and shard_of_z(zs[end]) == shard:
                end += 1
            built = bulk_load_sorted(
                items[start:end],
                dims,
                width,
                hc_mode=hc_mode,
                validate=False,
                zcodes=zs[start:end],
            )
            locked = tree._shards[shard]
            with locked.lock.write():
                locked._tree = built
            start = end
        return tree

    # -- topology ----------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions ``k``."""
        return self._router.dims

    @property
    def width(self) -> int:
        """Bit width ``w`` used for routing (the maximum per-dim width)."""
        return self._router.width

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self._router.n_shards

    @property
    def router(self) -> Any:
        """The shard router -- a z-prefix
        :class:`~repro.parallel.router.ZShardRouter` or a
        :class:`~repro.learned.router.LearnedZRouter` (pure arithmetic,
        shareable)."""
        return self._router

    def relearn_router(self, source: str = "contents") -> None:
        """Re-fit learned equi-mass z-cuts and re-shard in place.

        ``source="contents"`` derives exact order-statistic cuts from
        the stored keys (the population itself); ``source="heatmap"``
        fits to the observability layer's live z-region traffic
        (:data:`repro.obs.heat.HEATMAP`), steering capacity toward hot
        regions rather than dense ones.  The shard count is unchanged;
        every shard tree is rebuilt bottom-up from its new z-interval
        run under an exclusive lock over all shards (one consistent
        re-partition, never a torn read).
        """
        from repro.learned.router import LearnedZRouter

        dims, w = self.dims, self.width
        guards = [locked.lock.write() for locked in self._shards]
        for guard in guards:
            guard.__enter__()
        try:
            # Shards are ascending z-intervals, so concatenating their
            # z-ordered item streams is already the global z-sort.
            items: List[Tuple[Key, Any]] = [
                entry
                for locked in self._shards
                for entry in locked.unsafe_tree.items()
            ]
            zs = [interleave(key, w) for key, _ in items]
            if source == "contents":
                router = LearnedZRouter.from_sorted_zcodes(
                    zs, dims, w, self.n_shards
                )
            elif source == "heatmap":
                router = LearnedZRouter.from_heatmap(
                    _heat.HEATMAP, dims, w, self.n_shards
                )
            else:
                raise ValueError(
                    f"source must be 'contents' or 'heatmap', "
                    f"got {source!r}"
                )
            shard_of_z = router.shard_of_z
            runs: Dict[int, Tuple[int, int]] = {}
            start = 0
            n = len(items)
            while start < n:
                shard = shard_of_z(zs[start])
                end = start + 1
                while end < n and shard_of_z(zs[end]) == shard:
                    end += 1
                runs[shard] = (start, end)
                start = end
            for index, locked in enumerate(self._shards):
                lo, hi = runs.get(index, (0, 0))
                locked._tree = bulk_load_sorted(
                    items[lo:hi],
                    dims,
                    self._width_arg,
                    hc_mode=self._hc_mode,
                    validate=False,
                    zcodes=zs[lo:hi],
                )
            self._router = router
        finally:
            for guard in reversed(guards):
                guard.__exit__(None, None, None)

    def shard_sizes(self) -> Dict[int, int]:
        """Entry count per shard index."""
        return {
            index: len(shard) for index, shard in enumerate(self._shards)
        }

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __bool__(self) -> bool:
        return any(len(shard) for shard in self._shards)

    # -- mutations (shard write lock) -----------------------------------------

    def put(self, key: Sequence[int], value: Any = None) -> Any:
        """Insert/update; returns the previous value (or ``None``)."""
        key = self._check_key(key)
        index = self._router.shard_of(key)
        locked = self._shards[index]
        with self._write_guard(index, "put"):
            return locked.unsafe_tree.put(key, value)

    def _write_guard(self, index: int, op: str) -> Any:
        """The shard's write lock; with observability enabled, also
        counts the op against the shard, feeds the z-region heat map
        at the shard's lower bound, and times the acquisition."""
        guard = self._shards[index].lock.write()
        if _rt.enabled:
            _probes.record_shard_op(index, op)
            _heat.record_region(
                self._router.bounds(index)[0], self._router.width, op
            )
            return _TimedGuard(
                guard, _probes.shard_lock_wait_write, index, op
            )
        return guard

    def _read_guard(self, index: int, op: str) -> Any:
        """The shard's read lock, instrumented like :meth:`_write_guard`."""
        guard = self._shards[index].lock.read()
        if _rt.enabled:
            _probes.record_shard_op(index, op)
            _heat.record_region(
                self._router.bounds(index)[0], self._router.width, op
            )
            return _TimedGuard(
                guard, _probes.shard_lock_wait_read, index, op
            )
        return guard

    def remove(self, key: Sequence[int], default: Any = _MISSING) -> Any:
        """Delete ``key``; :class:`KeyError` when absent unless
        ``default`` is given."""
        key = self._check_key(key)
        index = self._router.shard_of(key)
        locked = self._shards[index]
        with self._write_guard(index, "remove"):
            if default is _MISSING:
                return locked.unsafe_tree.remove(key)
            return locked.unsafe_tree.remove(key, default)

    def update_key(
        self, old_key: Sequence[int], new_key: Sequence[int]
    ) -> None:
        """Move an entry (same semantics as :meth:`PHTree.update_key`);
        cross-shard moves lock both shards in index order."""
        old_key = self._check_key(old_key)
        new_key = self._check_key(new_key)
        source = self._router.shard_of(old_key)
        target = self._router.shard_of(new_key)
        if source == target:
            locked = self._shards[source]
            with self._write_guard(source, "update_key"):
                locked.unsafe_tree.update_key(old_key, new_key)
            return
        first, second = sorted((source, target))
        with self._write_guard(first, "update_key"):
            with self._write_guard(second, "update_key"):
                source_tree = self._shards[source].unsafe_tree
                target_tree = self._shards[target].unsafe_tree
                if target_tree.contains(new_key):
                    raise ValueError(
                        f"target key already present: {new_key}"
                    )
                value = source_tree.remove(old_key)
                target_tree.put(new_key, value)

    def put_all(
        self, entries: "Sequence[Tuple[Sequence[int], Any]]"
    ) -> None:
        """Bulk insert, one lock acquisition per touched shard."""
        grouped: Dict[int, List[Tuple[Key, Any]]] = {}
        for key, value in entries:
            key = self._check_key(key)
            grouped.setdefault(self._router.shard_of(key), []).append(
                (key, value)
            )
        for index in sorted(grouped):
            locked = self._shards[index]
            with self._write_guard(index, "put_all"):
                put = locked.unsafe_tree.put
                for key, value in grouped[index]:
                    put(key, value)

    def clear(self) -> None:
        """Remove all entries from every shard."""
        for index, locked in enumerate(self._shards):
            with self._write_guard(index, "clear"):
                locked.unsafe_tree.clear()

    # -- point reads (live shard, shared lock) --------------------------------------

    def get(self, key: Sequence[int], default: Any = None) -> Any:
        """Value stored at ``key`` or ``default``: one key check, one
        route, the shard's read lock and the shard tree's checked-key
        descent."""
        if key.__class__ is not tuple:
            key = tuple(key)  # once: a declined iterator stays readable
        checked = self._fast_check(key)
        if checked is None:
            checked = self._check_key(key)
        index = self._router.shard_of(checked)
        if _rt.enabled:
            with self._read_guard(index, "get"):
                return self._shards[index].unsafe_tree.get(checked, default)
        lock = self._locks[index]
        lock.acquire_read()
        try:
            # The tree is read under the lock: recovery swaps it under
            # the write lock.
            return self._shards[index]._tree.get_checked(checked, default)
        finally:
            lock.release_read()

    def contains(self, key: Sequence[int]) -> bool:
        """Point query (the same path as :meth:`get`)."""
        if key.__class__ is not tuple:
            key = tuple(key)
        checked = self._fast_check(key)
        if checked is None:
            checked = self._check_key(key)
        index = self._router.shard_of(checked)
        if _rt.enabled:
            with self._read_guard(index, "contains"):
                return self._shards[index].unsafe_tree.contains(checked)
        lock = self._locks[index]
        lock.acquire_read()
        try:
            tree = self._shards[index]._tree
            return tree.get_checked(checked, _MISSING) is not _MISSING
        finally:
            lock.release_read()

    def __contains__(self, key: Sequence[int]) -> bool:
        return self.contains(key)

    def get_many(
        self, keys: "Sequence[Sequence[int]]", default: Any = None
    ) -> List[Any]:
        """Batched ``get``, in input order: keys are checked once and
        grouped by shard, and each group is answered under one read lock,
        key by key with the shard tree's ``get`` up to
        :data:`GET_MANY_CUTOVER` keys and by its batch engine
        (``get_many``) above."""
        check = self._fast_check
        shard_of = self._router.shard_of
        # Shard -> (input positions, checked keys).
        groups: Dict[int, Tuple[List[int], List[Key]]] = {}
        group_of = groups.get
        position = -1
        for position, key in enumerate(keys):
            if key.__class__ is not tuple:
                key = tuple(key)
            checked = check(key)
            if checked is None:
                checked = self._check_key(key)
            index = shard_of(checked)
            group = group_of(index)
            if group is None:
                group = groups[index] = ([], [])
            group[0].append(position)
            group[1].append(checked)
        results: List[Any] = [default] * (position + 1)
        for index in sorted(groups):
            positions, group_keys = groups[index]
            with self._read_guard(index, "get_many"):
                tree = self._shards[index].unsafe_tree
                # Instrumented runs always take the batch engine, so its
                # counters keep their meaning.
                if _rt.enabled or len(group_keys) > GET_MANY_CUTOVER:
                    values = tree.get_many(group_keys, default)
                else:
                    get = tree.get
                    values = [get(key, default) for key in group_keys]
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def contains_many(self, keys: "Sequence[Sequence[int]]") -> List[bool]:
        """Batched ``contains``, in input order (the :meth:`get_many`
        path)."""
        return [
            value is not _MISSING
            for value in self.get_many(keys, _MISSING)
        ]

    # -- window queries -----------------------------------------------------------

    def query(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> List[Tuple[Key, Any]]:
        """Materialised window query, in exactly the unsharded z-order
        (shard regions are z-contiguous, so concatenation suffices).
        """
        trace = _span.current_trace()
        box_min = self._check_key(box_min)
        box_max = self._check_key(box_max)
        if any(lo > hi for lo, hi in zip(box_min, box_max)):
            return []
        if trace is not None:
            with trace.span("route"):
                shards = self._router.shards_for_box(box_min, box_max)
        else:
            shards = self._router.shards_for_box(box_min, box_max)
        merged: List[Tuple[Key, Any]] = []
        if _rt.enabled or trace is not None:
            for index in shards:
                t0 = monotonic()
                guard = (
                    self._read_guard(index, "query")
                    if _rt.enabled
                    else self._shards[index].lock.read()
                )
                with guard:
                    t1 = monotonic()
                    part = list(
                        self._shards[index].unsafe_tree.query(
                            box_min, box_max
                        )
                    )
                    t2 = monotonic()
                if trace is not None:
                    trace.add("lock_wait", t0, t1, shard=index)
                    trace.add("scan", t1, t2, shard=index)
                merged.extend(part)
            return merged
        for index in shards:
            merged.extend(self._shards[index].query(box_min, box_max))
        return merged

    def query_many(
        self,
        boxes: "Sequence[Tuple[Sequence[int], Sequence[int]]]",
        use_masks: bool = True,
    ) -> List[List[Tuple[Key, Any]]]:
        """Batched window queries, each result list exactly equal to the
        unsharded :meth:`PHTree.query_many` output (order included)."""
        checked: List[Tuple[Key, Key]] = [
            (self._check_key(lo), self._check_key(hi)) for lo, hi in boxes
        ]
        per_shard: Dict[int, List[int]] = {}
        for position, (lo, hi) in enumerate(checked):
            if any(l > h for l, h in zip(lo, hi)):
                continue
            for index in self._router.shards_for_box(lo, hi):
                per_shard.setdefault(index, []).append(position)
        results: List[List[Tuple[Key, Any]]] = [[] for _ in checked]
        trace = _span.current_trace()
        for index in sorted(per_shard):
            positions = per_shard[index]
            locked = self._shards[index]
            t0 = monotonic() if trace is not None else 0.0
            with self._read_guard(index, "query_many"):
                t1 = monotonic() if trace is not None else 0.0
                parts = locked.unsafe_tree.query_many(
                    [checked[p] for p in positions], use_masks=use_masks
                )
                t2 = monotonic() if trace is not None else 0.0
            if trace is not None:
                trace.add("lock_wait", t0, t1, shard=index)
                trace.add("scan", t1, t2, shard=index)
            for position, part in zip(positions, parts):
                results[position].extend(part)
        return results

    def count(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> int:
        """Number of entries in the inclusive box."""
        return len(self.query(box_min, box_max))

    # -- kNN --------------------------------------------------------------------

    def knn(
        self, key: Sequence[int], n: int = 1
    ) -> List[Tuple[Key, Any]]:
        """``n`` nearest entries, identical (order included) to the
        unsharded tree.

        Shards are visited in ascending region distance and skipped once
        their region lower bound exceeds the current ``n``-th best
        distance.  Among shards at the same region distance the shard
        that owns the query key goes first: learned z-cuts make boxes
        overlap, so several shards can lie at distance 0, and the owner
        is the one most likely to hold the nearest entries and to set a
        tight bound.  Each later shard is searched only up to that
        distance; the bound is inclusive, because an equidistant entry
        in a lower-indexed shard still wins its z-order tie.  Shards
        are ascending z-intervals and each returns its candidates in
        z-order among ties, so merging by ``(distance, shard, rank)``
        gives the unsharded order without computing any Morton code.
        """
        key = self._check_key(key)
        if n <= 0:
            return []
        best: List[Tuple[int, int, int, Key, Any]] = []
        trace = _span.current_trace()
        observed = _rt.enabled or trace is not None
        region_dist = squared_euclidean_region_int(key)
        bounds = self._router.bounds
        shard_dist = [region_dist(*bounds(s)) for s in range(self.n_shards)]
        own = self._router.shard_of(key)
        bound: Optional[int] = None
        merge_s = 0.0
        for index in sorted(
            range(self.n_shards),
            key=lambda s: (shard_dist[s], s != own, s),
        ):
            if bound is not None and shard_dist[index] > bound:
                break
            if observed:
                part = self._knn_scan_observed(index, key, n, bound, trace)
            else:
                part = self._shards[index].knn(key, n, bound=bound)
            t0 = perf_counter()
            self._knn_merge(best, key, n, index, part)
            merge_s += perf_counter() - t0
            if len(best) == n:
                bound = best[-1][0]
        if trace is not None:
            # One span carrying the merge time summed over the shards.
            end = monotonic()
            trace.add("merge", end - merge_s, end)
        return [(found, value) for *_, found, value in best]

    def _knn_scan_observed(
        self,
        index: int,
        key: Key,
        n: int,
        bound: Optional[int],
        trace: Any,
    ) -> List[Tuple[Key, Any]]:
        """One shard's bounded search under its read lock, with the
        probes (observability on) and ``lock_wait``/``scan`` spans."""
        t0 = monotonic()
        guard = (
            self._read_guard(index, "knn")
            if _rt.enabled
            else self._shards[index].lock.read()
        )
        with guard:
            t1 = monotonic()
            part = self._shards[index].unsafe_tree.knn(key, n, bound=bound)
            t2 = monotonic()
        if trace is not None:
            trace.add("lock_wait", t0, t1, shard=index)
            trace.add("scan", t1, t2, shard=index)
        return part

    def _knn_merge(
        self,
        best: List[Tuple[int, int, int, Key, Any]],
        query: Key,
        n: int,
        index: int,
        part: List[Tuple[Key, Any]],
    ) -> None:
        """Merge shard ``index``'s nearest-first list into ``best``,
        keeping the ``n`` smallest ``(distance, shard, rank)``; the
        triple is unique, so keys and values are never compared."""
        point_dist = self._point_dist
        best.extend(
            (point_dist(query, found), index, rank, found, value)
            for rank, (found, value) in enumerate(part)
        )
        best.sort()
        del best[n:]

    @staticmethod
    def _point_dist(query: Key, candidate: Key) -> int:
        total = 0
        for q, v in zip(query, candidate):
            d = q - v
            total += d * d
        return total

    # -- iteration ----------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Key, Any]]:
        """All entries in global z-order (materialised per shard under
        its read lock, yielded shard by shard)."""
        for shard in self._shards:
            yield from shard.items()

    def keys(self) -> Iterator[Key]:
        """All keys in global z-order."""
        for key, _ in self.items():
            yield key

    def __iter__(self) -> Iterator[Key]:
        return self.keys()

    # -- snapshots ----------------------------------------------------------------

    def freeze_shards(
        self,
        value_codec: Any = NoneValueCodec,
        learned: bool = False,
    ) -> List[bytes]:
        """Freeze every shard to its packed byte stream, each under its
        read lock; index ``i`` of the result is shard ``i``'s stream
        (header-only when the shard is empty).

        This is the whole-tree snapshot primitive: the durable store's
        checkpoint writes these streams verbatim as segment files and
        later mmap-attaches them zero-copy.  ``learned`` appends the
        learned z-address trailer to each stream.
        """
        from repro.core.frozen import freeze

        blobs: List[bytes] = []
        for locked in self._shards:
            with locked.lock.read():
                blobs.append(
                    freeze(locked.unsafe_tree, value_codec, learned=learned)
                )
        return blobs

    # -- validation ----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Per-shard structural validation plus the routing invariant:
        every stored key lives in the shard its z-prefix names."""
        for index, locked in enumerate(self._shards):
            with locked.lock.read():
                tree = locked.unsafe_tree
                tree.check_invariants()
                for key in tree.keys():
                    owner = self._router.shard_of(key)
                    if owner != index:
                        raise AssertionError(
                            f"key {key} stored in shard {index} but "
                            f"routed to {owner}"
                        )

"""The PATRICIA-hypercube-tree over integer keys (paper Sections 3.1-3.6).

:class:`PHTree` stores k-dimensional points whose coordinates are unsigned
``width``-bit integers, optionally with an associated value (making the tree
a map; with values left as None it behaves as a set).  Keys are unique --
the paper's tree "currently does not allow duplicates" (Section 3.6);
re-inserting a key replaces its value.

Structural properties maintained (and asserted by the test suite):

- the tree layout depends only on the stored key set, never on the order of
  insertions and deletions,
- every update touches at most two nodes (one modified, at most one created
  or removed),
- depth is bounded by ``width``,
- every non-root node holds at least two slots,
- each node automatically uses the smaller of the HC and LHC slot
  representations.

Floating point data goes through :class:`repro.core.phtree_float.PHTreeF`.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import batch as batch_mod
from repro.core import knn as knn_mod
from repro.core import specialize as spec_mod
from repro.core.kernel import iter_subtree
from repro.core.node import Entry, Node, masked_prefix
from repro.core.range_query import naive_range_iter, range_iter
from repro.obs import heat as _heat
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from time import perf_counter as _perf_counter

__all__ = ["PHTree"]

_MISSING = object()


class PHTree:
    """A k-dimensional PATRICIA-hypercube-tree map with integer keys.

    Parameters
    ----------
    dims:
        Number of dimensions ``k`` (>= 1).
    width:
        Bit width ``w`` of each coordinate (default 64).  All coordinates
        must lie in ``[0, 2**width)``.
    hc_mode:
        Slot representation policy: ``"auto"`` (paper default -- pick the
        smaller of HC and LHC per node), ``"hc"`` or ``"lhc"`` (forced;
        used by the ablation benchmarks).
    hc_hysteresis:
        Relaxed switching margin (fraction) preventing HC/LHC oscillation;
        0.0 reproduces the paper's plain size comparison.
    specialize:
        Use the per-(k, width) unrolled hot-path kernels of
        :mod:`repro.core.specialize` (default).  ``False`` pins the tree
        to the generic loop-based engines (the pre-specialization paths,
        kept as ablation baseline and correctness oracle).  Results are
        bit-identical either way.
    layout:
        Storage engine: ``"object"`` (this class -- one Python object
        per node/entry) or ``"arena"`` (packed slab records addressed by
        offsets, see :mod:`repro.core.arena`; requires ``width <= 64``).
        ``None`` (default) reads ``REPRO_PHTREE_LAYOUT`` from the
        environment, falling back to ``"arena"`` (shapes the arena
        cannot hold -- width > 64 or dims > 63 -- silently keep the
        object engine; set ``REPRO_PHTREE_LAYOUT=object`` to pin the
        object engine everywhere).  Both engines produce identical
        results and tree shapes; the fuzzer runs them in lockstep.

    Examples
    --------
    >>> tree = PHTree(dims=2, width=4)
    >>> tree.put((1, 8), "a")
    >>> tree.put((3, 8), "b")
    >>> tree.get((1, 8))
    'a'
    >>> sorted(key for key, _ in tree.query((0, 0), (3, 15)))
    [(1, 8), (3, 8)]
    """

    # Hot-path object: no instance __dict__ (asserted by the test suite).
    __slots__ = (
        "_dims",
        "_widths",
        "_width",
        "_hc_mode",
        "_hysteresis",
        "_root",
        "_size",
        "_spec",
        "_uniform",
    )

    def __new__(cls, *args: Any, **kwargs: Any) -> "PHTree":
        # Engine dispatch: PHTree(..., layout="arena") constructs the
        # slab-backed subclass (CPython then runs *its* __init__ with
        # the same arguments).  Subclasses construct directly.
        if cls is PHTree:
            layout = kwargs.get("layout")
            if layout is None and len(args) >= 6:
                layout = args[5]
            if layout is None:
                layout = os.environ.get("REPRO_PHTREE_LAYOUT", "arena")
                if layout == "arena":
                    # The default (or env var) expresses a session-wide
                    # preference, not a hard requirement: trees the
                    # arena cannot hold (coordinates wider than one
                    # 64-bit slab word, or more dimensions than a k-bit
                    # hypercube address plus sentinel fits in one word)
                    # silently keep the object engine.  An *explicit*
                    # layout="arena" still raises for them.
                    width = kwargs.get("width", args[1] if len(args) >= 2 else 64)
                    dims = kwargs.get("dims", args[0] if len(args) >= 1 else 0)
                    try:
                        wmax = (
                            width
                            if isinstance(width, int)
                            else max(width, default=0)
                        )
                    except TypeError:
                        # Malformed widths fall through to __init__'s
                        # own validation on the object class.
                        wmax = 65
                    if wmax > 64 or (isinstance(dims, int) and dims > 63):
                        layout = "object"
            if layout == "arena":
                from repro.core.arena_tree import ArenaPHTree

                return super().__new__(ArenaPHTree)
            if layout != "object":
                raise ValueError(
                    f"layout must be 'object' or 'arena', got {layout!r}"
                )
        return super().__new__(cls)

    def __init__(
        self,
        dims: int,
        width: "int | Sequence[int]" = 64,
        hc_mode: str = "auto",
        hc_hysteresis: float = 0.0,
        specialize: bool = True,
        layout: Optional[str] = None,
    ) -> None:
        if layout not in (None, "object", "arena"):
            raise ValueError(
                f"layout must be 'object' or 'arena', got {layout!r}"
            )
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        # Paper Outlook item 5: allow a different bit-width per dimension.
        # Internally the tree runs at the maximum width; narrower
        # dimensions are validated at the boundary (their high bits are
        # shared zeros, which prefix sharing stores essentially for free).
        if isinstance(width, int):
            widths: Tuple[int, ...] = (width,) * dims
        else:
            widths = tuple(width)
            if len(widths) != dims:
                raise ValueError(
                    f"got {len(widths)} widths for {dims} dimensions"
                )
        for w in widths:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"widths must be >= 1, got {w}")
        if hc_mode not in ("auto", "hc", "lhc"):
            raise ValueError(
                f"hc_mode must be 'auto', 'hc' or 'lhc', got {hc_mode!r}"
            )
        if hc_hysteresis < 0.0:
            raise ValueError(
                f"hc_hysteresis must be >= 0, got {hc_hysteresis}"
            )
        self._dims = dims
        self._widths = widths
        self._width = max(widths)
        self._hc_mode = hc_mode
        self._hysteresis = hc_hysteresis
        self._root: Optional[Node] = None
        self._size = 0
        # Per-(k, width) unrolled hot-path kernels (None for shapes
        # outside the specializable range, or when opted out -- the
        # generic engines then serve every call).  The fused-validation
        # fast path additionally requires a uniform per-dimension width.
        self._uniform = all(w == self._width for w in widths)
        self._spec = (
            spec_mod.get_spec(dims, self._width) if specialize else None
        )

    # -- basic properties --------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions ``k``."""
        return self._dims

    @property
    def width(self) -> int:
        """Bit width ``w`` of the widest coordinate."""
        return self._width

    @property
    def widths(self) -> Tuple[int, ...]:
        """Per-dimension bit widths (paper Outlook item 5)."""
        return self._widths

    @property
    def layout(self) -> str:
        """The storage engine: ``"object"`` or ``"arena"``."""
        return "object"

    @property
    def root(self) -> Optional[Node]:
        """The root node, or None for an empty tree (read-only use)."""
        return self._root

    @property
    def specialization(self):
        """The tree's per-(k, width) kernel bundle, or None when running
        on the generic engines (see :mod:`repro.core.specialize`)."""
        return self._spec

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        # An empty tree is falsy, like the built-in containers.
        return self._size > 0

    def __contains__(self, key: Sequence[int]) -> bool:
        return self.contains(key)

    # -- validation --------------------------------------------------------

    def _check_key(self, key: Sequence[int]) -> Tuple[int, ...]:
        key = tuple(key)
        if len(key) != self._dims:
            raise ValueError(
                f"key has {len(key)} dimensions, tree has {self._dims}"
            )
        for dim, value in enumerate(key):
            if not isinstance(value, int):
                raise TypeError(
                    f"coordinate {dim} is {type(value).__name__}, "
                    f"expected int (use PHTreeF for floats)"
                )
            if value < 0 or value >> self._widths[dim]:
                raise ValueError(
                    f"coordinate {dim} = {value} outside "
                    f"[0, 2**{self._widths[dim]})"
                )
        return key

    # The specialized fast paths below validate with the generated fused
    # check (spec.check_key) and fall back to _check_key for whatever it
    # declines -- invalid keys (raising the exact sequential error) but
    # also accepted corner cases the fast check does not claim (bool
    # coordinates, int subclasses, non-uniform per-dimension widths).
    # A non-tuple key is read into a tuple first, once, so a key the
    # check declines is still whole when _check_key reads it (an
    # iterator would otherwise arrive empty).

    # -- point operations (paper Sections 3.5-3.6) --------------------------

    def put(self, key: Sequence[int], value: Any = None) -> Any:
        """Insert ``key`` (or update its value).  Returns the previous
        value, or None if the key was new.

        At most two nodes are touched: the insertion node, plus possibly
        one newly created sub-node.
        """
        spec = self._spec
        if spec is not None and not _rt.enabled:
            # Specialized write descent (unrolled per-(k, width) twin of
            # the generic body below; bit-identical tree shapes, pinned
            # by the property tests).  Observability-enabled calls take
            # the generic instrumented path so probe counts are
            # unchanged.
            if key.__class__ is not tuple:
                key = tuple(key)
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            return spec.put(self, checked, value)
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_put.inc()
            _heat.record(key, self._width, "put")
        if self._root is None:
            root = Node(
                post_len=self._width - 1,
                infix_len=0,
                prefix=(0,) * self._dims,
            )
            root.put_slot(
                root.address_of(key),
                Entry(key, value),
                self._dims,
                self._hc_mode,
                self._hysteresis,
            )
            self._root = root
            self._size = 1
            if obs:
                self._probe_write(depth=1, created=1, inserted=True)
            return None

        node = self._root
        depth = 1
        while True:
            address = node.address_of(key)
            slot = node.get_slot(address)
            if slot is None:
                node.put_slot(
                    address,
                    Entry(key, value),
                    self._dims,
                    self._hc_mode,
                    self._hysteresis,
                )
                self._size += 1
                if obs:
                    self._probe_write(depth, created=0, inserted=True)
                return None
            if isinstance(slot, Node):
                conflict = slot.prefix_conflict_pos(key)
                if conflict < 0:
                    node = slot
                    depth += 1
                    continue
                # The key leaves the sub-node's prefix at `conflict`:
                # splice a new node at that bit position between `node`
                # and `slot`.
                mid = self._new_split_node(node, key, conflict)
                slot.infix_len = conflict - 1 - slot.post_len
                mid.put_slot(
                    mid.address_of(slot.prefix),
                    slot,
                    self._dims,
                    self._hc_mode,
                    self._hysteresis,
                )
                mid.put_slot(
                    mid.address_of(key),
                    Entry(key, value),
                    self._dims,
                    self._hc_mode,
                    self._hysteresis,
                )
                node.put_slot(
                    address, mid, self._dims, self._hc_mode,
                    self._hysteresis,
                )
                self._size += 1
                if obs:
                    self._probe_write(depth + 1, created=1, inserted=True)
                return None
            # Slot holds a postfix (Entry).
            entry: Entry = slot
            if entry.key == key:
                previous = entry.value
                entry.value = value
                if obs:
                    self._probe_write(depth, created=0, inserted=False)
                return previous
            conflict = _diff_pos(entry.key, key)
            mid = self._new_split_node(node, key, conflict)
            mid.put_slot(
                mid.address_of(entry.key),
                entry,
                self._dims,
                self._hc_mode,
                self._hysteresis,
            )
            mid.put_slot(
                mid.address_of(key),
                Entry(key, value),
                self._dims,
                self._hc_mode,
                self._hysteresis,
            )
            node.put_slot(
                address, mid, self._dims, self._hc_mode, self._hysteresis
            )
            self._size += 1
            if obs:
                self._probe_write(depth + 1, created=1, inserted=True)
            return None

    @staticmethod
    def _probe_write(depth: int, created: int, inserted: bool) -> None:
        """Publish one write descent's probe data (enabled-only path)."""
        _probes.write_nodes_visited.inc(depth)
        _probes.write_slots_scanned.inc(depth)
        if created:
            _probes.tree_nodes_created.inc(created)
        if inserted:
            _probes.insert_depth.observe(depth)

    def _new_split_node(
        self, parent: Node, key: Tuple[int, ...], conflict_pos: int
    ) -> Node:
        """Create the sub-node splitting at bit position ``conflict_pos``."""
        if _rt.enabled:
            _recorder.record("split", level=conflict_pos)
        return Node(
            post_len=conflict_pos,
            infix_len=parent.post_len - 1 - conflict_pos,
            prefix=masked_prefix(key, conflict_pos),
        )

    def get(self, key: Sequence[int], default: Any = None) -> Any:
        """Return the value stored for ``key``, or ``default``."""
        spec = self._spec
        if spec is not None and not _rt.enabled:
            if key.__class__ is not tuple:
                key = tuple(key)
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            root = self._root
            if root is None:
                return default
            entry = spec.find_entry(root, checked)
            return default if entry is None else entry.value
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_get.inc()
            t0 = _perf_counter()
            entry = self._find_entry_counted(key)
            _heat.record(
                key, self._width, "get", _perf_counter() - t0
            )
        else:
            entry = self._find_entry(key)
        if entry is None:
            return default
        return entry.value

    def get_checked(self, key: Tuple[int, ...], default: Any = None) -> Any:
        """:meth:`get` for a key already validated by this tree's checks
        (a tuple of in-range ints), for a caller that checked it once
        to route it: the descent alone, uncounted by the probes."""
        root = self._root
        if root is None:
            return default
        spec = self._spec
        if spec is not None:
            entry = spec.find_entry(root, key)
        else:
            entry = self._find_entry(key)
        return default if entry is None else entry.value

    def contains(self, key: Sequence[int]) -> bool:
        """Point query (paper Section 3.5): does ``key`` exist?"""
        spec = self._spec
        if spec is not None and not _rt.enabled:
            if key.__class__ is not tuple:
                key = tuple(key)
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            root = self._root
            if root is None:
                return False
            return spec.find_entry(root, checked) is not None
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_contains.inc()
            _heat.record(key, self._width, "contains")
            return self._find_entry_counted(key) is not None
        return self._find_entry(key) is not None

    def get_many(
        self,
        keys: Sequence[Sequence[int]],
        default: Any = None,
        presorted: bool = False,
    ) -> List[Any]:
        """Batched :meth:`get`: one value per key, in input order.

        Equivalent to ``[self.get(k, default) for k in keys]`` but the
        batch is validated in one pass, z-order-sorted, and walked with
        shared descent paths (see :mod:`repro.core.batch`).  Pass
        ``presorted=True`` for batches already in z-order to skip the
        internal sort (results are correct under any order).

        >>> tree = PHTree(dims=2, width=4)
        >>> tree.put((1, 8), "a")
        >>> tree.get_many([(1, 8), (2, 2)], default="?")
        ['a', '?']
        """
        return batch_mod.get_many(self, keys, default, presorted)

    def contains_many(
        self, keys: Sequence[Sequence[int]]
    ) -> List[bool]:
        """Batched :meth:`contains`: one bool per key, in input order."""
        return batch_mod.contains_many(self, keys)

    def query_many(
        self,
        boxes: Sequence[Tuple[Sequence[int], Sequence[int]]],
        use_masks: bool = True,
    ) -> List[List[Tuple[Tuple[int, ...], Any]]]:
        """Batched :meth:`query`: one materialised result list per
        ``(box_min, box_max)`` pair, in input order.

        Each list equals ``list(self.query(lo, hi))`` (same entries,
        same z-order), but the tree is traversed once for the whole
        batch (see :mod:`repro.core.batch`).
        """
        return batch_mod.query_many(self, boxes, use_masks)

    def _find_entry(self, key: Tuple[int, ...]) -> Optional[Entry]:
        node = self._root
        while node is not None:
            slot = node.get_slot(node.address_of(key))
            if slot is None:
                return None
            if isinstance(slot, Node):
                if not slot.matches_prefix(key):
                    return None
                node = slot
                continue
            return slot if slot.key == key else None
        return None

    def _find_entry_counted(self, key: Tuple[int, ...]) -> Optional[Entry]:
        """Instrumented twin of :meth:`_find_entry` (only runs with
        observability enabled): same descent, plus point-descent
        counters -- one node and one container probe per level."""
        nodes = 0
        found: Optional[Entry] = None
        node = self._root
        while node is not None:
            nodes += 1
            slot = node.get_slot(node.address_of(key))
            if slot is None:
                break
            if isinstance(slot, Node):
                if not slot.matches_prefix(key):
                    break
                node = slot
                continue
            if slot.key == key:
                found = slot
            break
        _probes.point_nodes_visited.inc(nodes)
        _probes.point_slots_scanned.inc(nodes)
        return found

    def remove(self, key: Sequence[int], default: Any = _MISSING) -> Any:
        """Delete ``key`` and return its value.

        Raises :class:`KeyError` when the key is absent, unless ``default``
        is given.  At most two nodes are touched: the one losing the entry,
        plus possibly its now-superfluous self being merged away.
        """
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_remove.inc()
            _heat.record(key, self._width, "remove")
        parent: Optional[Node] = None
        parent_address = -1
        depth = 1
        node = self._root
        while node is not None:
            address = node.address_of(key)
            slot = node.get_slot(address)
            if slot is None:
                break
            if isinstance(slot, Node):
                if not slot.matches_prefix(key):
                    break
                parent = node
                parent_address = address
                node = slot
                depth += 1
                continue
            if slot.key != key:
                break
            node.remove_slot(
                address, self._dims, self._hc_mode, self._hysteresis
            )
            self._size -= 1
            self._merge_if_underfull(node, parent, parent_address)
            if obs:
                _probes.write_nodes_visited.inc(depth)
                _probes.write_slots_scanned.inc(depth)
            return slot.value
        if default is _MISSING:
            raise KeyError(f"key not found: {key}")
        return default

    def _merge_if_underfull(
        self,
        node: Node,
        parent: Optional[Node],
        parent_address: int,
    ) -> None:
        """Collapse ``node`` when deletion left it with fewer than two
        slots (non-root nodes always carry >= 2 sub-references)."""
        if parent is None:
            # The root is allowed any occupancy; drop it only when empty.
            if node.num_slots() == 0:
                self._root = None
                if _rt.enabled:
                    _probes.tree_nodes_merged.inc()
                    _recorder.record("merge")
            return
        count = node.num_slots()
        if count >= 2:
            return
        if count == 0:
            # Cannot happen: a non-root node had >= 2 slots before the
            # removal of a single entry.
            raise AssertionError("non-root node lost its last two slots")
        _, survivor = node.container.single_item()
        if isinstance(survivor, Node):
            survivor.infix_len += node.infix_len + 1
        if _rt.enabled:
            _probes.tree_nodes_merged.inc()
            _recorder.record("merge")
        parent.put_slot(
            parent_address,
            survivor,
            self._dims,
            self._hc_mode,
            self._hysteresis,
        )

    def update_key(
        self, old_key: Sequence[int], new_key: Sequence[int]
    ) -> None:
        """Move an entry to a new position (remove + insert).

        Raises :class:`KeyError` when ``old_key`` is absent and
        :class:`ValueError` when ``new_key`` already exists.
        """
        new_key = self._check_key(new_key)
        if _rt.enabled:
            _probes.ops_update_key.inc()
        if self.contains(new_key):
            if tuple(old_key) == new_key:
                return
            raise ValueError(f"target key already present: {new_key}")
        value = self.remove(old_key)
        self.put(new_key, value)

    # -- iteration and queries ----------------------------------------------

    def items(self) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Iterate all ``(key, value)`` pairs in z-order."""
        if self._root is None:
            return iter(())
        return iter_subtree(self._root)

    def keys(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all keys in z-order."""
        for key, _ in self.items():
            yield key

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return self.keys()

    def query(
        self,
        box_min: Sequence[int],
        box_max: Sequence[int],
        use_masks: bool = True,
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Range query: iterate entries in the inclusive box
        ``[box_min, box_max]`` (paper Section 3.5).

        ``use_masks=False`` selects the mask-less reference traversal (for
        the ablation benchmark); results are then unordered.
        """
        box_min = self._check_key(box_min)
        box_max = self._check_key(box_max)
        if _rt.enabled:
            _probes.ops_query.inc()
            if use_masks:
                it = range_iter(
                    self._root, box_min, box_max, self._spec
                )
            else:
                it = naive_range_iter(self._root, box_min, box_max)
            return _heat.timed_iter(
                it, box_min, self._width, "query"
            )
        if use_masks:
            return range_iter(self._root, box_min, box_max, self._spec)
        return naive_range_iter(self._root, box_min, box_max)

    def query_all(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> List[Tuple[Tuple[int, ...], Any]]:
        """Materialised :meth:`query` result."""
        return list(self.query(box_min, box_max))

    def query_approx(
        self,
        box_min: Sequence[int],
        box_max: Sequence[int],
        slack_bits: int,
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Approximate range query (reference [17] of the paper).

        Returns a *superset* of the exact result: postfix checks are
        skipped at granularities below ``2**slack_bits``, so extra points
        within ``2**slack_bits - 1`` of the box may be included.  Faster
        on dense data; ``slack_bits=0`` is exactly :meth:`query`.
        """
        from repro.core.range_query import approx_range_iter

        box_min = self._check_key(box_min)
        box_max = self._check_key(box_max)
        if _rt.enabled:
            _probes.ops_query_approx.inc()
            return _heat.timed_iter(
                approx_range_iter(
                    self._root, box_min, box_max, slack_bits, self._spec
                ),
                box_min,
                self._width,
                "query",
            )
        return approx_range_iter(
            self._root, box_min, box_max, slack_bits, self._spec
        )

    def _morton_key(self):
        """The kNN z-order tiebreak: the tree's specialized unrolled
        Morton kernel when available (identical codes on every stored
        key, pinned by the property tests), else the generic closure."""
        spec = self._spec
        if spec is not None:
            return spec.interleave
        return knn_mod.morton_tiebreak(self._width)

    def count(
        self, box_min: Sequence[int], box_max: Sequence[int]
    ) -> int:
        """Number of entries in the inclusive box (no materialisation)."""
        return sum(1 for _ in self.query(box_min, box_max))

    def knn(
        self, key: Sequence[int], n: int = 1, *, bound: Any = None
    ) -> List[Tuple[Tuple[int, ...], Any]]:
        """Return the ``n`` nearest entries to ``key`` by Euclidean
        distance in integer key space, nearest first; equidistant
        entries come in z-order (so the result is a pure function of
        the stored key set).

        ``bound`` limits the search to entries whose squared distance
        is at most ``bound`` (inclusive); the result is then the prefix
        of the unbounded one that lies within it.
        """
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_knn.inc()
            t0 = _perf_counter()
        result = [
            (found_key, value)
            for _, found_key, value in knn_mod.knn_iter(
                self._root,
                n,
                knn_mod.squared_euclidean_int(key),
                knn_mod.squared_euclidean_region_int(key),
                self._morton_key(),
                bound=bound,
            )
        ]
        if obs:
            _heat.record(
                key, self._width, "knn", _perf_counter() - t0
            )
        return result

    def nearest_iter(
        self, key: Sequence[int]
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Lazily iterate *all* entries by ascending Euclidean distance
        (an unbounded kNN -- stop whenever you have enough)."""
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_knn.inc()
            _heat.record(key, self._width, "knn")
        for _, found_key, value in knn_mod.knn_iter(
            self._root,
            len(self),
            knn_mod.squared_euclidean_int(key),
            knn_mod.squared_euclidean_region_int(key),
            self._morton_key(),
        ):
            yield found_key, value

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Remove all entries."""
        self._root = None
        self._size = 0

    def nodes(self) -> Iterator[Node]:
        """Iterate all nodes (pre-order); used by stats and memory model."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            for _, slot in node.items():
                if isinstance(slot, Node):
                    stack.append(slot)

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on
        violation.  Used heavily by the property-based tests.
        """
        if self._root is None:
            if self._size != 0:
                raise AssertionError("empty root but non-zero size")
            return
        if self._root.post_len != self._width - 1:
            raise AssertionError("root must sit at post_len == width - 1")
        if self._root.infix_len != 0:
            raise AssertionError("root must have an empty infix")
        total = self._count_and_check(self._root, None)
        if total != self._size:
            raise AssertionError(
                f"size bookkeeping off: counted {total}, stored {self._size}"
            )

    def _count_and_check(self, node: Node, parent: Optional[Node]) -> int:
        if parent is not None:
            if node.num_slots() < 2:
                raise AssertionError(
                    f"non-root node with {node.num_slots()} slots"
                )
            expected_infix = parent.post_len - 1 - node.post_len
            if node.infix_len != expected_infix:
                raise AssertionError(
                    f"infix_len {node.infix_len} != expected "
                    f"{expected_infix}"
                )
            if not (0 <= node.post_len < parent.post_len):
                raise AssertionError("post_len must shrink downwards")
        shift = node.post_len + 1
        for value in node.prefix:
            if shift < self._width + 1 and value & ((1 << shift) - 1):
                raise AssertionError("prefix has dirty low bits")
        total = 0
        for address, slot in node.items():
            if isinstance(slot, Node):
                if not node_prefix_consistent(node, slot, address):
                    raise AssertionError("child prefix disagrees with path")
                total += self._count_and_check(slot, node)
            else:
                if node.address_of(slot.key) != address:
                    raise AssertionError("entry stored at wrong address")
                if not node.matches_prefix(slot.key):
                    raise AssertionError("entry outside node region")
                total += 1
        return total


def node_prefix_consistent(
    parent: Node, child: Node, address: int
) -> bool:
    """Check that a child's full prefix extends the parent's prefix plus
    the parent-level address bits."""
    k = len(parent.prefix)
    shift = parent.post_len + 1
    for dim in range(k):
        if (child.prefix[dim] >> shift) != (parent.prefix[dim] >> shift):
            return False
        address_bit = (address >> (k - 1 - dim)) & 1
        if (child.prefix[dim] >> parent.post_len) & 1 != address_bit:
            return False
    return True


def _diff_pos(a: Sequence[int], b: Sequence[int]) -> int:
    """Most significant bit position at which two equal-length keys differ
    in any dimension."""
    conflict = -1
    for va, vb in zip(a, b):
        diff = va ^ vb
        if diff:
            pos = diff.bit_length() - 1
            if pos > conflict:
                conflict = pos
    if conflict < 0:
        raise ValueError("keys are identical")
    return conflict

"""The arena-backed mutable PH-tree engine (``layout="arena"``).

:class:`ArenaPHTree` implements the full :class:`~repro.core.phtree.PHTree`
API on top of the packed slab layout of :mod:`repro.core.arena`: nodes are
fixed-layout records inside one ``array('Q')`` pool, addressed by integer
offsets, with HC and LHC slot tables inline in the slab.  The logical
structure -- which nodes exist, their post_len/infix/prefix, their HC or
LHC representation under the paper's Section 3.2 size model -- is
bit-identical to the object engine's (the PR-5 fuzzer runs both in
lockstep and the validator cross-checks a materialised shadow), only the
storage changes:

- a descent reads header/prefix/slot words by index instead of chasing
  ``Node``/``Entry`` objects and list containers,
- node growth and HC<->LHC switches *reallocate the record* (blocks are
  immutable in size), so every mutation helper patches the one parent ref
  word -- the tree's at-most-two-nodes-touched update property is what
  makes this cheap,
- merged/deleted nodes recycle through per-size free lists instead of
  waiting for the garbage collector.

``freeze()`` detects this engine and serialises straight from the slabs
(no per-node object walk), which is what makes snapshot republish in the
parallel layer near-free; the ``root`` property materialises a shadow
object tree on demand for the read-only consumers that want one
(stats, the validator, the memory model).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core import batch as batch_mod
from repro.core import knn as knn_mod
from repro.core.arena import (
    CAP_SHIFT,
    HC_BIT,
    NodeArena,
    hc_block_len,
    lhc_block_len,
    make_counts,
    make_header,
)
from repro.core.hypercube import (
    HCContainer,
    LHCContainer,
    max_hc_dimensions,
    prefer_hc,
)
from repro.core.node import Entry, Node
from repro.core.phtree import PHTree
from repro.core.specialize import ARENA_REMOVE_MISS
from repro.obs import heat as _heat
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from time import perf_counter as _perf_counter

__all__ = ["ArenaPHTree"]

_MISSING = object()


class ArenaPHTree(PHTree):
    """A :class:`PHTree` whose nodes live in a packed slab arena.

    Constructed through ``PHTree(..., layout="arena")``; behaves
    identically to the object engine for every operation (same results,
    same iteration order, same tree shape under the HC/LHC size model).
    Coordinates must fit one slab word, so ``width`` is capped at 64.
    """

    __slots__ = (
        "_arena",
        "_root_off",
        "_hc_want",
        "_split_want",
        "_mut_epoch",
        "_plan_cache",
        "_plan_epoch",
    )

    def __init__(
        self,
        dims: int,
        width: "int | Sequence[int]" = 64,
        hc_mode: str = "auto",
        hc_hysteresis: float = 0.0,
        specialize: bool = True,
        layout: Optional[str] = None,
    ) -> None:
        super().__init__(
            dims,
            width,
            hc_mode=hc_mode,
            hc_hysteresis=hc_hysteresis,
            specialize=specialize,
            layout="arena" if layout is None else layout,
        )
        if self._width > 64:
            raise ValueError(
                f"layout='arena' packs coordinates into 64-bit slab "
                f"words; width {self._width} > 64 needs layout='object'"
            )
        if dims > 63:
            raise ValueError(
                f"layout='arena' stores k-bit hypercube addresses plus "
                f"the 2**k sentinel in 64-bit slab words; dims {dims} > "
                f"63 needs layout='object'"
            )
        self._arena = NodeArena(dims)
        self._root_off = 0
        # Memoised HC-vs-LHC decisions: the representation choice is a
        # pure function of (n_sub, n_post, post_len, currently_hc) for a
        # fixed tree (k, mode, hysteresis), and the mutation path asks
        # it on every insert.
        self._hc_want: dict = {}
        self._split_want: dict = {}
        # Node-plan cache for the specialized read kernels: maps node
        # offset -> decoded probe/scan plan (see specialize.py).  Any
        # mutation bumps ``_mut_epoch``; readers clear the cache lazily
        # when their recorded ``_plan_epoch`` falls behind, so repeated
        # scans over a quiescent tree skip the per-node header decode
        # and slot-table hoist entirely.
        self._mut_epoch = 0
        self._plan_cache: dict = {}
        self._plan_epoch = -1

    # -- layout / shadow-object surface ------------------------------------

    @property
    def layout(self) -> str:
        return "arena"

    @property
    def root(self) -> Optional[Node]:
        """A materialised shadow of the root (read-only use).

        Rebuilt from the slabs on every access: object identity is not
        stable across calls, and mutating the shadow does not touch the
        tree.  Exists for the object-graph consumers (stats, validator,
        memory model); hot paths never call it.
        """
        off = self._root_off
        if not off:
            return None
        return self._materialize(off)

    def _materialize(self, off: int) -> Node:
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        node = Node(
            h & 63, (h >> 6) & 63, tuple(words[off + 2 : off + 2 + k])
        )
        node._n_sub = c & 2097151
        node._n_post = (c >> 21) & 2097151
        base = off + 2 + k
        if h & 4096:
            cont: Any = HCContainer(k)
            slots = cont._slots
            occupied = cont._occupied
            count = 0
            for a in range(1 << k):
                ref = words[base + a]
                if ref:
                    slots[a] = (
                        self._materialize(ref >> 1)
                        if ref & 1
                        else self._mat_entry(ref >> 1)
                    )
                    occupied.add(a)
                    count += 1
            cont._count = count
        else:
            cont = LHCContainer()
            addresses = cont._addresses
            slots = cont._slots
            n = node._n_sub + node._n_post
            cap = 1 << ((h >> 13) & 63)
            for i in range(n):
                addresses.append(words[base + i])
                ref = words[base + cap + i]
                slots.append(
                    self._materialize(ref >> 1)
                    if ref & 1
                    else self._mat_entry(ref >> 1)
                )
        node.container = cont
        return node

    def _mat_entry(self, e: int) -> Entry:
        arena = self._arena
        return Entry(
            arena.entry_key(e),
            arena.load_value(arena.entries[e + self._dims]),
        )

    def nodes(self) -> Iterator[Node]:
        """Iterate a materialised shadow's nodes (pre-order)."""
        root = self.root
        if root is None:
            return
        stack = [root]
        while stack:
            node = stack.pop()
            yield node
            for _, slot in node.items():
                if isinstance(slot, Node):
                    stack.append(slot)

    def _adopt_root(self, root: Optional[Node], size: int) -> None:
        """Replace this tree's content with an object-engine subtree.

        Used by the consumers that construct ``Node`` graphs directly
        (deserialisation honouring stored HC/LHC flags) and then hand
        them to whatever engine the tree runs: the graph is re-recorded
        into a fresh arena, representation flags preserved exactly.
        """
        self._arena = NodeArena(self._dims)
        self._root_off = 0 if root is None else self._adopt_node(root)
        self._size = size

    def _adopt_node(self, node: Node) -> int:
        arena = self._arena
        k = self._dims
        pairs: List[Tuple[int, int]] = []
        n_sub = 0
        n_post = 0
        for a, slot in node.items():
            if isinstance(slot, Node):
                pairs.append((a, (self._adopt_node(slot) << 1) | 1))
                n_sub += 1
            else:
                pairs.append(
                    (
                        a,
                        arena.new_entry(
                            slot.key, arena.store_value(slot.value)
                        )
                        << 1,
                    )
                )
                n_post += 1
        n = len(pairs)
        if node.container.is_hc:
            off = arena.alloc_block(hc_block_len(k))
            words = arena.words
            words[off] = make_header(
                node.post_len, node.infix_len, True, 0
            )
            i = off + 2
            for v in node.prefix:
                words[i] = v
                i += 1
            base = off + 2 + k
            for a, ref in pairs:
                words[base + a] = ref
        else:
            cap_log = (n - 1).bit_length() if n > 2 else 1
            cap = 1 << cap_log
            off = self._alloc_lhc(
                node.post_len, node.infix_len, node.prefix, cap_log
            )
            words = arena.words
            i = off + 2 + k
            for a, ref in pairs:
                words[i] = a
                words[i + cap] = ref
                i += 1
        words[off + 1] = make_counts(n_sub, n_post)
        return off

    # -- slab mutation helpers ---------------------------------------------
    #
    # Every helper returns/patches offsets because growth, shrink and
    # HC<->LHC switches reallocate the node's block.  ``pidx`` is the
    # absolute slab index of the parent's ref word for the node being
    # mutated (-1 for the root, whose ref is ``self._root_off``).

    def _alloc_lhc(
        self,
        post_len: int,
        infix_len: int,
        prefix: Sequence[int],
        cap_log: int,
    ) -> int:
        arena = self._arena
        k = self._dims
        cap = 1 << cap_log
        off = arena.alloc_block(lhc_block_len(k, cap))
        words = arena.words
        words[off] = make_header(post_len, infix_len, False, cap_log)
        i = off + 2
        for v in prefix:
            words[i] = v
            i += 1
        base = off + 2 + k
        words[base : base + cap] = arena.sentinel_run(cap)
        return off

    def _patch_parent(self, pidx: int, new_off: int) -> None:
        if pidx < 0:
            self._root_off = new_off
        else:
            self._arena.words[pidx] = (new_off << 1) | 1

    def _want_hc(
        self, n_sub: int, n_post: int, post: int, currently_hc: bool
    ) -> bool:
        """Memoised ``Node._maybe_switch`` decision (see ``prefer_hc``)."""
        # Flat int key: counts are 21-bit, post 6-bit, plus the side bit.
        key = (((n_sub << 21) | n_post) << 7) | (post << 1) | currently_hc
        want = self._hc_want.get(key)
        if want is None:
            mode = self._hc_mode
            if mode == "lhc":
                want = False
            elif mode == "hc":
                want = self._dims <= max_hc_dimensions()
            else:
                want = prefer_hc(
                    self._dims,
                    n_sub,
                    n_post,
                    post * self._dims,
                    hysteresis=self._hysteresis,
                    currently_hc=currently_hc,
                )
            self._hc_want[key] = want
        return want

    def _maybe_switch_off(self, off: int) -> int:
        """Re-evaluate the node's representation; returns its (possibly
        new) offset.  Mirrors ``Node._maybe_switch`` decision for
        decision, plus an LHC shrink step the object engine gets for free
        from ``list`` -- none of which changes the logical layout."""
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        n_sub = c & 2097151
        n_post = (c >> 21) & 2097151
        currently_hc = bool(h & 4096)
        want_hc = self._want_hc(n_sub, n_post, h & 63, currently_hc)
        n = n_sub + n_post
        if want_hc == currently_hc:
            if not currently_hc:
                cap_log = (h >> 13) & 63
                if cap_log > 1 and n <= (1 << cap_log) >> 2:
                    return self._resize_lhc(off, h, n, cap_log - 1)
            return off
        base = off + 2 + k
        if want_hc:
            cap = 1 << ((h >> 13) & 63)
            noff = arena.alloc_block(hc_block_len(k))
            words = arena.words
            nbase = noff + 2 + k
            words[noff:nbase] = words[off:base]
            for i in range(n):
                words[nbase + words[base + i]] = words[base + cap + i]
            arena.free_block(off, lhc_block_len(k, cap))
            words[noff] = (h & ~(63 << CAP_SHIFT)) | HC_BIT
            if _rt.enabled:
                _probes.switch_to_hc.inc()
                _recorder.record("hc_lhc_switch", to="hc")
            return noff
        cap_log = (n - 1).bit_length() if n > 2 else 1
        cap = 1 << cap_log
        noff = arena.alloc_block(lhc_block_len(k, cap))
        words = arena.words
        nbase = noff + 2 + k
        words[noff:nbase] = words[off:base]
        j = 0
        for a in range(1 << k):
            ref = words[base + a]
            if ref:
                words[nbase + j] = a
                words[nbase + cap + j] = ref
                j += 1
        words[nbase + j : nbase + cap] = arena.sentinel_run(cap - j)
        arena.free_block(off, hc_block_len(k))
        words[noff] = (h & ~(HC_BIT | (63 << CAP_SHIFT))) | (
            cap_log << CAP_SHIFT
        )
        if _rt.enabled:
            _probes.switch_to_lhc.inc()
            _recorder.record("hc_lhc_switch", to="lhc")
        return noff

    def _resize_lhc(
        self, off: int, h: int, n: int, cap_log: int
    ) -> int:
        """Move an LHC node into a ``2**cap_log``-slot block."""
        arena = self._arena
        k = self._dims
        cap = 1 << cap_log
        noff = arena.alloc_block(lhc_block_len(k, cap))
        words = arena.words
        base = off + 2 + k
        nbase = noff + 2 + k
        old_cap = 1 << ((h >> 13) & 63)
        words[noff:nbase] = words[off:base]
        words[nbase : nbase + n] = words[base : base + n]
        words[nbase + n : nbase + cap] = arena.sentinel_run(cap - n)
        words[nbase + cap : nbase + cap + n] = words[
            base + old_cap : base + old_cap + n
        ]
        arena.free_block(off, lhc_block_len(k, old_cap))
        words[noff] = (words[noff] & ~(63 << CAP_SHIFT)) | (
            cap_log << CAP_SHIFT
        )
        return noff

    def _put_ref(self, off: int, pidx: int, a: int, ref: int) -> int:
        """Insert-or-replace the slot at address ``a`` and patch the
        parent's ref word when the block moves; returns the node's
        possibly new offset."""
        new_off = self._put_ref_unlinked(off, a, ref)
        if new_off != off:
            self._patch_parent(pidx, new_off)
        return new_off

    def _put_ref_unlinked(self, off: int, a: int, ref: int) -> int:
        """Insert-or-replace the slot at address ``a`` (the arena twin of
        ``Node.put_slot``); returns the node's possibly new offset.  The
        caller owns re-linking when the block moves."""
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        n_sub = c & 2097151
        n_post = (c >> 21) & 2097151
        target = off
        if h & 4096:
            idx = off + 2 + k + a
            prev = words[idx]
            words[idx] = ref
        else:
            n = n_sub + n_post
            base = off + 2 + k
            cap = 1 << ((h >> 13) & 63)
            pos = bisect_left(words, a, base, base + cap)
            if pos < base + cap and words[pos] == a:
                idx = pos + cap
                prev = words[idx]
                words[idx] = ref
            else:
                prev = 0
                if n < cap:
                    # Shift the [pos, n) tail of both regions up one.
                    end = base + n
                    if pos != end:
                        words[pos + 1 : end + 1] = words[pos:end]
                        words[pos + cap + 1 : end + cap + 1] = words[
                            pos + cap : end + cap
                        ]
                    words[pos] = a
                    words[pos + cap] = ref
                else:
                    # Grow into the next size class: copy with the new
                    # pair spliced in, recycle the old block.
                    cap_log = (h >> 13) & 63
                    ncap = 2 * cap
                    noff = arena.alloc_block(lhc_block_len(k, ncap))
                    words = arena.words
                    nbase = noff + 2 + k
                    words[noff:nbase] = words[off:base]
                    i = pos - base
                    if i:
                        words[nbase : nbase + i] = words[base:pos]
                        words[nbase + ncap : nbase + ncap + i] = words[
                            base + cap : pos + cap
                        ]
                    words[nbase + i] = a
                    words[nbase + ncap + i] = ref
                    if i != n:
                        words[nbase + i + 1 : nbase + n + 1] = words[
                            pos : base + n
                        ]
                        words[
                            nbase + ncap + i + 1 : nbase + ncap + n + 1
                        ] = words[pos + cap : base + cap + n]
                    words[
                        nbase + n + 1 : nbase + ncap
                    ] = arena.sentinel_run(ncap - n - 1)
                    arena.free_block(off, lhc_block_len(k, cap))
                    words[noff] = (words[noff] & ~(63 << CAP_SHIFT)) | (
                        (cap_log + 1) << CAP_SHIFT
                    )
                    target = noff
        if prev:
            if prev & 1:
                n_sub -= 1
            else:
                n_post -= 1
        if ref & 1:
            n_sub += 1
        else:
            n_post += 1
        words[target + 1] = n_sub | (n_post << 21)
        # Inline no-switch fast path; the slow helper re-derives state.
        h = words[target]
        if h & 4096:
            if self._want_hc(n_sub, n_post, h & 63, True):
                return target
        elif not self._want_hc(n_sub, n_post, h & 63, False):
            cap_log = (h >> 13) & 63
            if cap_log <= 1 or n_sub + n_post > (1 << cap_log) >> 2:
                return target
        return self._maybe_switch_off(target)

    def _remove_ref(self, off: int, pidx: int, a: int) -> int:
        """Clear the (occupied) slot at address ``a``; returns the node's
        possibly new offset (the arena twin of ``Node.remove_slot``)."""
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        n_sub = c & 2097151
        n_post = (c >> 21) & 2097151
        if h & 4096:
            idx = off + 2 + k + a
            prev = words[idx]
            words[idx] = 0
        else:
            n = n_sub + n_post
            base = off + 2 + k
            cap = 1 << ((h >> 13) & 63)
            pos = bisect_left(words, a, base, base + cap)
            end = base + n
            prev = words[pos + cap]
            if pos + 1 != end:
                words[pos : end - 1] = words[pos + 1 : end]
                words[pos + cap : end + cap - 1] = words[
                    pos + cap + 1 : end + cap
                ]
            words[end - 1] = arena.sentinel
        if prev & 1:
            n_sub -= 1
        else:
            n_post -= 1
        words[off + 1] = n_sub | (n_post << 21)
        new_off = self._maybe_switch_off(off)
        if new_off != off:
            self._patch_parent(pidx, new_off)
        return new_off

    # -- put ---------------------------------------------------------------

    def _put_root(self, key: Tuple[int, ...], value: Any) -> None:
        """First insert: create the root and store one entry."""
        arena = self._arena
        k = self._dims
        post = self._width - 1
        off = self._alloc_lhc(post, 0, (0,) * k, 1)
        self._root_off = off
        a = 0
        for v in key:
            a = (a << 1) | ((v >> post) & 1)
        self._put_ref(
            off, -1, a, arena.new_entry(key, arena.store_value(value)) << 1
        )
        self._size = 1
        return None

    def _put_new_entry(
        self,
        off: int,
        pidx: int,
        h: int,
        pos: int,
        a: int,
        key: Tuple[int, ...],
        value: Any,
    ) -> None:
        """Insert a fresh entry into node ``off`` (header ``h``) at the
        slot position the descent already located: for an HC node ``pos``
        is the ref word's index, for an LHC node the bisect insertion
        point inside the address region."""
        arena = self._arena
        words = arena.words
        # Inline ``NodeArena.new_entry_val`` (the insert hot path).
        if value is None:
            vref = 0
        else:
            vfree = arena.value_free
            if vfree:
                vref = vfree.pop()
                arena.values[vref] = value
            else:
                vref = len(arena.values)
                arena.values.append(value)
        entries = arena.entries
        eoff = arena.entry_free
        if eoff:
            arena.entry_free = entries[eoff]
            i = eoff
            for v in key:
                entries[i] = v
                i += 1
            entries[i] = vref
        else:
            eoff = len(entries)
            entries.extend(key)
            entries.append(vref)
        arena.live_entries += 1
        ref = eoff << 1
        c = words[off + 1]
        n_sub = c & 2097151
        n_post = ((c >> 21) & 2097151) + 1
        target = off
        if h & 4096:
            words[pos] = ref
        else:
            k = self._dims
            n = n_sub + n_post - 1
            base = off + 2 + k
            cap = 1 << ((h >> 13) & 63)
            if n < cap:
                end = base + n
                if pos != end:
                    if pos + 1 == end:
                        words[end] = words[pos]
                        words[end + cap] = words[pos + cap]
                    else:
                        words[pos + 1 : end + 1] = words[pos:end]
                        words[pos + cap + 1 : end + cap + 1] = words[
                            pos + cap : end + cap
                        ]
                words[pos] = a
                words[pos + cap] = ref
            else:
                # Grow into the next size class: copy with the new pair
                # spliced in, recycle the old block.
                cap_log = (h >> 13) & 63
                ncap = 2 * cap
                noff = arena.alloc_block(lhc_block_len(k, ncap))
                words = arena.words
                nbase = noff + 2 + k
                words[noff:nbase] = words[off:base]
                i = pos - base
                if i:
                    words[nbase : nbase + i] = words[base:pos]
                    words[nbase + ncap : nbase + ncap + i] = words[
                        base + cap : pos + cap
                    ]
                words[nbase + i] = a
                words[nbase + ncap + i] = ref
                if i != n:
                    words[nbase + i + 1 : nbase + n + 1] = words[
                        pos : base + n
                    ]
                    words[
                        nbase + ncap + i + 1 : nbase + ncap + n + 1
                    ] = words[pos + cap : base + cap + n]
                words[
                    nbase + n + 1 : nbase + ncap
                ] = arena.sentinel_run(ncap - n - 1)
                arena.free_block(off, lhc_block_len(k, cap))
                words[noff] = (words[noff] & ~(63 << CAP_SHIFT)) | (
                    (cap_log + 1) << CAP_SHIFT
                )
                target = noff
        words[target + 1] = n_sub | (n_post << 21)
        self._size += 1
        # Inline no-switch fast path; the slow helper re-derives state.
        if h & 4096:
            if self._want_hc(n_sub, n_post, h & 63, True):
                return None
        elif not self._want_hc(n_sub, n_post, h & 63, False):
            if n_post + n_sub > (1 << ((h >> 13) & 63)) >> 2:
                new_off = target
                if new_off != off:
                    self._patch_parent(pidx, new_off)
                return None
        new_off = self._maybe_switch_off(target)
        if new_off != off:
            self._patch_parent(pidx, new_off)
        return None

    def _replace_value(self, e: int, value: Any) -> Any:
        """Overwrite entry ``e``'s value; returns the previous value."""
        arena = self._arena
        entries = arena.entries
        i = e + self._dims
        vref = entries[i]
        if vref:
            previous = arena.values[vref]
            if value is not None:
                arena.values[vref] = value
            else:
                arena.drop_value(vref)
                entries[i] = 0
            return previous
        if value is not None:
            entries[i] = arena.store_value(value)
        return None

    def _split_entry(
        self,
        off: int,
        pidx: int,
        idx: int,
        h: int,
        old_ref: int,
        a_old: int,
        a_new: int,
        key: Tuple[int, ...],
        value: Any,
        conflict: int,
    ) -> None:
        """``_split`` specialised for a displaced *entry* whose mid-node
        addresses the caller already extracted (the specialized kernel
        holds both keys unpacked in locals, so recomputing them here
        would re-read the slab)."""
        arena = self._arena
        words = arena.words
        k = self._dims
        shift = conflict + 1
        # Inline ``NodeArena.new_entry_val`` (the insert hot path).
        if value is None:
            vref = 0
        else:
            vfree = arena.value_free
            if vfree:
                vref = vfree.pop()
                arena.values[vref] = value
            else:
                vref = len(arena.values)
                arena.values.append(value)
        entries = arena.entries
        eoff = arena.entry_free
        if eoff:
            arena.entry_free = entries[eoff]
            i = eoff
            for v in key:
                entries[i] = v
                i += 1
            entries[i] = vref
        else:
            eoff = len(entries)
            entries.extend(key)
            entries.append(vref)
        arena.live_entries += 1
        new_ref = eoff << 1
        # Replay the object engine's two put_slot decisions (displaced
        # entry first, new entry second); the second is the final shape.
        # The pair is a pure function of the conflict level.
        ww = self._split_want.get(conflict)
        if ww is None:
            w1 = self._want_hc(0, 1, conflict, False)
            ww = (w1, self._want_hc(0, 2, conflict, w1))
            self._split_want[conflict] = ww
        w1, w2 = ww
        if _rt.enabled:
            if w1:
                _probes.switch_to_hc.inc()
            if w2 != w1:
                (_probes.switch_to_hc if w2 else _probes.switch_to_lhc).inc()
            _recorder.record("split", level=conflict)
        infix_bits = ((h & 63) - 1 - conflict) << 6
        if w2:
            mid = arena.alloc_block(hc_block_len(k))
            words[mid] = conflict | infix_bits | 4096
            base = mid + 2 + k
            words[base + a_old] = old_ref
            words[base + a_new] = new_ref
        else:
            # Inline alloc of the cap-2 LHC block: every one of its
            # ``2 + k + 4`` words is written below, so recycled blocks
            # need no zero-fill and ``alloc_block``'s is skipped.
            length = k + 6
            free_map = arena.node_free
            mid = free_map.get(length, 0)
            if mid:
                free_map[length] = words[mid + 1]
            else:
                mid = len(words)
                words.frombytes(bytes(8 * length))
            arena.live_node_words += length
            arena.n_nodes += 1
            words[mid] = conflict | infix_bits | 8192
            base = mid + 2 + k
            if a_old < a_new:
                words[base] = a_old
                words[base + 1] = a_new
                words[base + 2] = old_ref
                words[base + 3] = new_ref
            else:
                words[base] = a_new
                words[base + 1] = a_old
                words[base + 2] = new_ref
                words[base + 3] = old_ref
        words[mid + 1] = 2 << 21
        i = mid + 2
        for v in key:
            words[i] = (v >> shift) << shift
            i += 1
        # Replacing the entry's ref word with the mid node flips one
        # postfix slot into a sub-node slot; only then can the parent's
        # representation decision change (see ``_split``).
        words[idx] = (mid << 1) | 1
        c = words[off + 1]
        n_sub = (c & 2097151) + 1
        n_post = ((c >> 21) & 2097151) - 1
        words[off + 1] = n_sub | (n_post << 21)
        if h & 4096:
            switch = not self._want_hc(n_sub, n_post, h & 63, True)
        else:
            switch = self._want_hc(n_sub, n_post, h & 63, False)
        if switch:
            new_off = self._maybe_switch_off(off)
            if new_off != off:
                self._patch_parent(pidx, new_off)
        self._size += 1
        return None

    def _split(
        self,
        off: int,
        pidx: int,
        idx: int,
        h: int,
        old_ref: int,
        key: Tuple[int, ...],
        value: Any,
        conflict: int,
    ) -> None:
        """Splice a new node at bit position ``conflict`` between node
        ``off`` (header ``h``) and the slot at ref-word index ``idx`` (a
        sub-node whose prefix diverges, or an entry with another key)."""
        arena = self._arena
        words = arena.words
        k = self._dims
        parent_post = h & 63
        shift = conflict + 1
        a_old = 0
        a_new = 0
        if old_ref & 1:
            child = old_ref >> 1
            ch = words[child]
            # The displaced sub-node keeps its post_len; only the infix
            # between it and the new mid node shrinks.
            words[child] = (ch & ~(63 << 6)) | (
                (conflict - 1 - (ch & 63)) << 6
            )
            src = child + 2
            d = 0
            for v in key:
                a_old = (a_old << 1) | ((words[src + d] >> conflict) & 1)
                a_new = (a_new << 1) | ((v >> conflict) & 1)
                d += 1
            old_is_node = 1
        else:
            e = old_ref >> 1
            entries = arena.entries
            d = 0
            for v in key:
                a_old = (a_old << 1) | ((entries[e + d] >> conflict) & 1)
                a_new = (a_new << 1) | ((v >> conflict) & 1)
                d += 1
            old_is_node = 0
        new_ref = arena.new_entry_val(key, value) << 1
        # The object engine fills the mid node with two put_slot calls
        # (displaced slot first, new entry second), re-deciding HC/LHC
        # after each; replay those two decisions, then write the final
        # shape in a single pass.
        w1 = self._want_hc(old_is_node, 1 - old_is_node, conflict, False)
        w2 = self._want_hc(old_is_node, 2 - old_is_node, conflict, w1)
        if _rt.enabled:
            if w1:
                _probes.switch_to_hc.inc()
            if w2 != w1:
                (_probes.switch_to_hc if w2 else _probes.switch_to_lhc).inc()
            _recorder.record("split", level=conflict)
        infix_bits = (parent_post - 1 - conflict) << 6
        if w2:
            mid = arena.alloc_block(hc_block_len(k))
            words = arena.words
            words[mid] = conflict | infix_bits | 4096
            base = mid + 2 + k
            words[base + a_old] = old_ref
            words[base + a_new] = new_ref
        else:
            mid = arena.alloc_block(2 + k + 4)  # lhc_block_len(k, cap 2)
            words = arena.words
            words[mid] = conflict | infix_bits | (1 << 13)
            base = mid + 2 + k
            if a_old < a_new:
                words[base] = a_old
                words[base + 1] = a_new
                words[base + 2] = old_ref
                words[base + 3] = new_ref
            else:
                words[base] = a_new
                words[base + 1] = a_old
                words[base + 2] = new_ref
                words[base + 3] = old_ref
        words[mid + 1] = old_is_node | ((2 - old_is_node) << 21)
        i = mid + 2
        for v in key:
            words[i] = (v >> shift) << shift
            i += 1
        # Hook the mid node up by overwriting the displaced slot's ref
        # word in place -- a replace never moves the parent block.  The
        # counts only change when an entry became a sub-node, and only
        # then can the replayed ``put_slot`` decision flip the parent's
        # representation (``Node.put_slot`` re-evaluates it either way,
        # but with unchanged counts the decision is already in force).
        words[idx] = (mid << 1) | 1
        if not old_is_node:
            c = words[off + 1]
            n_sub = (c & 2097151) + 1
            n_post = ((c >> 21) & 2097151) - 1
            words[off + 1] = n_sub | (n_post << 21)
            if h & 4096:
                switch = not self._want_hc(n_sub, n_post, h & 63, True)
            else:
                switch = self._want_hc(n_sub, n_post, h & 63, False)
            if switch:
                new_off = self._maybe_switch_off(off)
                if new_off != off:
                    self._patch_parent(pidx, new_off)
        self._size += 1
        return None

    def _put_above(
        self, key: Tuple[int, ...], value: Any, conflict: int
    ) -> None:
        """Second pass of the blind PATRICIA insert: the specialized
        descent skipped the per-level infix checks and discovered -- from
        one full comparison at the bottom -- that ``key`` diverges from
        the tree at bit ``conflict``, above the node it reached.  Walk
        down again (addresses only) to the slot whose infix spans that
        bit and split there.

        ``conflict`` can never equal a path node's ``post_len`` (the
        first pass descended by the key's own address bits, so the tree
        agrees with the key at every address bit along the path), which
        is why the strict ``<`` comparison below finds exactly the slot
        the eagerly-checking descent would have split.
        """
        arena = self._arena
        words = arena.words
        k = self._dims
        off = self._root_off
        pidx = -1
        h = words[off]
        while True:
            post = h & 63
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            if h & 4096:
                idx = off + 2 + k + a
            elif h < 16384:
                base = off + 2 + k
                idx = base + 2 if words[base] == a else base + 3
            else:
                base = off + 2 + k
                end = base + (1 << ((h >> 13) & 63))
                pos = bisect_left(words, a, base, end)
                idx = pos + end - base
            ref = words[idx]
            child = ref >> 1
            ch = words[child]
            if (ch & 63) < conflict:
                return self._split(
                    off, pidx, idx, h, ref, key, value, conflict
                )
            pidx = idx
            off = child
            h = ch

    def put(self, key: Sequence[int], value: Any = None) -> Any:
        self._mut_epoch += 1
        spec = self._spec
        if spec is not None and not _rt.enabled:
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            return spec.arena_put(self, checked, value)
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_put.inc()
            _heat.record(key, self._width, "put")
        arena = self._arena
        words = arena.words
        k = self._dims
        off = self._root_off
        if not off:
            self._put_root(key, value)
            if obs:
                self._probe_write(depth=1, created=1, inserted=True)
            return None
        pidx = -1
        depth = 1
        while True:
            h = words[off]
            post = h & 63
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            if h & 4096:
                idx = off + 2 + k + a
                ref = words[idx]
                pos = idx
            else:
                base = off + 2 + k
                cap = 1 << ((h >> 13) & 63)
                pos = bisect_left(words, a, base, base + cap)
                if pos < base + cap and words[pos] == a:
                    idx = pos + cap
                    ref = words[idx]
                else:
                    ref = 0
                    idx = -1
            if not ref:
                self._put_new_entry(off, pidx, h, pos, a, key, value)
                if obs:
                    self._probe_write(depth, created=0, inserted=True)
                return None
            if ref & 1:
                child = ref >> 1
                shift = (words[child] & 63) + 1
                conflict = -1
                src = child + 2
                d = 0
                for v in key:
                    diff = (v >> shift) ^ (words[src + d] >> shift)
                    if diff:
                        pos = diff.bit_length() - 1 + shift
                        if pos > conflict:
                            conflict = pos
                    d += 1
                if conflict < 0:
                    pidx = idx
                    off = child
                    depth += 1
                    continue
                self._split(off, pidx, idx, h, ref, key, value, conflict)
                if obs:
                    self._probe_write(depth + 1, created=1, inserted=True)
                return None
            e = ref >> 1
            entries = arena.entries
            d = 0
            conflict = -1
            for v in key:
                diff = entries[e + d] ^ v
                if diff:
                    pos = diff.bit_length() - 1
                    if pos > conflict:
                        conflict = pos
                d += 1
            if conflict < 0:
                previous = self._replace_value(e, value)
                if obs:
                    self._probe_write(depth, created=0, inserted=False)
                return previous
            self._split(off, pidx, idx, h, ref, key, value, conflict)
            if obs:
                self._probe_write(depth + 1, created=1, inserted=True)
            return None

    # -- point reads -------------------------------------------------------

    def _find_entry_off(self, key: Tuple[int, ...]) -> int:
        """Entry record offset for ``key``, or -1 (generic descent).

        Blind PATRICIA descent: infix checks are skipped on the way down
        -- a mismatch just steers into a subtree that cannot contain the
        key, and the full-key comparison at the reached entry (or an
        empty slot) settles membership.  ``post_len`` strictly shrinks,
        so the walk terminates regardless.
        """
        arena = self._arena
        words = arena.words
        k = self._dims
        off = self._root_off
        if not off:
            return -1
        h = words[off]
        while True:
            post = h & 63
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            if h & 4096:
                ref = words[off + 2 + k + a]
            else:
                base = off + 2 + k
                end = base + (1 << ((h >> 13) & 63))
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    ref = words[pos + end - base]
                else:
                    return -1
            if not ref:
                return -1
            if ref & 1:
                off = ref >> 1
                h = words[off]
                continue
            e = ref >> 1
            entries = arena.entries
            d = 0
            for v in key:
                if entries[e + d] != v:
                    return -1
                d += 1
            return e

    def _find_entry_counted_off(self, key: Tuple[int, ...]) -> int:
        """Instrumented twin of :meth:`_find_entry_off` (descent probes
        mirror the object engine's counted find)."""
        arena = self._arena
        words = arena.words
        k = self._dims
        off = self._root_off
        nodes = 0
        found = -1
        while off:
            nodes += 1
            h = words[off]
            post = h & 63
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            if h & 4096:
                ref = words[off + 2 + k + a]
            else:
                base = off + 2 + k
                end = base + (1 << ((h >> 13) & 63))
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    ref = words[pos + end - base]
                else:
                    ref = 0
            if not ref:
                break
            if ref & 1:
                child = ref >> 1
                shift = (words[child] & 63) + 1
                src = child + 2
                ok = True
                d = 0
                for v in key:
                    if (v >> shift) != (words[src + d] >> shift):
                        ok = False
                        break
                    d += 1
                if not ok:
                    break
                off = child
                continue
            e = ref >> 1
            entries = arena.entries
            same = True
            d = 0
            for v in key:
                if entries[e + d] != v:
                    same = False
                    break
                d += 1
            if same:
                found = e
            break
        _probes.point_nodes_visited.inc(nodes)
        _probes.point_slots_scanned.inc(nodes)
        return found

    def get(self, key: Sequence[int], default: Any = None) -> Any:
        spec = self._spec
        arena = self._arena
        if spec is not None and not _rt.enabled:
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            e = spec.arena_find(self, checked)
            if e < 0:
                return default
            vref = arena.entries[e + self._dims]
            return arena.values[vref]
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_get.inc()
            t0 = _perf_counter()
            e = self._find_entry_counted_off(key)
            _heat.record(
                key, self._width, "get", _perf_counter() - t0
            )
        else:
            e = self._find_entry_off(key)
        if e < 0:
            return default
        vref = arena.entries[e + self._dims]
        return arena.values[vref]

    def get_checked(self, key: Tuple[int, ...], default: Any = None) -> Any:
        spec = self._spec
        if spec is not None:
            e = spec.arena_find(self, key)
        else:
            e = self._find_entry_off(key)
        if e < 0:
            return default
        arena = self._arena
        return arena.values[arena.entries[e + self._dims]]

    def contains(self, key: Sequence[int]) -> bool:
        spec = self._spec
        if spec is not None and not _rt.enabled:
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            return spec.arena_find(self, checked) >= 0
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_contains.inc()
            _heat.record(key, self._width, "contains")
            return self._find_entry_counted_off(key) >= 0
        return self._find_entry_off(key) >= 0

    # -- remove ------------------------------------------------------------

    def remove(self, key: Sequence[int], default: Any = _MISSING) -> Any:
        self._mut_epoch += 1
        spec = self._spec
        if spec is not None and not _rt.enabled:
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            value = spec.arena_remove(self, checked)
            if value is not ARENA_REMOVE_MISS:
                return value
            if default is _MISSING:
                raise KeyError(f"key not found: {checked}")
            return default
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_remove.inc()
            _heat.record(key, self._width, "remove")
        arena = self._arena
        words = arena.words
        k = self._dims
        off = self._root_off
        pidx = -1
        parent_off = 0
        parent_a = -1
        parent_pidx = -1
        depth = 1
        while off:
            h = words[off]
            post = h & 63
            a = 0
            for v in key:
                a = (a << 1) | ((v >> post) & 1)
            if h & 4096:
                idx = off + 2 + k + a
                ref = words[idx]
            else:
                base = off + 2 + k
                cap = 1 << ((h >> 13) & 63)
                pos = bisect_left(words, a, base, base + cap)
                if pos < base + cap and words[pos] == a:
                    idx = pos + cap
                    ref = words[idx]
                else:
                    ref = 0
                    idx = -1
            if not ref:
                break
            if ref & 1:
                child = ref >> 1
                shift = (words[child] & 63) + 1
                src = child + 2
                ok = True
                d = 0
                for v in key:
                    if (v >> shift) != (words[src + d] >> shift):
                        ok = False
                        break
                    d += 1
                if not ok:
                    break
                parent_off = off
                parent_a = a
                parent_pidx = pidx
                pidx = idx
                off = child
                depth += 1
                continue
            e = ref >> 1
            entries = arena.entries
            same = True
            d = 0
            for v in key:
                if entries[e + d] != v:
                    same = False
                    break
                d += 1
            if not same:
                break
            vref = entries[e + k]
            value = arena.load_value(vref)
            arena.drop_value(vref)
            arena.free_entry(e)
            off = self._remove_ref(off, pidx, a)
            self._size -= 1
            self._merge_if_underfull_arena(
                off, parent_off, parent_a, parent_pidx
            )
            if obs:
                _probes.write_nodes_visited.inc(depth)
                _probes.write_slots_scanned.inc(depth)
            return value
        if default is _MISSING:
            raise KeyError(f"key not found: {key}")
        return default

    def _remove_hit(
        self,
        off: int,
        pidx: int,
        eoff: int,
        idx: int,
        parent_off: int,
        parent_a: int,
        parent_pidx: int,
    ) -> Any:
        """Finish a delete whose hit the specialized blind-descent
        kernel already located: release the value and entry record,
        splice the slot out of ``off`` (in-slab LHC shift / table
        shrink), and collapse ``off`` if underfull -- all without
        materialising a single shadow object.  ``idx`` is the absolute
        ref-word index the kernel's probe landed on, so no second
        address search happens here; the common exit (node keeps >= 2
        slots, representation unchanged) is a single straight-line
        pass with the ``_want_hc`` memo probed inline."""
        arena = self._arena
        k = self._dims
        entries = arena.entries
        vref = entries[eoff + k]
        value = arena.values[vref]
        if vref:
            arena.values[vref] = None
            arena.value_free.append(vref)
        entries[eoff] = arena.entry_free
        arena.entry_free = eoff
        arena.live_entries -= 1
        words = arena.words
        h = words[off]
        c = words[off + 1]
        n_sub = c & 2097151
        n_post = (c >> 21) & 2097151
        prev = words[idx]
        hc = h & 4096
        if hc:
            words[idx] = 0
        else:
            cap = 1 << ((h >> 13) & 63)
            pos = idx - cap
            end = off + 2 + k + n_sub + n_post
            if pos + 1 != end:
                words[pos : end - 1] = words[pos + 1 : end]
                words[pos + cap : end + cap - 1] = words[
                    pos + cap + 1 : end + cap
                ]
            words[end - 1] = arena.sentinel
        if prev & 1:
            n_sub -= 1
        else:
            n_post -= 1
        words[off + 1] = n_sub | (n_post << 21)
        self._size -= 1
        post = h & 63
        wkey = (((n_sub << 21) | n_post) << 7) | (post << 1) | (
            1 if hc else 0
        )
        want = self._hc_want.get(wkey)
        if want is None:
            want = self._want_hc(n_sub, n_post, post, bool(hc))
        n = n_sub + n_post
        if want != bool(hc):
            new_off = self._maybe_switch_off(off)
            if new_off != off:
                self._patch_parent(pidx, new_off)
                off = new_off
        elif not hc:
            cap_log = (h >> 13) & 63
            if cap_log > 1 and n <= (1 << cap_log) >> 2:
                new_off = self._resize_lhc(off, h, n, cap_log - 1)
                self._patch_parent(pidx, new_off)
                off = new_off
        if parent_off and n >= 2:
            return value
        self._merge_if_underfull_arena(off, parent_off, parent_a, parent_pidx)
        return value

    def _merge_if_underfull_arena(
        self, off: int, parent_off: int, parent_a: int, parent_pidx: int
    ) -> None:
        """Collapse ``off`` when deletion left it with fewer than two
        slots (the object engine's ``_merge_if_underfull``, on slabs)."""
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        n = (c & 2097151) + ((c >> 21) & 2097151)
        if not parent_off:
            if n == 0:
                arena.free_block(off, arena.block_len(off))
                self._root_off = 0
                if _rt.enabled:
                    _probes.tree_nodes_merged.inc()
                    _recorder.record("merge", root=True)
            return
        if n >= 2:
            return
        if n == 0:
            raise AssertionError("non-root node lost its last two slots")
        base = off + 2 + k
        if h & 4096:
            survivor = 0
            for i in range(base, base + (1 << k)):
                survivor = words[i]
                if survivor:
                    break
        else:
            survivor = words[base + (1 << ((h >> 13) & 63))]
        if survivor & 1:
            child = survivor >> 1
            ch = words[child]
            words[child] = (ch & ~(63 << 6)) | (
                (((ch >> 6) & 63) + ((h >> 6) & 63) + 1) << 6
            )
        if _rt.enabled:
            _probes.tree_nodes_merged.inc()
            _recorder.record("merge")
        arena.free_block(off, arena.block_len(off))
        self._put_ref(parent_off, parent_pidx, parent_a, survivor)

    # -- iteration and queries ---------------------------------------------

    def items(self) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        from repro.core.kernel import iter_arena_subtree

        off = self._root_off
        if not off:
            return iter(())
        return iter_arena_subtree(self._arena, off)

    def query(
        self,
        box_min: Sequence[int],
        box_max: Sequence[int],
        use_masks: bool = True,
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        from repro.core.kernel import arena_range_scan

        box_min = self._check_key(box_min)
        box_max = self._check_key(box_max)
        if _rt.enabled:
            _probes.ops_query.inc()
            return _heat.timed_iter(
                arena_range_scan(self, box_min, box_max, 0),
                box_min,
                self._width,
                "query",
            )
        # The mask-less ablation engine is object-layout only; the arena
        # scan is mask-guided either way (results are identical).
        return arena_range_scan(self, box_min, box_max, 0)

    def query_approx(
        self,
        box_min: Sequence[int],
        box_max: Sequence[int],
        slack_bits: int,
    ) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        from repro.core.kernel import arena_range_scan

        if slack_bits < 0:
            raise ValueError(f"slack_bits must be >= 0, got {slack_bits}")
        box_min = self._check_key(box_min)
        box_max = self._check_key(box_max)
        if _rt.enabled:
            _probes.ops_query_approx.inc()
            return _heat.timed_iter(
                arena_range_scan(self, box_min, box_max, slack_bits),
                box_min,
                self._width,
                "query",
            )
        return arena_range_scan(self, box_min, box_max, slack_bits)

    def get_many(
        self,
        keys: Sequence[Sequence[int]],
        default: Any = None,
        presorted: bool = False,
    ) -> List[Any]:
        return batch_mod.arena_get_many(self, keys, default, presorted)

    def contains_many(self, keys: Sequence[Sequence[int]]) -> List[bool]:
        return batch_mod.arena_contains_many(self, keys)

    def query_many(
        self,
        boxes: Sequence[Tuple[Sequence[int], Sequence[int]]],
        use_masks: bool = True,
    ) -> List[List[Tuple[Tuple[int, ...], Any]]]:
        return batch_mod.arena_query_many(self, boxes, use_masks)

    def knn(
        self, key: Sequence[int], n: int = 1, *, bound: Any = None
    ) -> List[Tuple[Tuple[int, ...], Any]]:
        spec = self._spec
        if spec is not None and not _rt.enabled:
            checked = spec.check_key(key) if self._uniform else None
            if checked is None:
                checked = self._check_key(key)
            return spec.arena_knn(self, checked, n, bound)
        key = self._check_key(key)
        obs = _rt.enabled
        if obs:
            _probes.ops_knn.inc()
            t0 = _perf_counter()
        result = [
            (found_key, value)
            for _, found_key, value in knn_mod.arena_knn_iter(
                self,
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
        key = self._check_key(key)
        if _rt.enabled:
            _probes.ops_knn.inc()
            _heat.record(key, self._width, "knn")
        for _, found_key, value in knn_mod.arena_knn_iter(
            self,
            len(self),
            knn_mod.squared_euclidean_int(key),
            knn_mod.squared_euclidean_region_int(key),
            self._morton_key(),
        ):
            yield found_key, value

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        self._mut_epoch += 1
        self._arena = NodeArena(self._dims)
        self._root_off = 0
        self._size = 0

    def space_stats(self) -> dict:
        """Slab-level space accounting for the memory report."""
        arena = self._arena
        return {
            "capacity_bytes": arena.capacity_bytes(),
            "live_bytes": arena.live_bytes(),
            "n_nodes": arena.n_nodes,
            "n_entries": arena.live_entries,
            "free_node_words": sum(
                length * len(offs)
                for length, offs in arena.free_block_offsets().items()
            ),
        }

    def check_invariants(self) -> None:
        """Arena-native structural checks (same assertions as the object
        engine, read straight off the slabs), plus slab bookkeeping."""
        arena = self._arena
        words = arena.words
        off = self._root_off
        if not off:
            if self._size != 0:
                raise AssertionError("empty root but non-zero size")
            return
        h = words[off]
        if h & 63 != self._width - 1:
            raise AssertionError("root must sit at post_len == width - 1")
        if (h >> 6) & 63 != 0:
            raise AssertionError("root must have an empty infix")
        total = self._count_and_check_arena(off, -1)
        if total != self._size:
            raise AssertionError(
                f"size bookkeeping off: counted {total}, stored {self._size}"
            )
        # Free lists must be disjoint from the reachable node set.
        reachable = set(arena.iter_nodes(off))
        for offs in arena.free_block_offsets().values():
            overlap = reachable.intersection(offs)
            if overlap:
                raise AssertionError(
                    f"freed node offsets still reachable: {sorted(overlap)}"
                )

    def _count_and_check_arena(self, off: int, parent_post: int) -> int:
        arena = self._arena
        words = arena.words
        k = self._dims
        h = words[off]
        c = words[off + 1]
        post = h & 63
        infix = (h >> 6) & 63
        n_sub = c & 2097151
        n_post = (c >> 21) & 2097151
        n = n_sub + n_post
        if parent_post >= 0:
            if n < 2:
                raise AssertionError(f"non-root node with {n} slots")
            if infix != parent_post - 1 - post:
                raise AssertionError(
                    f"infix_len {infix} != expected "
                    f"{parent_post - 1 - post}"
                )
            if not post < parent_post:
                raise AssertionError("post_len must shrink downwards")
        shift = post + 1
        mask = (1 << shift) - 1
        for i in range(off + 2, off + 2 + k):
            if shift < self._width + 1 and words[i] & mask:
                raise AssertionError("prefix has dirty low bits")
        base = off + 2 + k
        pairs: List[Tuple[int, int]] = []
        if h & 4096:
            for a in range(1 << k):
                ref = words[base + a]
                if ref:
                    pairs.append((a, ref))
        else:
            cap = 1 << ((h >> 13) & 63)
            if n > cap:
                raise AssertionError(
                    f"LHC count {n} exceeds table capacity {cap}"
                )
            last = -1
            for i in range(base, base + n):
                a = words[i]
                if a <= last:
                    raise AssertionError("LHC addresses not strictly sorted")
                last = a
                pairs.append((a, words[i + cap]))
            sentinel = arena.sentinel
            for i in range(base + n, base + cap):
                if words[i] != sentinel:
                    raise AssertionError(
                        "unused LHC address slot lost its sentinel"
                    )
        seen_sub = 0
        seen_post = 0
        total = 0
        for a, ref in pairs:
            if ref & 1:
                seen_sub += 1
                child = ref >> 1
                csh = (words[child] & 63) + 1
                src = child + 2
                for d in range(k):
                    if (words[src + d] >> shift) != (
                        words[off + 2 + d] >> shift
                    ):
                        raise AssertionError(
                            "child prefix disagrees with path"
                        )
                    bit = (a >> (k - 1 - d)) & 1
                    if (words[src + d] >> post) & 1 != bit:
                        raise AssertionError(
                            "child prefix disagrees with path"
                        )
                del csh
                total += self._count_and_check_arena(child, post)
            else:
                seen_post += 1
                e = ref >> 1
                entries = arena.entries
                ea = 0
                for d in range(k):
                    v = entries[e + d]
                    ea = (ea << 1) | ((v >> post) & 1)
                    if (v >> shift) != (words[off + 2 + d] >> shift):
                        raise AssertionError("entry outside node region")
                if ea != a:
                    raise AssertionError("entry stored at wrong address")
                total += 1
        if seen_sub != n_sub or seen_post != n_post:
            raise AssertionError(
                f"header slot counts ({n_sub}, {n_post}) disagree with "
                f"table ({seen_sub}, {seen_post})"
            )
        return total

"""Per-(k, width) specialized hot-path kernels.

Every PH-tree operation bottoms out in the same handful of bit
primitives -- hypercube-address extraction, the ``m_L``/``m_U`` mask
arithmetic of Section 3.5, Morton interleaving -- and in pure Python the
generic implementations re-derive shifts, masks, and loop bounds from
``k`` and ``width`` on every call even though both are fixed for the
lifetime of a tree.

This module removes that per-call overhead by *generating* the hot
functions once per ``(k, width)`` shape: the per-dimension loops are
unrolled into straight-line code, the byte lookup tables of
:mod:`repro.encoding.lut` are bound as locals/globals of the generated
code, and all constants (``full = 2**k - 1``, byte shifts of the spread
and compact plans, the root ``post_len``) are baked in as literals.  The
generated functions are exact drop-in twins of the generic engines:

- :attr:`Specialization.find_entry` / :attr:`Specialization.put` mirror
  the point descent of :class:`~repro.core.phtree.PHTree` (the generic
  methods remain as the instrumented and fallback paths),
- :attr:`Specialization.range_scan_plain` /
  :attr:`Specialization.range_scan_instrumented` mirror the flat
  traversal loop of :mod:`repro.core.kernel` line for line -- same
  stack discipline, same mode machine, same probe counters -- with the
  per-dimension mask fusion unrolled,
- :attr:`Specialization.get_many_plain` /
  :attr:`Specialization.get_many_instrumented` mirror the merge-join of
  :mod:`repro.core.batch`,
- :attr:`Specialization.interleave` / :attr:`Specialization.deinterleave`
  / :attr:`Specialization.zkey` are the LUT-driven Morton kernels (the
  kNN tiebreak and batch sort keys),
- :attr:`Specialization.arena_find` / :attr:`Specialization.arena_put` /
  :attr:`Specialization.arena_remove` are the blind-PATRICIA point
  kernels over the :mod:`repro.core.arena` slab layout,
- :attr:`Specialization.arena_range_scan_plain` (+ instrumented twin) /
  :attr:`Specialization.arena_get_many_plain` (+ twin) /
  :attr:`Specialization.arena_knn` are the slab *scan* kernels: the
  same frame machines as the object twins, but each visited node's
  slot window is hoisted into locals with one ``array`` slice per node
  (a single C-loop conversion) instead of boxing a fresh PyLong per
  ``words[i]`` read -- the trick that closes the arena scan gap.

Bit-identical outputs are enforced by the property tests in
``tests/core/test_specialize.py`` and ``tests/obs/test_spec_parity.py``
(results, result *order*, and instrumented probe counts all pinned
against the generic engines).

Specializations are cached in a bounded LRU registry keyed by
``(k, width)`` (:func:`get_spec`), so long-lived servers handling many
tree shapes do not leak generated code: the registry evicts least
recently used shapes beyond :func:`registry_cap`.  Eviction never breaks
live trees -- a :class:`Specialization` is a self-contained bundle of
closures and every tree holds a strong reference to its own.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left
from struct import Struct
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from repro.core.node import Entry, Node
from repro.encoding.interleave import deinterleave as _deinterleave
from repro.encoding.interleave import interleave as _interleave
from repro.encoding.lut import (
    ROW_TABLE_BITS,
    compact_plan,
    row_table,
    spread_plan,
    spread_table,
)
from repro.obs import probes as _probes

__all__ = [
    "MAX_SPECIALIZED_DIMS",
    "Specialization",
    "clear_registry",
    "get_spec",
    "registry_cap",
    "registry_size",
    "set_registry_cap",
    "z_functions",
]

#: Beyond this dimensionality the unrolled code would outgrow its
#: benefit; :func:`get_spec` returns None and callers keep the generic
#: loop-based engines.
MAX_SPECIALIZED_DIMS = 32

#: Returned by :attr:`Specialization.arena_remove` when the key is
#: absent (any object, including None, can be a stored value, so the
#: miss needs a private out-of-band token).
ARENA_REMOVE_MISS = object()

# ---------------------------------------------------------------------------
# Plan-cache accounting (shared by every generated arena scan kernel)
# ---------------------------------------------------------------------------

#: ``[hits, misses, invalidations]`` per generated read kernel.  Misses
#: and invalidations are counted unconditionally (both sit on cold
#: paths); hits are counted only by the *instrumented* twins so the
#: plain kernels stay increment-free per node visit.
PLAN_CACHE_WINDOW = [0, 0, 0]
PLAN_CACHE_GET_MANY = [0, 0, 0]

_plan_cache_events = _probes.registry.gauge(
    "repro_plan_cache_events",
    "Plan-cache activity of the generated arena scan kernels "
    "(hit counting needs obs enabled; misses/invalidations are "
    "always counted).",
    labelnames=("kernel", "event"),
)


def _collect_plan_cache() -> None:
    for kernel, counts in (
        ("window", PLAN_CACHE_WINDOW),
        ("get_many", PLAN_CACHE_GET_MANY),
    ):
        for event, value in zip(
            ("hit", "miss", "invalidation"), counts
        ):
            _plan_cache_events.labels(kernel, event).set(value)


_probes.registry.add_collector("plan_cache", _collect_plan_cache)


def reset_plan_cache_counts() -> None:
    """Zero the plan-cache aggregates (``repro.obs.reset_all``)."""
    for counts in (PLAN_CACHE_WINDOW, PLAN_CACHE_GET_MANY):
        counts[0] = counts[1] = counts[2] = 0


def _plan_invalidated(pc: list, entries: int) -> None:
    """Epoch flush observed by a generated kernel: count it and leave a
    flight-recorder breadcrumb (rare -- once per mutation batch)."""
    pc[2] += 1
    from repro.obs import recorder as _recorder

    _recorder.record("plan_cache_invalidation", entries=entries)


# ---------------------------------------------------------------------------
# Source emission helpers (k-unrolled code fragments)
# ---------------------------------------------------------------------------


def _unpack(prefix: str, source: str, k: int) -> str:
    """``p0, p1, p2 = source`` (with the k == 1 trailing comma)."""
    names = ", ".join(f"{prefix}{d}" for d in range(k))
    if k == 1:
        names += ","
    return f"{names} = {source}"


def _addr_expr(k: int, post: str, v: str = "v") -> str:
    """Hypercube address of the unpacked key at bit position ``post``."""
    if k == 1:
        return f"({v}0 >> {post}) & 1"
    parts = []
    for d in range(k):
        shift = k - 1 - d
        if shift:
            parts.append(f"((({v}{d} >> {post}) & 1) << {shift})")
        else:
            parts.append(f"(({v}{d} >> {post}) & 1)")
    return " | ".join(parts)


def _mismatch_expr(k: int, shift: str, v: str = "v", p: str = "p") -> str:
    """Non-zero iff the key leaves the prefix above ``shift`` (the OR of
    per-dimension XORs, shifted once; its bit_length encodes the
    conflict)."""
    xors = " | ".join(f"({v}{d} ^ {p}{d})" for d in range(k))
    return f"((({xors})) >> {shift})"


def _morton_expr(k: int, width: int, v: str = "v") -> str:
    """Full Morton code of the unpacked key via the byte spread table."""
    if k == 1:
        return f"{v}0"
    terms = []
    for in_shift, _table, out_shift in spread_plan(k, width):
        for d in range(k):
            total = out_shift + (k - 1 - d)
            byte = f"{v}{d} & 255" if in_shift == 0 else (
                f"({v}{d} >> {in_shift}) & 255"
            )
            term = f"_st[{byte}]"
            if total:
                term += f" << {total}"
            terms.append(term)
    return " | ".join(terms)


def _zkey_expr(k: int, width: int, v: str = "v") -> str:
    """Approximate z-order sort key (top byte per dimension), matching
    :func:`repro.core.batch.z_sort_key`."""
    shift = width - 8 if width > 8 else 0
    terms = []
    for d in range(k):
        byte = f"{v}{d} & 255" if shift == 0 else f"({v}{d} >> {shift}) & 255"
        term = f"_st[{byte}]"
        if k - 1 - d:
            term += f" << {k - 1 - d}"
        terms.append(term)
    return " | ".join(terms)


def _classify_child(
    k: int, pad: str, instr: bool, reject_counter: str = "c_noderej"
) -> str:
    """Fused intersection / coverage / mask computation for a child node
    (the unrolled twin of the kernel's ``zip(slot.prefix, bmin, bmax)``
    loop); leaves ``cml``/``cmh``/``inside`` set, ``continue``s the
    enclosing loop on a miss."""
    lines = [f"{pad}inside = True"]
    for d in range(k):
        lines.append(f"{pad}nhi = p{d} | cfree")
        lines.append(f"{pad}lo = bl{d}")
        lines.append(f"{pad}hi = bh{d}")
        lines.append(f"{pad}if hi < p{d} or lo > nhi:")
        if instr:
            lines.append(f"{pad}    {reject_counter} += 1")
        lines.append(f"{pad}    continue")
        lines.append(f"{pad}if p{d} < lo or nhi > hi:")
        lines.append(f"{pad}    inside = False")
        lines.append(f"{pad}if lo < p{d}:")
        lines.append(f"{pad}    lo = p{d}")
        lines.append(f"{pad}if hi > nhi:")
        lines.append(f"{pad}    hi = nhi")
        if d == 0:
            lines.append(f"{pad}cml = (lo >> cpost) & 1")
            lines.append(f"{pad}cmh = (hi >> cpost) & 1")
        else:
            lines.append(f"{pad}cml = (cml << 1) | ((lo >> cpost) & 1)")
            lines.append(f"{pad}cmh = (cmh << 1) | ((hi >> cpost) & 1)")
    return "\n".join(lines)


def _classify_root(k: int, pad: str) -> str:
    """Root mask computation (miss returns: the root is never flushed)."""
    lines = []
    for d in range(k):
        lines.append(f"{pad}nhi = p{d} | free")
        lines.append(f"{pad}lo = bl{d}")
        lines.append(f"{pad}hi = bh{d}")
        lines.append(f"{pad}if hi < p{d} or lo > nhi:")
        lines.append(f"{pad}    return")
        lines.append(f"{pad}if lo < p{d}:")
        lines.append(f"{pad}    lo = p{d}")
        lines.append(f"{pad}if hi > nhi:")
        lines.append(f"{pad}    hi = nhi")
        if d == 0:
            lines.append(f"{pad}ml = (lo >> post) & 1")
            lines.append(f"{pad}mh = (hi >> post) & 1")
        else:
            lines.append(f"{pad}ml = (ml << 1) | ((lo >> post) & 1)")
            lines.append(f"{pad}mh = (mh << 1) | ((hi >> post) & 1)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Generated function sources
# ---------------------------------------------------------------------------


def _emit_check_key(k: int, width: int) -> str:
    types = " and ".join(
        f"v{d}.__class__ is int" for d in range(k)
    )
    acc = " | ".join(f"v{d}" for d in range(k))
    return f"""\
def check_key(key):
    if key.__class__ is not tuple:
        try:
            key = tuple(key)
        except TypeError:
            return None
    if len(key) != {k}:
        return None
    {_unpack('v', 'key', k)}
    if {types}:
        acc = {acc}
        if acc >= 0 and not (acc >> {width}):
            return key
    return None
"""


def _emit_point_helpers(k: int, width: int) -> str:
    return f"""\
def hc_address(key, post):
    {_unpack('v', 'key', k)}
    return {_addr_expr(k, 'post')}


def interleave(key):
    {_unpack('v', 'key', k)}
    return {_morton_expr(k, width)}


def deinterleave(code):
{_emit_deinterleave_body(k, width)}

def zkey(key):
    {_unpack('v', 'key', k)}
    return {_zkey_expr(k, width)}
"""


def _emit_deinterleave_body(k: int, width: int) -> str:
    if k == 1:
        return "    return (code,)\n"
    rows = ROW_TABLE_BITS // k
    if rows:
        # Whole rows per lookup (lut.row_table): the chunks OR into one
        # accumulator holding each dimension in a width-bit field.
        chunk = k * rows
        mask = (1 << chunk) - 1
        terms = []
        for j in range(-(-width // rows)):
            src = "code" if j == 0 else f"(code >> {j * chunk})"
            term = f"_rt[{src} & {mask}]"
            if j:
                term += f" << {j * rows}"
            terms.append(term)
        wmask = (1 << width) - 1
        fields = [f"acc >> {(k - 1) * width}"]
        for d in range(1, k - 1):
            fields.append(f"(acc >> {(k - 1 - d) * width}) & {wmask}")
        fields.append(f"acc & {wmask}")
        return (
            "    acc = " + " | ".join(terms) + "\n"
            f"    return ({', '.join(fields)})\n"
        )
    # k > 12: a row table would exceed 4,096 entries; byte steps per
    # dimension instead.
    lines = []
    for d in range(k):
        shift = k - 1 - d
        src = "code" if shift == 0 else f"(code >> {shift})"
        terms = []
        for j, (in_shift, _table, out_shift) in enumerate(
            compact_plan(k, width)
        ):
            byte = (
                f"{src} & 255"
                if in_shift == 0
                else f"({src} >> {in_shift}) & 255"
            )
            term = f"_ct{j}[{byte}]"
            if out_shift:
                term += f" << {out_shift}"
            terms.append(term)
        lines.append(f"    v{d} = " + " | ".join(terms))
    tup = ", ".join(f"v{d}" for d in range(k))
    lines.append(f"    return ({tup})")
    return "\n".join(lines) + "\n"


def _emit_find_entry(k: int) -> str:
    return f"""\
def find_entry(root, key):
    {_unpack('v', 'key', k)}
    node = root
    node_cls = Node
    while True:
        post = node.post_len
        a = {_addr_expr(k, 'post')}
        cont = node.container
        if cont.is_hc:
            slot = cont._slots[a]
            if slot is None:
                return None
        else:
            addrs = cont._addresses
            pos = bisect_left(addrs, a)
            if pos >= len(addrs) or addrs[pos] != a:
                return None
            slot = cont._slots[pos]
        if slot.__class__ is node_cls:
            shift = slot.post_len + 1
            {_unpack('p', 'slot.prefix', k)}
            if {_mismatch_expr(k, 'shift')}:
                return None
            node = slot
            continue
        return slot if slot.key == key else None
"""


def _emit_put(k: int, width: int) -> str:
    root_post = width - 1
    zeros = ", ".join("0" for _ in range(k))
    if k == 1:
        zeros += ","
    return f"""\
def put(tree, key, value):
    {_unpack('v', 'key', k)}
    node = tree._root
    dims = {k}
    hc_mode = tree._hc_mode
    hyst = tree._hysteresis
    if node is None:
        node = Node({root_post}, 0, ({zeros}))
        node.put_slot(
            {_addr_expr(k, str(root_post))},
            Entry(key, value), dims, hc_mode, hyst,
        )
        tree._root = node
        tree._size = 1
        return None
    node_cls = Node
    while True:
        post = node.post_len
        a = {_addr_expr(k, 'post')}
        cont = node.container
        if cont.is_hc:
            slot = cont._slots[a]
        else:
            addrs = cont._addresses
            pos = bisect_left(addrs, a)
            slot = (
                cont._slots[pos]
                if pos < len(addrs) and addrs[pos] == a
                else None
            )
        if slot is None:
            node.put_slot(a, Entry(key, value), dims, hc_mode, hyst)
            tree._size += 1
            return None
        if slot.__class__ is node_cls:
            shift = slot.post_len + 1
            {_unpack('p', 'slot.prefix', k)}
            diff = {_mismatch_expr(k, 'shift')}
            if not diff:
                node = slot
                continue
            conflict = diff.bit_length() - 1 + shift
            mid = tree._new_split_node(node, key, conflict)
            slot.infix_len = conflict - 1 - slot.post_len
            mid.put_slot(
                hc_address(slot.prefix, conflict), slot,
                dims, hc_mode, hyst,
            )
            mid.put_slot(
                {_addr_expr(k, 'conflict')}, Entry(key, value),
                dims, hc_mode, hyst,
            )
            node.put_slot(a, mid, dims, hc_mode, hyst)
            tree._size += 1
            return None
        entry = slot
        ekey = entry.key
        if ekey == key:
            previous = entry.value
            entry.value = value
            return previous
        {_unpack('e', 'ekey', k)}
        diff = {" | ".join(f"(v{d} ^ e{d})" for d in range(k))}
        conflict = diff.bit_length() - 1
        mid = tree._new_split_node(node, key, conflict)
        mid.put_slot(
            {_addr_expr(k, 'conflict', 'e')}, entry, dims, hc_mode, hyst,
        )
        mid.put_slot(
            {_addr_expr(k, 'conflict')}, Entry(key, value),
            dims, hc_mode, hyst,
        )
        node.put_slot(a, mid, dims, hc_mode, hyst)
        tree._size += 1
        return None
"""


def _emit_arena_find(k: int) -> str:
    """Unrolled point descent over the arena slab layout (see
    :mod:`repro.core.arena` for the header/record format; the numeric
    literals below are the header field extractions).  Blind PATRICIA
    descent: no infix checks on the way down, the full-key comparison
    at the reached entry settles membership.  Returns the entry record
    offset, or -1."""
    entry_test = " and ".join(
        f"entries[eoff + {d}] == v{d}" if d else "entries[eoff] == v0"
        for d in range(k)
    )
    return f"""\
def arena_find(tree, key):
    {_unpack('v', 'key', k)}
    arena = tree._arena
    words = arena.words
    off = tree._root_off
    if not off:
        return -1
    h = words[off]
    while True:
        post = h & 63
        a = {_addr_expr(k, 'post')}
        if h >= 16384:
            # LHC with cap >= 4 (upper levels, visited on every walk):
            # HC headers carry cap_log 0, so they always test below.
            base = off + {2 + k}
            cap = 1 << ((h >> 13) & 63)
            end = base + cap
            if words[end - 1] == cap - 1:
                # Address-complete table: ``cap`` sorted distinct
                # addresses ending in ``cap - 1`` are exactly 0..cap-1,
                # so the address row is the identity -- index directly.
                if a < cap:
                    ref = words[end + a]
                else:
                    return -1
            else:
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    ref = words[pos + cap]
                else:
                    return -1
        elif h & 4096:
            ref = words[off + {2 + k} + a]
        else:
            # cap_log == 1: the two-slot table every split starts with.
            base = off + {2 + k}
            if words[base] == a:
                ref = words[base + 2]
            elif words[base + 1] == a:
                ref = words[base + 3]
            else:
                return -1
        if not ref:
            return -1
        if ref & 1:
            off = ref >> 1
            h = words[off]
            continue
        eoff = ref >> 1
        entries = arena.entries
        if {entry_test}:
            return eoff
        return -1
"""


def _emit_arena_put(k: int, width: int) -> str:
    """Unrolled write descent over the arena slab layout.  The descent
    is *blind* (PATRICIA-style, like ``arena_find``): per-level infix
    checks are skipped and a single full comparison at the bottom -- the
    reached entry's key, or the reached node's prefix when the slot is
    empty -- recovers the highest conflicting bit.  A conflict below the
    reached node splits right there; a conflict above it hands off to
    ``tree._put_above`` for a short second pass.  Structural mutations
    delegate to the shared slab helpers (``_put_new_entry`` / ``_split``
    / ``_replace_value``), which reallocate blocks and patch the parent
    ref word at ``pidx``."""
    prefix_loads = "\n".join(
        f"    p{d} = words[off + {2 + d}]" for d in range(k)
    )
    prefix_diff = " | ".join(f"(v{d} ^ p{d})" for d in range(k))
    entry_loads = "\n".join(
        f"        e{d} = entries[eoff + {d}]"
        if d
        else "        e0 = entries[eoff]"
        for d in range(k)
    )
    entry_diff = " | ".join(f"(v{d} ^ e{d})" for d in range(k))
    return f"""\
def arena_put(tree, key, value):
    {_unpack('v', 'key', k)}
    off = tree._root_off
    if not off:
        return tree._put_root(key, value)
    arena = tree._arena
    words = arena.words
    pidx = -1
    h = words[off]
    while True:
        post = h & 63
        a = {_addr_expr(k, 'post')}
        if h >= 16384:
            # LHC with cap >= 4 (upper levels, visited on every walk):
            # HC headers carry cap_log 0, so they always test below.
            base = off + {2 + k}
            cap = 1 << ((h >> 13) & 63)
            end = base + cap
            if words[end - 1] == cap - 1:
                # Address-complete table: the address row is the
                # identity (see ``arena_find``) -- index directly.  A
                # miss (a >= cap) inserts after every present address.
                if a < cap:
                    idx = end + a
                    ref = words[idx]
                else:
                    pos = end
                    break
            else:
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    idx = pos + cap
                    ref = words[idx]
                else:
                    break
        elif h & 4096:
            idx = off + {2 + k} + a
            ref = words[idx]
            if not ref:
                pos = idx
                break
        else:
            # cap_log == 1: the two-slot table every split starts with.
            base = off + {2 + k}
            b0 = words[base]
            if b0 == a:
                idx = base + 2
                ref = words[idx]
            else:
                b1 = words[base + 1]
                if b1 == a:
                    idx = base + 3
                    ref = words[idx]
                else:
                    pos = base if b0 > a else (base + 1 if b1 > a else base + 2)
                    break
        if ref & 1:
            off = ref >> 1
            pidx = idx
            h = words[off]
            continue
        eoff = ref >> 1
        entries = arena.entries
{entry_loads}
        diff = {entry_diff}
        if not diff:
            return tree._replace_value(eoff, value)
        conflict = diff.bit_length() - 1
        if conflict < post:
            return tree._split_entry(
                off, pidx, idx, h, ref,
                {_addr_expr(k, 'conflict', 'e')},
                {_addr_expr(k, 'conflict')},
                key, value, conflict,
            )
        return tree._put_above(key, value, conflict)
    # Empty slot: settle the skipped infix checks against this node's
    # prefix (it encodes the whole path above ``post``).
    shift = post + 1
{prefix_loads}
    diff = ({prefix_diff}) >> shift
    if not diff:
        return tree._put_new_entry(off, pidx, h, pos, a, key, value)
    return tree._put_above(key, value, diff.bit_length() - 1 + shift)
"""


def _emit_range_scan(k: int, instr: bool) -> str:
    """The unrolled twin of ``repro.core.kernel._range_scan_plain`` (or,
    with ``instr``, of ``_range_scan_instrumented``): same flat loop,
    same frame tuples, same mode machine and counter placement -- only
    the per-dimension zip-loops are replaced by straight-line code."""
    name = "range_scan_instrumented" if instr else "range_scan_plain"
    full = (1 << k) - 1
    I = "    " if instr else ""  # noqa: E741 - template indent shim

    lines = [f"def {name}(root, box_min, box_max, slack_bits=0):"]
    emit = lines.append
    emit("    if root is None:")
    emit("        return")
    emit(f"    {_unpack('bl', 'box_min', k)}")
    emit(f"    {_unpack('bh', 'box_max', k)}")
    emit(
        "    if "
        + " or ".join(f"bl{d} > bh{d}" for d in range(k))
        + ":"
    )
    emit("        return")
    emit("    node_cls = Node")
    emit("    if slack_bits > 0:")
    emit("        slack = (1 << slack_bits) - 1")
    for d in range(k):
        emit(f"        cl{d} = bl{d} - slack")
        emit(f"        ch{d} = bh{d} + slack")
    emit("    else:")
    for d in range(k):
        emit(f"        cl{d} = bl{d}")
        emit(f"        ch{d} = bh{d}")
    emit("")
    emit("    post = root.post_len")
    emit("    free = (1 << (post + 1)) - 1")
    emit(f"    {_unpack('p', 'root.prefix', k)}")
    emit(_classify_root(k, "    "))
    emit("    cont = root.container")
    emit("    slots = cont._slots")
    emit("    limit = len(slots)")
    emit("    if cont.is_hc:")
    emit("        addrs = None")
    emit(f"        if ml == 0 and mh == {full}:")
    emit("            mode = 2")
    emit("            cur = 0")
    emit("        else:")
    emit("            mode = 1")
    emit("            cur = ml")
    emit("    else:")
    emit("        addrs = cont._addresses")
    emit(f"        if ml == 0 and mh == {full}:")
    emit("            mode = 2")
    emit("            cur = 0")
    emit("        else:")
    emit("            mode = 1")
    emit("            cur = bisect_left(addrs, ml)")
    emit("")
    if instr:
        emit("    c_nodes = 1")
        emit("    c_hc = 1 if cont.is_hc else 0")
        emit("    c_frames = 0")
        emit("    c_slots = 0")
        emit("    c_flush = 0")
        emit("    c_plain = 1 if mode == 2 else 0")
        emit("    c_maskrej = 0")
        emit("    c_noderej = 0")
        emit("    c_postdrop = 0")
        emit("    c_entries = 0")
        emit("")
    emit("    stack = []")
    emit("    pop = stack.pop")
    emit("    push = stack.append")
    emit("")
    if instr:
        emit("    try:")

    body = []
    b = body.append
    b("while True:")
    b("    if mode == 1:")
    b("        if addrs is None:")
    b("            if cur < 0:")
    b("                if not stack:")
    b("                    return")
    b("                slots, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            a = cur")
    b("            cur = -1 if a >= mh else ((((a | ~mh) + 1) & mh) | ml)")
    b("            slot = slots[a]")
    if instr:
        b("            c_slots += 1")
    b("            if slot is None:")
    b("                continue")
    b("        else:")
    b("            if cur >= limit:")
    b("                if not stack:")
    b("                    return")
    b("                slots, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            a = addrs[cur]")
    b("            if a > mh:")
    b("                if not stack:")
    b("                    return")
    b("                slots, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            slot = slots[cur]")
    b("            cur += 1")
    if instr:
        b("            c_slots += 1")
    b("            if (a | ml) != a or (a & mh) != a:")
    if instr:
        b("                c_maskrej += 1")
    b("                continue")
    b("    else:")
    b("        if cur >= limit:")
    b("            if not stack:")
    b("                return")
    b("            slots, addrs, cur, ml, mh, mode, limit = pop()")
    b("            continue")
    b("        slot = slots[cur]")
    b("        cur += 1")
    if instr:
        b("        c_slots += 1")
    b("        if slot is None:")
    b("            continue")
    b("")
    b("    if slot.__class__ is node_cls:")
    b("        if mode == 0:")
    b("            push((slots, addrs, cur, ml, mh, mode, limit))")
    b("            cont = slot.container")
    b("            slots = cont._slots")
    b("            addrs = None")
    b("            cur = 0")
    b("            limit = len(slots)")
    if instr:
        b("            c_frames += 1")
        b("            c_nodes += 1")
        b("            if cont.is_hc:")
        b("                c_hc += 1")
    b("            continue")
    b("        cpost = slot.post_len")
    b("        cfree = (1 << (cpost + 1)) - 1")
    b(f"        {_unpack('p', 'slot.prefix', k)}")
    b(_classify_child(k, "        ", instr))
    b("        push((slots, addrs, cur, ml, mh, mode, limit))")
    b("        cont = slot.container")
    b("        slots = cont._slots")
    b("        limit = len(slots)")
    if instr:
        b("        c_frames += 1")
        b("        c_nodes += 1")
        b("        if cont.is_hc:")
        b("            c_hc += 1")
    b("        if inside or cpost < slack_bits:")
    b("            addrs = None")
    b("            mode = 0")
    b("            cur = 0")
    if instr:
        b("            c_flush += 1")
    b("        elif cont.is_hc:")
    b("            addrs = None")
    b(f"            if cml == 0 and cmh == {full}:")
    b("                mode = 2")
    b("                cur = 0")
    if instr:
        b("                c_plain += 1")
    b("            else:")
    b("                mode = 1")
    b("                ml = cml")
    b("                mh = cmh")
    b("                cur = cml")
    b("        else:")
    b("            addrs = cont._addresses")
    b(f"            if cml == 0 and cmh == {full}:")
    b("                mode = 2")
    b("                cur = 0")
    if instr:
        b("                c_plain += 1")
    b("            else:")
    b("                mode = 1")
    b("                ml = cml")
    b("                mh = cmh")
    b("                cur = bisect_left(addrs, cml)")
    b("        continue")
    b("")
    b("    if mode == 0:")
    if instr:
        b("        c_entries += 1")
    b("        yield slot.key, slot.value")
    b("    else:")
    b("        key = slot.key")
    b(f"        {_unpack('v', 'key', k)}")
    b(
        "        if "
        + " or ".join(f"v{d} < cl{d} or v{d} > ch{d}" for d in range(k))
        + ":"
    )
    if instr:
        b("            c_postdrop += 1")
        b("            pass")
    else:
        b("            pass")
    b("        else:")
    if instr:
        b("            c_entries += 1")
    b("            yield key, slot.value")

    pad = "        " if instr else "    "
    for chunk in body:
        for line in chunk.split("\n"):
            emit(pad + line if line else "")
    if instr:
        emit("    finally:")
        emit("        _probes.record_range_scan(")
        emit("            c_nodes, c_hc, c_frames, c_slots, c_flush,")
        emit("            c_plain, c_maskrej, c_noderej, c_postdrop,")
        emit("            c_entries,")
        emit("        )")
    return "\n".join(lines) + "\n"


def _emit_get_many(k: int, instr: bool) -> str:
    """The unrolled twin of ``repro.core.batch._get_many_plain`` /
    ``_get_many_instrumented`` (same merge-join walk, path frames carry
    the prefix unpacked)."""
    name = "get_many_instrumented" if instr else "get_many_plain"
    frame = ", ".join(["node", "shift"] + [f"p{d}" for d in range(k)])
    lines = [f"def {name}(tree, keys, default=None, presorted=False):"]
    emit = lines.append
    emit("    checked, codes = _prepare(tree, keys, not presorted)")
    emit("    n = len(checked)")
    if instr:
        emit("    _probes.ops_get_many.inc()")
        emit("    _probes.batch_keys_get.inc(n)")
    emit("    results = [default] * n")
    emit("    root = tree._root")
    emit("    if root is None or n == 0:")
    emit("        return results")
    emit("    if presorted:")
    emit("        order = range(n)")
    emit("    else:")
    emit("        order = sorted(range(n), key=codes.__getitem__)")
    emit("")
    if instr:
        emit("    c_nodes = 1")
        emit("    c_slots = 0")
    emit("    node_cls = Node")
    emit("    path = [(root, root.post_len + 1) + root.prefix]")
    emit("    push = path.append")
    emit("    pop = path.pop")
    emit(f"    {frame} = path[0]")
    emit("    for i in order:")
    emit("        key = checked[i]")
    emit(f"        {_unpack('v', 'key', k)}")
    emit(f"        while {_mismatch_expr(k, 'shift')}:")
    emit("            pop()")
    emit(f"            {frame} = path[-1]")
    emit("        while True:")
    if instr:
        emit("            c_slots += 1")
    emit("            post = shift - 1")
    emit(f"            a = {_addr_expr(k, 'post')}")
    emit("            cont = node.container")
    emit("            if cont.is_hc:")
    emit("                slot = cont._slots[a]")
    emit("            else:")
    emit("                addrs = cont._addresses")
    emit("                pos = bisect_left(addrs, a)")
    emit("                slot = (")
    emit("                    cont._slots[pos]")
    emit("                    if pos < len(addrs) and addrs[pos] == a")
    emit("                    else None")
    emit("                )")
    emit("            if slot is None:")
    emit("                break")
    emit("            if slot.__class__ is node_cls:")
    emit("                cshift = slot.post_len + 1")
    emit(f"                {_unpack('q', 'slot.prefix', k)}")
    emit(
        "                if "
        + _mismatch_expr(k, "cshift", "v", "q")
        + ":"
    )
    emit("                    break")
    emit("                node = slot")
    emit("                shift = cshift")
    for d in range(k):
        emit(f"                p{d} = q{d}")
    emit(f"                push(({frame}))")
    if instr:
        emit("                c_nodes += 1")
    emit("                continue")
    emit("            if slot.key == key:")
    emit("                results[i] = slot.value")
    emit("            break")
    if instr:
        emit("    _probes.batch_nodes_visited.inc(c_nodes)")
        emit("    _probes.batch_slots_scanned.inc(c_slots)")
    emit("    return results")
    return "\n".join(lines) + "\n"


def _entry_tuple(k: int, e: str = "e") -> str:
    """``(entries[e], entries[e + 1], ...)`` with the k == 1 comma."""
    parts = [
        f"entries[{e} + {d}]" if d else f"entries[{e}]" for d in range(k)
    ]
    return "(" + ", ".join(parts) + ("," if k == 1 else "") + ")"


def _plan_build_lines(k: int, off: str, pad: str, pc: str) -> list:
    """Emit the cold-path node-plan build for ``off`` into ``f`` and
    memoise it in ``cache``.

    A *plan* is the node-static half of a read-kernel frame::

        (post_len, limit, refs, addrs, lut, p0 .. p{k-1})

    ``refs`` is the slot-ref window hoisted to a plain list with one
    ``array`` slice + ``tolist`` (a single C loop, no per-read PyLong
    boxing); ``addrs`` is the live LHC address row as a list, or None
    for an HC node (whose ``refs`` is the full ``2**k`` direct table).
    ``lut`` is the point-probe index: None for HC (probe with a direct
    ``refs[a]`` subscript) and ``dict(zip(addrs, refs))`` for LHC --
    one C hash probe per level instead of bisect + two subscripts + a
    compare.  Plans are cached per node offset in ``tree._plan_cache``
    and invalidated wholesale by the tree's mutation epoch, so scans
    and batch lookups over a quiescent tree decode each node's header
    and slot table exactly once across *all* subsequent calls.
    """
    hc_slots = 1 << k
    if k == 1:
        hc_tail = f", words[{off} + 2])"
        lhc_tail = hc_tail
    else:
        hc_tail = f") + uk(words, ({off} + 2) << 3)"
        lhc_tail = hc_tail
    return [
        f"{pad}h = words[{off}]",
        f"{pad}base = {off} + {2 + k}",
        f"{pad}if h & 4096:",
        f"{pad}    f = (h & 63, {hc_slots}, "
        f"words[base : base + {hc_slots}].tolist(), None, None{hc_tail}",
        f"{pad}else:",
        f"{pad}    c = words[{off} + 1]",
        f"{pad}    nn = (c & 2097151) + ((c >> 21) & 2097151)",
        f"{pad}    rbase = base + (1 << ((h >> 13) & 63))",
        f"{pad}    rr = words[rbase : rbase + nn].tolist()",
        f"{pad}    aa = words[base : base + nn].tolist()",
        f"{pad}    f = (h & 63, nn, rr, aa, dict(zip(aa, rr)){lhc_tail}",
        f"{pad}cache[{off}] = f",
        f"{pad}{pc}[1] += 1",
    ]


def _emit_cache_preamble(emit, pc: str) -> None:
    """Epoch check shared by the cached read kernels: any mutation since
    the cache was filled invalidates every plan at once.  A non-empty
    flush counts as one invalidation (``_plan_invalidated`` also drops
    a flight-recorder event); the fast path stays one compare."""
    emit("    cache = tree._plan_cache")
    emit("    if tree._plan_epoch != tree._mut_epoch:")
    emit("        if cache:")
    emit(f"            _plan_invalidated({pc}, len(cache))")
    emit("            cache.clear()")
    emit("        tree._plan_epoch = tree._mut_epoch")


def _emit_arena_range_scan(k: int, instr: bool) -> str:
    """The unrolled slab twin of ``repro.core.kernel.arena_range_scan``:
    same flat mode machine (masked / plain-scan / flush), same z-order
    output and counter placement -- but each visited node's slot window
    comes from the epoch-invalidated *plan cache* (see
    :func:`_plan_build_lines`): the first visit hoists the ref/address
    rows to plain lists with one ``array`` slice each, every later
    visit -- in this query or any subsequent one on a quiescent tree --
    is a dict hit.  Frames carry ``(refs, addrs, cur, ml, mh, mode,
    limit)`` exactly like the object kernel's (``addrs`` may be a live
    list in non-masked modes; only mode 1 consults it)."""
    name = (
        "arena_range_scan_instrumented"
        if instr
        else "arena_range_scan_plain"
    )
    full = (1 << k) - 1

    lines = [f"def {name}(tree, box_min, box_max, slack_bits=0):"]
    emit = lines.append
    emit("    root = tree._root_off")
    emit("    if not root:")
    emit("        return")
    emit("    arena = tree._arena")
    emit("    words = arena.words")
    emit("    entries = arena.entries")
    emit("    values = arena.values")
    if k > 1:
        emit("    uk = _ukey")
    emit(f"    {_unpack('bl', 'box_min', k)}")
    emit(
        "    if "
        + " or ".join(f"bl{d} > box_max[{d}]" for d in range(k))
        + ":"
    )
    emit("        return")
    emit(f"    {_unpack('bh', 'box_max', k)}")
    emit("    if slack_bits > 0:")
    emit("        slack = (1 << slack_bits) - 1")
    for d in range(k):
        emit(f"        cl{d} = bl{d} - slack")
        emit(f"        ch{d} = bh{d} + slack")
    emit("    else:")
    for d in range(k):
        emit(f"        cl{d} = bl{d}")
        emit(f"        ch{d} = bh{d}")
    emit("")
    _emit_cache_preamble(emit, "_pcw")
    emit("    f = cache.get(root)")
    emit("    if f is None:")
    for ln in _plan_build_lines(k, "root", "        ", "_pcw"):
        emit(ln)
    if instr:
        emit("    else:")
        emit("        _pcw[0] += 1")
    frame_names = "post, limit, refs, addrs, _lut, " + ", ".join(
        f"p{d}" for d in range(k)
    )
    emit(f"    {frame_names} = f")
    emit("    free = (1 << (post + 1)) - 1")
    emit(_classify_root(k, "    "))
    emit(f"    if ml == 0 and mh == {full}:")
    emit("        mode = 2")
    emit("        cur = 0")
    emit("    elif addrs is None:")
    emit("        mode = 1")
    emit("        cur = ml")
    emit("    else:")
    emit("        mode = 1")
    emit("        cur = bisect_left(addrs, ml)")
    emit("")
    if instr:
        emit("    c_nodes = 1")
        emit("    c_hc = 1 if addrs is None else 0")
        emit("    c_frames = 0")
        emit("    c_slots = 0")
        emit("    c_flush = 0")
        emit("    c_plain = 1 if mode == 2 else 0")
        emit("    c_maskrej = 0")
        emit("    c_noderej = 0")
        emit("    c_postdrop = 0")
        emit("    c_entries = 0")
        emit("")
    emit("    stack = []")
    emit("    pop = stack.pop")
    emit("    push = stack.append")
    emit("")
    if instr:
        emit("    try:")

    body = []
    b = body.append
    b("while True:")
    b("    if mode == 1:")
    b("        if addrs is None:")
    b("            if cur < 0:")
    b("                if not stack:")
    b("                    return")
    b("                refs, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            a = cur")
    b("            cur = -1 if a >= mh else ((((a | ~mh) + 1) & mh) | ml)")
    b("            ref = refs[a]")
    if instr:
        b("            c_slots += 1")
    b("            if not ref:")
    b("                continue")
    b("        else:")
    b("            if cur >= limit:")
    b("                if not stack:")
    b("                    return")
    b("                refs, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            a = addrs[cur]")
    b("            if a > mh:")
    b("                if not stack:")
    b("                    return")
    b("                refs, addrs, cur, ml, mh, mode, limit = pop()")
    b("                continue")
    b("            ref = refs[cur]")
    b("            cur += 1")
    if instr:
        b("            c_slots += 1")
    b("            if (a | ml) != a or (a & mh) != a:")
    if instr:
        b("                c_maskrej += 1")
    b("                continue")
    b("    else:")
    b("        if cur >= limit:")
    b("            if not stack:")
    b("                return")
    b("            refs, addrs, cur, ml, mh, mode, limit = pop()")
    b("            continue")
    b("        ref = refs[cur]")
    b("        cur += 1")
    if instr:
        b("        c_slots += 1")
    b("        if not ref:")
    b("            continue")
    b("")
    b("    if ref & 1:")
    b("        child = ref >> 1")
    b("        f = cache.get(child)")
    b("        if f is None:")
    for ln in _plan_build_lines(k, "child", "            ", "_pcw"):
        b(ln)
    if instr:
        b("        else:")
        b("            _pcw[0] += 1")
    b("        if mode == 0:")
    b("            push((refs, addrs, cur, ml, mh, mode, limit))")
    b(
        f"            cpost, limit, refs, addrs, _lut, "
        f"{_unpack_names('p', k)} = f"
    )
    b("            cur = 0")
    if instr:
        b("            if addrs is None:")
        b("                c_hc += 1")
        b("            c_frames += 1")
        b("            c_nodes += 1")
    b("            continue")
    b(
        f"        cpost, climit, crefs, caddrs, _lut, "
        f"{_unpack_names('p', k)} = f"
    )
    b("        cfree = (1 << (cpost + 1)) - 1")
    b(_classify_child(k, "        ", instr))
    b("        push((refs, addrs, cur, ml, mh, mode, limit))")
    b("        limit = climit")
    b("        refs = crefs")
    if instr:
        b("        if caddrs is None:")
        b("            c_hc += 1")
        b("        c_frames += 1")
        b("        c_nodes += 1")
    b("        if inside or cpost < slack_bits:")
    b("            addrs = caddrs")
    b("            mode = 0")
    b("            cur = 0")
    if instr:
        b("            c_flush += 1")
    b("        elif caddrs is None:")
    b("            addrs = None")
    b(f"            if cml == 0 and cmh == {full}:")
    b("                mode = 2")
    b("                cur = 0")
    if instr:
        b("                c_plain += 1")
    b("            else:")
    b("                mode = 1")
    b("                ml = cml")
    b("                mh = cmh")
    b("                cur = cml")
    b("        else:")
    b("            addrs = caddrs")
    b(f"            if cml == 0 and cmh == {full}:")
    b("                mode = 2")
    b("                cur = 0")
    if instr:
        b("                c_plain += 1")
    b("            else:")
    b("                mode = 1")
    b("                ml = cml")
    b("                mh = cmh")
    b("                cur = bisect_left(caddrs, cml)")
    b("        continue")
    b("")
    b("    e = ref >> 1")
    b("    if mode == 0:")
    if instr:
        b("        c_entries += 1")
    b(f"        vref = entries[e + {k}]")
    if k == 1:
        b("        yield (entries[e],), values[vref]")
    else:
        # One Struct C call builds the key tuple; beats k boxed
        # array subscripts on every flushed entry.
        b("        yield uk(entries, e << 3), values[vref]")
    b("    else:")
    for d in range(k):
        b(
            f"        e{d} = entries[e + {d}]"
            if d
            else "        e0 = entries[e]"
        )
    b(
        "        if "
        + " or ".join(f"e{d} < cl{d} or e{d} > ch{d}" for d in range(k))
        + ":"
    )
    if instr:
        b("            c_postdrop += 1")
        b("            pass")
    else:
        b("            pass")
    b("        else:")
    if instr:
        b("            c_entries += 1")
    b(f"            vref = entries[e + {k}]")
    key_tuple = (
        "(" + ", ".join(f"e{d}" for d in range(k))
        + ("," if k == 1 else "") + ")"
    )
    b(
        f"            yield {key_tuple}, ("
        "values[vref])"
    )

    pad = "        " if instr else "    "
    for chunk in body:
        for line in chunk.split("\n"):
            emit(pad + line if line else "")
    if instr:
        emit("    finally:")
        emit("        _probes.record_range_scan(")
        emit("            c_nodes, c_hc, c_frames, c_slots, c_flush,")
        emit("            c_plain, c_maskrej, c_noderej, c_postdrop,")
        emit("            c_entries,")
        emit("        )")
    return "\n".join(lines) + "\n"


def _unpack_names(prefix: str, k: int) -> str:
    return ", ".join(f"{prefix}{d}" for d in range(k))


def _emit_arena_get_many(k: int, instr: bool) -> str:
    """The unrolled slab twin of ``repro.core.batch.arena_get_many``:
    the same z-sorted merge-join, but path frames *are* the cached node
    plans of :func:`_plan_build_lines` -- an HC probe is one direct
    list subscript, an LHC probe one C dict hash hit against the plan's
    ``lut`` (cheaper than bisect + two subscripts + a compare), and on
    a quiescent tree repeated batches skip header decoding altogether
    via ``tree._plan_cache``.  Entry keys are read as one
    ``Struct.unpack_from`` tuple (one C call instead of k boxed
    ``array`` subscripts) and compared whole."""
    name = (
        "arena_get_many_instrumented" if instr else "arena_get_many_plain"
    )
    frame = "post, lim, refs, addrs, lut, " + ", ".join(
        f"p{d}" for d in range(k)
    )
    lines = [f"def {name}(tree, keys, default=None, presorted=False):"]
    emit = lines.append
    emit("    checked, codes = _prepare(tree, keys, not presorted)")
    emit("    n = len(checked)")
    if instr:
        emit("    _probes.ops_get_many.inc()")
        emit("    _probes.batch_keys_get.inc(n)")
    emit("    results = [default] * n")
    emit("    root = tree._root_off")
    emit("    if not root or n == 0:")
    emit("        return results")
    emit("    if presorted:")
    emit("        order = range(n)")
    emit("    else:")
    emit("        order = sorted(range(n), key=codes.__getitem__)")
    emit("")
    emit("    arena = tree._arena")
    emit("    words = arena.words")
    emit("    entries = arena.entries")
    emit("    values = arena.values")
    if k > 1:
        emit("    uk = _ukey")
    _emit_cache_preamble(emit, "_pcg")
    if instr:
        emit("    c_nodes = 1")
        emit("    c_slots = 0")
    emit("    f = cache.get(root)")
    emit("    if f is None:")
    for ln in _plan_build_lines(k, "root", "        ", "_pcg"):
        emit(ln)
    if instr:
        emit("    else:")
        emit("        _pcg[0] += 1")
    emit(f"    {frame} = f")
    emit("    path = [f]")
    emit("    push = path.append")
    emit("    pop = path.pop")
    emit("    for i in order:")
    emit("        key = checked[i]")
    emit(f"        {_unpack('v', 'key', k)}")
    emit(f"        while {_mismatch_expr(k, 'post')} > 1:")
    emit("            pop()")
    emit(f"            {frame} = path[-1]")
    emit("        while True:")
    if instr:
        emit("            c_slots += 1")
    emit(f"            a = {_addr_expr(k, 'post')}")
    emit("            if lut is None:")
    emit("                ref = refs[a]")
    emit("                if not ref:")
    emit("                    break")
    emit("            else:")
    emit("                ref = lut.get(a)")
    emit("                if ref is None:")
    emit("                    break")
    emit("            if ref & 1:")
    emit("                child = ref >> 1")
    emit("                f = cache.get(child)")
    emit("                if f is None:")
    for ln in _plan_build_lines(
        k, "child", "                    ", "_pcg"
    ):
        emit(ln)
    if instr:
        emit("                else:")
        emit("                    _pcg[0] += 1")
    qs = ", ".join(f"q{d}" for d in range(k))
    emit(f"                cpost, clim, crefs, caddrs, clut, {qs} = f")
    emit(
        "                if "
        + _mismatch_expr(k, "cpost", "v", "q")
        + " > 1:"
    )
    emit("                    break")
    emit("                post = cpost")
    emit("                lim = clim")
    emit("                refs = crefs")
    emit("                addrs = caddrs")
    emit("                lut = clut")
    for d in range(k):
        emit(f"                p{d} = q{d}")
    emit("                push(f)")
    if instr:
        emit("                c_nodes += 1")
    emit("                continue")
    emit("            e = ref >> 1")
    if k == 1:
        emit("            if entries[e] == v0:")
    else:
        emit("            if uk(entries, e << 3) == key:")
    emit(f"                results[i] = values[entries[e + {k}]]")
    emit("            break")
    if instr:
        emit("    _probes.batch_nodes_visited.inc(c_nodes)")
        emit("    _probes.batch_slots_scanned.inc(c_slots)")
    emit("    return results")
    return "\n".join(lines) + "\n"


def _emit_arena_remove(k: int) -> str:
    """Unrolled blind-descent delete over the arena slab layout: the
    same PATRICIA discipline as ``arena_find`` (no per-level infix
    checks; the full-key comparison at the reached entry settles
    membership), tracking the parent chain needed by the in-slab
    LHC shift/merge helpers.  On a hit the structural mutation is
    delegated to ``tree._remove_hit`` (ref removal, free-list
    recycling, underfull merge); a miss returns the shared ``_miss``
    sentinel so the caller can apply its default/raise semantics."""
    entry_test = " and ".join(
        f"entries[eoff + {d}] == v{d}" if d else "entries[eoff] == v0"
        for d in range(k)
    )
    return f"""\
def arena_remove(tree, key):
    {_unpack('v', 'key', k)}
    off = tree._root_off
    if not off:
        return _miss
    arena = tree._arena
    words = arena.words
    pidx = -1
    poff = 0
    pa = -1
    ppidx = -1
    h = words[off]
    while True:
        post = h & 63
        a = {_addr_expr(k, 'post')}
        if h >= 16384:
            # LHC with cap >= 4; identity-table fast path (see
            # ``arena_find``).
            base = off + {2 + k}
            cap = 1 << ((h >> 13) & 63)
            end = base + cap
            if words[end - 1] == cap - 1:
                if a >= cap:
                    return _miss
                idx = end + a
                ref = words[idx]
            else:
                pos = bisect_left(words, a, base, end)
                if pos < end and words[pos] == a:
                    idx = pos + cap
                    ref = words[idx]
                else:
                    return _miss
        elif h & 4096:
            idx = off + {2 + k} + a
            ref = words[idx]
        else:
            # cap_log == 1: the two-slot table every split starts with.
            base = off + {2 + k}
            if words[base] == a:
                idx = base + 2
            elif words[base + 1] == a:
                idx = base + 3
            else:
                return _miss
            ref = words[idx]
        if not ref:
            return _miss
        if ref & 1:
            poff = off
            pa = a
            ppidx = pidx
            pidx = idx
            off = ref >> 1
            h = words[off]
            continue
        eoff = ref >> 1
        entries = arena.entries
        if {entry_test}:
            return tree._remove_hit(off, pidx, eoff, idx, poff, pa, ppidx)
        return _miss
"""


def _emit_arena_knn(k: int, width: int) -> str:
    """Unrolled best-first kNN over the arena slabs: the expansion twin
    of ``repro.core.knn.arena_knn_iter`` with the integer point/region
    distance kernels and the Morton tiebreak inlined (no per-push
    closure calls), each expanded node's ref run hoisted with one
    slice.  Push order, distances and z-tiebreaks are identical to the
    generic engine, so ties resolve identically; returns the
    ``[(key, value), ...]`` list ``ArenaPHTree.knn`` materialises.
    ``bound`` is the generic engine's inclusive distance limit; a push
    farther than it is skipped before its Morton code is computed.
    Unbounded searches compare against the largest squared distance
    the shape admits, so the loop only ever compares ints."""

    def region_dist(pad: str, acc: str) -> str:
        out = []
        for d in range(k):
            out.append(f"{pad}hi = p{d} | cfree")
            out.append(f"{pad}if q{d} < p{d}:")
            out.append(f"{pad}    t = p{d} - q{d}")
            out.append(f"{pad}    {acc} += t * t")
            out.append(f"{pad}elif q{d} > hi:")
            out.append(f"{pad}    t = q{d} - hi")
            out.append(f"{pad}    {acc} += t * t")
        return "\n".join(out)

    point_dist = "\n".join(
        f"                    t = q{d} - e{d}\n"
        f"                    cdist += t * t"
        for d in range(k)
    )
    entry_loads = "\n".join(
        f"                    e{d} = entries[e + {d}]"
        if d
        else "                    e0 = entries[e]"
        for d in range(k)
    )
    out_tuple = (
        "(" + ", ".join(f"entries[e + {d}]" if d else "entries[e]"
                        for d in range(k))
        + ("," if k == 1 else "") + ")"
    )
    return f"""\
def arena_knn(tree, query, n, bound=None):
    out = []
    root = tree._root_off
    if n <= 0 or not root:
        return out
    if bound is None:
        bound = {k * ((1 << width) - 1) ** 2}
    {_unpack('q', 'query', k)}
    arena = tree._arena
    words = arena.words
    entries = arena.entries
    values = arena.values
    cfree = (1 << ((words[root] & 63) + 1)) - 1
{_unpack_prefix_lines(k, 'root', '    ')}
    dist = 0
{region_dist('    ', 'dist')}
    if dist > bound:
        return out
    heap = [(dist, {_morton_expr(k, width, 'p')}, 0, (root << 1) | 1)]
    tb = 1
    produced = 0
    push = _heappush
    pop = _heappop
    while heap:
        dist, _z, _t, ref = pop(heap)
        if ref & 1:
            off = ref >> 1
            h = words[off]
            base = off + {2 + k}
            if h & 4096:
                refs = words[base : base + {1 << k}].tolist()
            else:
                c = words[off + 1]
                nslots = (c & 2097151) + ((c >> 21) & 2097151)
                rbase = base + (1 << ((h >> 13) & 63))
                refs = words[rbase : rbase + nslots].tolist()
            for cref in refs:
                if not cref:
                    continue
                if cref & 1:
                    child = cref >> 1
                    cfree = (1 << ((words[child] & 63) + 1)) - 1
{_unpack_prefix_lines(k, 'child', '                    ')}
                    cdist = 0
{region_dist('                    ', 'cdist')}
                    if cdist <= bound:
                        push(heap, (cdist, {_morton_expr(k, width, 'p')}, tb, cref))
                        tb += 1
                else:
                    e = cref >> 1
{entry_loads}
                    cdist = 0
{point_dist}
                    if cdist <= bound:
                        push(heap, (cdist, {_morton_expr(k, width, 'e')}, tb, cref))
                        tb += 1
        else:
            e = ref >> 1
            vref = entries[e + {k}]
            out.append(({out_tuple}, values[vref]))
            produced += 1
            if produced >= n:
                return out
    return out
"""


def _unpack_prefix_lines(k: int, off: str, pad: str) -> str:
    """``p0 = words[off + 2]; ...`` prefix loads at indent ``pad``."""
    return "\n".join(
        f"{pad}p{d} = words[{off} + {2 + d}]" for d in range(k)
    )


# ---------------------------------------------------------------------------
# The Specialization bundle and its factory
# ---------------------------------------------------------------------------


class Specialization:
    """The per-(k, width) bundle of generated hot-path functions.

    Self-contained: holds only closures over the byte tables plus the
    shape constants, so a bundle keeps working after the registry evicts
    its cache slot (live trees hold strong references).
    """

    __slots__ = (
        "k",
        "width",
        "full",
        "check_key",
        "hc_address",
        "interleave",
        "deinterleave",
        "zkey",
        "find_entry",
        "put",
        "arena_find",
        "arena_put",
        "arena_remove",
        "arena_knn",
        "range_scan_plain",
        "range_scan_instrumented",
        "get_many_plain",
        "get_many_instrumented",
        "arena_range_scan_plain",
        "arena_range_scan_instrumented",
        "arena_get_many_plain",
        "arena_get_many_instrumented",
        "source",
    )

    def __init__(self, k: int, width: int) -> None:
        self.k = k
        self.width = width
        self.full = (1 << k) - 1
        source = "\n".join(
            [
                _emit_check_key(k, width),
                _emit_point_helpers(k, width),
                _emit_find_entry(k),
                _emit_put(k, width),
                _emit_arena_find(k),
                _emit_arena_put(k, width),
                _emit_range_scan(k, instr=False),
                _emit_range_scan(k, instr=True),
                _emit_get_many(k, instr=False),
                _emit_get_many(k, instr=True),
                _emit_arena_range_scan(k, instr=False),
                _emit_arena_range_scan(k, instr=True),
                _emit_arena_get_many(k, instr=False),
                _emit_arena_get_many(k, instr=True),
                _emit_arena_remove(k),
                _emit_arena_knn(k, width),
            ]
        )
        self.source = source
        namespace: dict = {
            "Node": Node,
            "Entry": Entry,
            "bisect_left": bisect_left,
            "_probes": _probes,
            "_st": spread_table(k),
            "_prepare": _batch_prepare,
            "_heappush": heapq.heappush,
            "_heappop": heapq.heappop,
            "_miss": ARENA_REMOVE_MISS,
            "_pcw": PLAN_CACHE_WINDOW,
            "_pcg": PLAN_CACHE_GET_MANY,
            "_plan_invalidated": _plan_invalidated,
            # One C call reads k (or k+1) consecutive slab words as a
            # ready tuple; the slabs are native 64-bit arrays so "=Q"
            # matches the array('Q') item layout exactly.
            "_ukey": Struct(f"={k}Q").unpack_from,
        }
        if ROW_TABLE_BITS // k:
            namespace["_rt"] = row_table(k, width)
        else:
            for j, (_in, table, _out) in enumerate(compact_plan(k, width)):
                namespace[f"_ct{j}"] = table
        code = compile(source, f"<specialize k={k} width={width}>", "exec")
        exec(code, namespace)
        self.check_key = namespace["check_key"]
        self.hc_address = namespace["hc_address"]
        self.interleave = namespace["interleave"]
        self.deinterleave = namespace["deinterleave"]
        self.zkey = namespace["zkey"]
        self.find_entry = namespace["find_entry"]
        self.put = namespace["put"]
        self.arena_find = namespace["arena_find"]
        self.arena_put = namespace["arena_put"]
        self.arena_remove = namespace["arena_remove"]
        self.arena_knn = namespace["arena_knn"]
        self.range_scan_plain = namespace["range_scan_plain"]
        self.range_scan_instrumented = namespace["range_scan_instrumented"]
        self.get_many_plain = namespace["get_many_plain"]
        self.get_many_instrumented = namespace["get_many_instrumented"]
        self.arena_range_scan_plain = namespace["arena_range_scan_plain"]
        self.arena_range_scan_instrumented = namespace[
            "arena_range_scan_instrumented"
        ]
        self.arena_get_many_plain = namespace["arena_get_many_plain"]
        self.arena_get_many_instrumented = namespace[
            "arena_get_many_instrumented"
        ]

    def __repr__(self) -> str:
        return f"Specialization(k={self.k}, width={self.width})"


def _batch_prepare(tree: Any, keys: Any, want_codes: bool):
    """Late-bound bridge to :func:`repro.core.batch._prepare` (the batch
    module imports nothing from here, so the import is cycle-free but
    deferred to avoid import-order surprises)."""
    global _batch_prepare
    from repro.core.batch import _prepare

    _batch_prepare = _prepare
    return _prepare(tree, keys, want_codes)


# ---------------------------------------------------------------------------
# Bounded LRU registry
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
_REGISTRY: "OrderedDict[Tuple[int, int], Specialization]" = OrderedDict()
_CAP = 64


def get_spec(k: int, width: int) -> Optional[Specialization]:
    """The cached specialization for ``(k, width)``, building (and
    caching, LRU-bounded) on first use.

    Returns None for shapes outside the specializable range
    (``k > MAX_SPECIALIZED_DIMS``); callers then keep the generic
    engines.
    """
    if k < 1:
        raise ValueError(f"dims must be >= 1, got {k}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if k > MAX_SPECIALIZED_DIMS:
        return None
    key = (k, width)
    with _LOCK:
        spec = _REGISTRY.get(key)
        if spec is not None:
            _REGISTRY.move_to_end(key)
            return spec
    built = Specialization(k, width)
    with _LOCK:
        if _CAP == 0:
            # Caching disabled: hand the fresh build straight back.
            return built
        spec = _REGISTRY.get(key)
        if spec is not None:
            # Raced with another builder; keep the first.
            _REGISTRY.move_to_end(key)
            return spec
        _REGISTRY[key] = built
        while len(_REGISTRY) > _CAP:
            _REGISTRY.popitem(last=False)
    return built


def z_functions(
    k: int, width: int
) -> Tuple[Callable[[Tuple[int, ...]], int], Callable[[int], Tuple[int, ...]]]:
    """``(interleave, deinterleave)`` for ``(k, width)`` keys: the
    generated kernels when the shape is specializable, the generic LUT
    paths of :mod:`repro.encoding.interleave` otherwise."""
    spec = get_spec(k, width)
    if spec is not None:
        return spec.interleave, spec.deinterleave
    return (
        lambda key: _interleave(key, width),
        lambda code: _deinterleave(code, k, width),
    )


def registry_size() -> int:
    """Number of currently cached specializations."""
    with _LOCK:
        return len(_REGISTRY)


def registry_cap() -> int:
    """Maximum number of cached specializations."""
    return _CAP


def set_registry_cap(cap: int) -> None:
    """Resize the registry (evicting LRU entries if shrinking).

    A cap of 0 disables caching entirely: the registry is emptied and
    :func:`get_spec` builds specializations on demand without retaining
    them.  Negative caps are rejected.
    """
    global _CAP
    if cap < 0:
        raise ValueError(f"registry cap must be >= 0, got {cap}")
    with _LOCK:
        _CAP = cap
        while len(_REGISTRY) > _CAP:
            _REGISTRY.popitem(last=False)


def clear_registry() -> None:
    """Drop every cached specialization (live trees keep theirs)."""
    with _LOCK:
        _REGISTRY.clear()

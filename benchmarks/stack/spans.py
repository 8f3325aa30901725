"""Span tracing from outside the program: wrap each layer's public calls.

:class:`Tracer` replaces the functions listed in :func:`_targets` with
wrappers that record one span ``(op_id, name, start_ns, end_ns,
parent)`` per call, and puts the originals back on :meth:`uninstall`.
Calls are strictly nested (one client thread), so a span's self time is
its duration minus the durations of its direct children.

Spans stay in memory until the run ends; :meth:`write_jsonl` then
writes one JSON object per span.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-name prefix -> layer (the repo's module names).
_LAYERS = (
    ("op.", "client"),
    ("DurablePHTree.", "store"),
    ("WriteAheadLog.", "store.wal"),
    ("io.", "store.wal"),
    ("Segment.", "store.segment"),
    ("ShardedPHTree.", "parallel"),
    ("ZShardRouter.", "parallel"),
    ("SynchronizedPHTree.", "concurrent"),
    ("ReadWriteLock.", "concurrent"),
    ("PHTree.", "core"),
    ("bulk_load_sorted", "core.bulk"),
    ("freeze", "core.frozen"),
    ("LearnedZIndex.", "learned"),
)

#: ``PHTree.query``/``items`` return lazy iterators that the
#: synchronized wrapper drains under its read lock, so the scan itself
#: runs in these spans' self time: count it as core work.
_DRAINS_CORE_ITERATOR = frozenset(
    {
        "SynchronizedPHTree.query",
        "SynchronizedPHTree.items",
        "SynchronizedPHTree.keys",
    }
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYERS))


def layer_of(name: str) -> str:
    if name in _DRAINS_CORE_ITERATOR:
        return "core"
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


def _targets() -> List[Tuple[Any, str, List[str]]]:
    """``(owner, span-name prefix, attributes)`` for every traced call."""
    from repro.core import concurrent, frozen
    from repro.core.phtree import PHTree
    from repro.learned.index import LearnedZIndex
    from repro.parallel import router, sharded
    from repro.store import engine, segment, wal
    from repro.store import io as store_io

    from workloads import DIMS, WIDTH

    # The concrete engine class the shards hold (PHTree dispatches to
    # its arena subclass at construction).
    tree_cls = type(PHTree(dims=DIMS, width=WIDTH))
    reads = ["get", "contains", "get_many", "query", "knn", "items"]
    writes = ["put", "remove", "update_key"]
    return [
        (
            engine.DurablePHTree,
            "DurablePHTree.",
            ["open", "close", *reads, *writes, "put_all", "flush", "compact",
             "checkpoint"],
        ),
        (wal.WriteAheadLog, "WriteAheadLog.", ["open", "create", "append", "sync"]),
        (
            store_io,
            "io.",
            ["write", "fsync", "open_fresh", "replace", "unlink", "fsync_dir"],
        ),
        (segment.Segment, "Segment.", ["open"]),
        (
            sharded.ShardedPHTree,
            "ShardedPHTree.",
            [*reads, *writes, "put_all", "freeze_shards"],
        ),
        (router.ZShardRouter, "ZShardRouter.", ["shards_for_box"]),
        (
            concurrent.SynchronizedPHTree,
            "SynchronizedPHTree.",
            ["get", "contains", "query", "knn", "items", "keys", *writes,
             "put_all"],
        ),
        (
            concurrent.ReadWriteLock,
            "ReadWriteLock.",
            ["acquire_read", "release_read", "acquire_write", "release_write"],
        ),
        (tree_cls, "PHTree.", [*reads, *writes]),
        # Imported by name into these modules: patch every binding.
        (engine, "", ["bulk_load_sorted", "freeze"]),
        (sharded, "", ["bulk_load_sorted"]),
        (frozen, "", ["freeze"]),
        (LearnedZIndex, "LearnedZIndex.", ["fit"]),
    ]


class Tracer:
    def __init__(self) -> None:
        #: ``(op_id, name_id, start_ns, end_ns, parent_index)``; op
        #: spans have parent -1.
        self.spans: List[Optional[Tuple[int, int, int, int, int]]] = []
        self.names: List[str] = []
        self.op_kinds: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._stack = [-1]
        self._op_id = -1
        self._op_span = -1
        self._wrappers: Dict[Any, Callable] = {}
        self._targets: Optional[List[Tuple[Any, str, List[str]]]] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- patching ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable) -> Callable:
        # One wrapper per original, so a function bound under several
        # module names records under one span name.
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (tracer._op_id, nid, start, end, parent)

        self._wrappers[fn] = traced
        return traced

    def install(self) -> None:
        if self._saved:
            return
        if self._targets is None:
            self._targets = _targets()
        for owner, prefix, attrs in self._targets:
            for attr in attrs:
                # Keep the raw attribute (classmethod objects included)
                # or note that the owner only inherits it.
                own = vars(owner).get(attr, _INHERITED)
                self._saved.append((owner, attr, own))
                setattr(owner, attr, self._wrap(prefix + attr, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved = []

    # -- op spans -----------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Open the client span of the next op (timestamps come with
        :meth:`end_op`, taken around the call by the client)."""
        self._op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        self._op_span = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._op_span)

    def end_op(self, start_ns: int, end_ns: int) -> None:
        self._stack.pop()
        self.spans[self._op_span] = (
            self._op_id,
            self._name_id("op." + self.op_kinds[self._op_id]),
            start_ns,
            end_ns,
            -1,
        )

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[int]:
        """Per span: duration minus the duration of its direct children."""
        spans = self.spans
        selfs = [end - start for _, _, start, end, _ in spans]
        for _, _, start, end, parent in spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def table(self) -> Dict[Tuple[str, str], List[int]]:
        """``(op kind, span name) -> [calls, total ns, self ns]``."""
        out: Dict[Tuple[str, str], List[int]] = {}
        kinds = self.op_kinds
        names = self.names
        for (op_id, nid, start, end, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault((kinds[op_id], names[nid]), [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def per_op(self, kind: str) -> List[Dict[str, int]]:
        """Total ns per span name, one dict per op of ``kind``."""
        ops: Dict[int, Dict[str, int]] = {}
        for op_id, nid, start, end, _ in self.spans:
            if self.op_kinds[op_id] == kind:
                row = ops.setdefault(op_id, {})
                name = self.names[nid]
                row[name] = row.get(name, 0) + end - start
        return [ops[op_id] for op_id in sorted(ops)]

    def write_jsonl(self, path: str) -> None:
        kinds = self.op_kinds
        names = self.names
        with open(path, "w") as out:
            for op_id, nid, start, end, parent in self.spans:
                out.write(
                    f'{{"op": {op_id}, "kind": "{kinds[op_id]}", '
                    f'"name": "{names[nid]}", "start_ns": {start}, '
                    f'"end_ns": {end}, "parent": {parent}}}\n'
                )


_INHERITED = object()

"""Closed-loop client: issue ops one at a time, time each, check each.

Ops run in chunks.  A chunk is timed op by op; its results are checked
against the model dict only after the chunk ends, so checking never
counts against latency or throughput.  The checks replay the chunk's
writes into the model in op order, which keeps every read checked
against exactly the state it observed.
"""

from __future__ import annotations

import bisect
from array import array
from operator import lt
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Sequence, Tuple

from workloads import DIMS, METHOD, WIDTH, WINDOWS, Key, Op, apply_to_model

_MISSING = object()


class _Failed:
    """An op that raised instead of returning."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


assert DIMS == 3 and WIDTH % 2 == 0, "zcodes is written for 3-d keys"
_HALF = WIDTH // 2
_LOW = (1 << _HALF) - 1


def _spread(value: int) -> int:
    """``value``'s bits at every ``DIMS``-th position."""
    out = 0
    for bit in range(_HALF):
        out |= ((value >> bit) & 1) << (DIMS * bit)
    return out


#: Spread tables pre-shifted to each dimension's bit of a layer.
_SX, _SY, _SZ = (
    [_spread(v) << (DIMS - 1 - dim) for v in range(1 << _HALF)] for dim in range(DIMS)
)


def zcodes(keys: Sequence[Key]) -> List[int]:
    """Morton codes of 3-d keys, dimension 0 the most significant bit
    of each bit layer.  The benchmark's own tables, so the order check
    shares no code with the engine it checks."""
    sx, sy, sz, half, low = _SX, _SY, _SZ, _HALF, _LOW
    return [
        (sx[x >> half] | sy[y >> half] | sz[z >> half]) << (DIMS * half)
        | sx[x & low] | sy[y & low] | sz[z & low]
        for x, y, z in keys
    ]


def sq_dist(a: Key, b: Key) -> int:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


class Client:
    """One client of ``store``; ``model`` is the expected contents."""

    def __init__(self, store: Any, model: Dict[Key, int]) -> None:
        self.store = store
        self.model = model
        #: Per-kind latencies in ns (untraced ops only).
        self.latency: Dict[str, array] = {}
        #: Per-kind op counts and wall time of traced ops.
        self.traced_ops: Dict[str, int] = {}
        self.traced_ns: Dict[str, int] = {}
        #: Entries returned by window ops, untraced / traced.
        self.window_entries = [0, 0]
        self.timed_ns = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    # -- running ----------------------------------------------------------

    def run_chunk(self, ops: Sequence[Op], tracer: Any = None) -> None:
        """Run ``ops`` back to back, then check them.

        With ``tracer`` each op is an op span of the trace, and its
        latency goes to the traced tallies instead of the latency
        samples (tracing inflates it).
        """
        store = self.store
        results: List[Any] = []
        times = array("q")
        chunk_start = perf_counter_ns()
        for op in ops:
            fn = getattr(store, METHOD[op[0]])
            if tracer is not None:
                tracer.begin_op(op[0])
            t0 = perf_counter_ns()
            try:
                result = fn(*op[1:])
            except Exception as exc:  # a failed op is a result to count
                result = _Failed(exc)
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.end_op(t0, t1)
            times.append(t1 - t0)
            results.append(result)
        self.timed_ns += perf_counter_ns() - chunk_start
        self.ops += len(ops)
        for op, result, ns in zip(ops, results, times):
            kind = op[0]
            if tracer is None:
                self.latency.setdefault(kind, array("q")).append(ns)
            else:
                self.traced_ops[kind] = self.traced_ops.get(kind, 0) + 1
                self.traced_ns[kind] = self.traced_ns.get(kind, 0) + ns
            if kind in WINDOWS and not isinstance(result, _Failed):
                self.window_entries[tracer is not None] += len(result)
            self._check(op, result)

    # -- per-op checks ----------------------------------------------------

    def _fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op[0]}: {why}")

    def _check(self, op: Op, result: Any) -> None:
        self.attempted += 1
        kind = op[0]
        model = self.model
        if isinstance(result, _Failed):
            self._fail(op, f"raised {result.error!r}")
            # Writes still land in the model: if the store did apply
            # the op, later reads stay checkable; if not, they fail.
            apply_to_model(model, op)
            return
        if kind == "get":
            ok = result == model.get(op[1])
        elif kind == "get_many":
            ok = result == [model.get(key) for key in op[1]]
        elif kind in WINDOWS:
            ok = self._window_ok(op[1], op[2], result)
        elif kind == "knn":
            ok = self._knn_ok(op[1], op[2], result)
        elif kind == "put":
            ok = result == model.get(op[1])
        elif kind == "remove":
            ok = result == model.get(op[1], _MISSING)
        elif kind in ("group_commit", "update_key"):
            ok = result is None
        else:  # flush / compact report a segment count
            ok = isinstance(result, int) and result >= 0
        apply_to_model(model, op)
        if not ok:
            self._fail(op, "result does not match the model")

    def _window_ok(self, lo: Key, hi: Key, hits: Any) -> bool:
        """Hits lie in the box, carry the model's values and ascend
        strictly in z-order.  (Missing hits are caught by the brute
        force checks at the end of the run.)

        Wide windows return hundreds of hits, so each check runs over
        whole columns through C-level builtins."""
        if not hits:
            return True
        keys = [key for key, _ in hits]
        for dim in range(DIMS):
            column = [key[dim] for key in keys]
            if min(column) < lo[dim] or max(column) > hi[dim]:
                return False
        # Stored values are integers, so a missing key's None never matches.
        if list(map(self.model.get, keys)) != [value for _, value in hits]:
            return False
        codes = zcodes(keys)
        return all(map(lt, codes, codes[1:]))

    def _knn_ok(self, query: Key, k: int, found: Any) -> bool:
        """``min(k, n)`` stored entries ascending by (distance, z)."""
        model = self.model
        if len(found) != min(k, len(model)):
            return False
        previous = (-1, -1)
        for (key, value), code in zip(found, zcodes([key for key, _ in found])):
            if model.get(key, _MISSING) != value:
                return False
            rank = (sq_dist(query, key), code)
            if rank <= previous:
                return False
            previous = rank
        return True

    # -- end-of-run checks --------------------------------------------------

    def brute_force_checks(
        self,
        windows: Sequence[Tuple[Key, Key]],
        knns: Sequence[Tuple[Key, int]],
    ) -> None:
        """Check whole answers through :class:`ReferenceModel`.

        The model answers over an exact pre-filter of the contents (the
        x-slab a box or kNN ball can reach), which gives the same answer
        as a scan of everything at a fraction of the cost.
        """
        from repro.check.model import ReferenceModel

        by_x = sorted(self.model.items())
        xs = [key[0] for key, _ in by_x]

        def slab(lo_x: int, hi_x: int) -> List[Tuple[Key, int]]:
            return by_x[bisect.bisect_left(xs, lo_x) : bisect.bisect_right(xs, hi_x)]

        def oracle(entries: Sequence[Tuple[Key, int]]) -> ReferenceModel:
            ref = ReferenceModel(DIMS, WIDTH)
            ref.data = dict(entries)
            return ref

        for lo, hi in windows:
            expected = oracle(slab(lo[0], hi[0])).query(lo, hi)
            self._end_check(("window", lo, hi), self.store.query, expected)
        for query, k in knns:
            # Grow an x-slab until k entries lie within its half-width:
            # every entry of the k-NN ball is then inside the slab.
            radius = 1 << 8
            while True:
                near = [
                    (key, value)
                    for key, value in slab(query[0] - radius, query[0] + radius)
                    if sq_dist(query, key) <= radius * radius
                ]
                if len(near) >= k or radius > 2 * (1 << WIDTH):
                    break
                radius *= 2
            expected = oracle(near).knn(query, k)
            self._end_check(("knn", query, k), self.store.knn, expected)

    def _end_check(self, op: Op, fn: Callable, expected: Any) -> None:
        self.attempted += 1
        try:
            result = fn(*op[1:])
        except Exception as exc:
            self._fail(op, f"raised {exc!r}")
            return
        if result != expected:
            self._fail(op, "differs from the brute-force answer")

    def check_contents(self, items: List[Tuple[Key, int]]) -> None:
        """A reopened store's ``items()`` must equal the model exactly."""
        self.attempted += 1
        if len(items) != len(self.model) or dict(items) != self.model:
            self._fail(("reopen",), "recovered contents differ from the model")


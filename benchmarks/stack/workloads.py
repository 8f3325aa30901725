"""The four workloads of the stack benchmark: data, store prep, op streams.

Everything here is a pure function of ``(workload, seed, scale,
seconds)``: the same arguments give the same keys, values and op
sequence in every process, so the prep child, the measuring process and
a rerun all agree on what the store must contain.

An op is a tuple ``(kind, *args)``; :data:`METHOD` maps each kind to the
``DurablePHTree`` method that serves it.  Streams are generators, so the
measuring loop pulls ops between timed chunks and never pays for their
generation.  Write streams simulate the live key set while generating,
which is what lets them pick only removals and key moves that succeed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

DIMS = 3
WIDTH = 20
SHARDS = 8
DOMAIN = 1 << WIDTH
KNN_K = 10
GET_MANY_BATCH = 64
GROUP_COMMIT_BATCH = 100

Key = Tuple[int, ...]
Op = Tuple[Any, ...]

#: Op kind -> the ``DurablePHTree`` method that serves it.
METHOD = {
    "get": "get",
    "get_many": "get_many",
    "window": "query",
    "wide_window": "query",
    "knn": "knn",
    "put": "put",
    "group_commit": "put_all",
    "remove": "remove",
    "update_key": "update_key",
    "flush": "flush",
    "compact": "compact",
}

#: Kinds that rewrite segments rather than serve one client request.
MAINTENANCE = frozenset({"flush", "compact"})
WRITES = frozenset({"put", "group_commit", "remove", "update_key"})
#: Window sizes are separate kinds: a latency median over a mix of
#: ~100-hit and ~800-hit windows would fall between the two modes.
WINDOWS = frozenset({"window", "wide_window"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Op kinds reported as ``primary_us_*`` / ``secondary_us_*``.
    primary: str
    secondary: str
    #: Op kinds per second of ``--seconds`` at scale 1.
    rates: Dict[str, float]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "point-read",
            "200k CUBE keys recovered from segments only; gets and 64-key "
            "get_many: point descent, routing, read locks, segment recovery; "
            "no WAL, flush, window or kNN",
            "get",
            "get_many",
            {"get": 90_000, "get_many": 1_100},
        ),
        Workload(
            "window-knn-cluster",
            "200k skewed CLUSTER keys; windows of two sizes and 10-NN near "
            "data: range kernel, kNN, shard fan-out and merge; no writes",
            "wide_window",
            "knn",
            {"window": 775, "wide_window": 775, "knn": 470},
        ),
        Workload(
            "ingest",
            "fsync'd puts, 100-entry group commits and removes with flush "
            "and compaction counted as ops: WAL, freeze, PHL1 fit, rewrite; "
            "no reads",
            "put",
            "group_commit",
            {"group_commit": 110, "put": 800, "remove": 400},
        ),
        Workload(
            "mixed-recent",
            "gets biased to recent keys, windows, kNN and writes over 150k "
            "segment keys plus a 30k-record WAL tail: reads of the unflushed "
            "delta and WAL replay",
            "get",
            "put",
            {"mixed": 21_000},
        ),
    )
}

#: Entries checkpointed into segments before the run, at scale 1.
_BASE_ENTRIES = {
    "point-read": 200_000,
    "window-knn-cluster": 200_000,
    "ingest": 50_000,
    "mixed-recent": 150_000,
}
#: WAL records written after the checkpoint (replayed by ``open``).
_WAL_TAIL = {"mixed-recent": 30_000}
#: Pending ops that trigger a flush (ingest) / writes between flushes
#: (mixed-recent), at scale 1.
_FLUSH_EVERY = {"ingest": 15_000, "mixed-recent": 15_000}
_COMPACT_EVERY_FLUSHES = 4
_RECENT_KEYS = 5_000

_MIXED_WEIGHTS = (
    ("get", 0.50),
    ("window", 0.10),
    ("knn", 0.05),
    ("put", 0.25),
    ("remove", 0.08),
    ("update_key", 0.02),
)


def _rng(seed: int, name: str, purpose: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{name}:{purpose}")


def _scaled(value: float, scale: float) -> int:
    return max(1, round(value * scale))


def _cube_key(rng: random.Random) -> Key:
    r = rng.randrange
    return (r(DOMAIN), r(DOMAIN), r(DOMAIN))


def _cluster_keys(n: int, seed: int) -> List[Key]:
    from repro.datasets.cluster import generate_cluster

    top = DOMAIN - 1
    # CLUSTER points can fall just outside [0, 1): clamp both ends.
    return [
        tuple(min(top, max(0, int(v * DOMAIN))) for v in point)
        for point in generate_cluster(n, DIMS, seed=seed)
    ]


class LiveKeys:
    """The live key set with O(1) add, remove and uniform choice."""

    __slots__ = ("keys", "_pos")

    def __init__(self, keys: Sequence[Key]) -> None:
        self.keys: List[Key] = list(keys)
        self._pos = {key: i for i, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key: Key) -> None:
        if key not in self._pos:
            self._pos[key] = len(self.keys)
            self.keys.append(key)

    def discard(self, key: Key) -> None:
        i = self._pos.pop(key, None)
        if i is None:
            return
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self._pos[last] = i

    def choice(self, rng: random.Random) -> Key:
        return self.keys[rng.randrange(len(self.keys))]

    def fresh(self, rng: random.Random) -> Key:
        """A uniformly random CUBE key not in the set."""
        while True:
            key = _cube_key(rng)
            if key not in self._pos:
                return key


@dataclass
class InitialState:
    """What the prep child writes: ``base`` is ``put_all`` then
    ``checkpoint``; ``tail`` ops stay in the WAL for ``open`` to replay."""

    base: List[Tuple[Key, int]]
    tail: List[Op]

    def contents(self) -> Dict[Key, int]:
        """The store contents after prep (the checking model)."""
        model = dict(self.base)
        for op in self.tail:
            apply_to_model(model, op)
        return model


def initial_state(name: str, seed: int, scale: float) -> InitialState:
    rng = _rng(seed, name, "data")
    n = _scaled(_BASE_ENTRIES[name], scale)
    if name == "window-knn-cluster":
        keys = list(dict.fromkeys(_cluster_keys(n, seed)))
    else:
        unique: Dict[Key, None] = {}
        while len(unique) < n:
            unique[_cube_key(rng)] = None
        keys = list(unique)
    base = [(key, rng.getrandbits(64)) for key in keys]
    tail: List[Op] = []
    tail_records = _WAL_TAIL.get(name, 0)
    if tail_records:
        # A realistic unflushed tail: mostly inserts, some deletes and
        # key moves, so replay exercises every WAL record type.
        live = LiveKeys(keys)
        n_tail = _scaled(tail_records, scale)
        n_remove = n_tail // 15
        n_move = n_tail // 30
        n_put = n_tail - n_remove - n_move
        batch: List[Tuple[Key, int]] = []
        for _ in range(n_put):
            key = live.fresh(rng)
            live.add(key)
            batch.append((key, rng.getrandbits(64)))
            if len(batch) == 1_000:
                tail.append(("group_commit", batch))
                batch = []
        if batch:
            tail.append(("group_commit", batch))
        for _ in range(n_remove):
            key = live.choice(rng)
            live.discard(key)
            tail.append(("remove", key))
        for _ in range(n_move):
            old = live.choice(rng)
            new = live.fresh(rng)
            live.discard(old)
            live.add(new)
            tail.append(("update_key", old, new))
    return InitialState(base, tail)


def prepare(store: Any, state: InitialState) -> None:
    """Write ``state`` into a freshly created store."""
    store.put_all(state.base)
    store.checkpoint()
    for op in state.tail:
        getattr(store, METHOD[op[0]])(*op[1:])


def apply_to_model(model: Dict[Key, int], op: Op) -> None:
    """Apply a write op to the checking model (reads are no-ops)."""
    kind = op[0]
    if kind == "put":
        model[op[1]] = op[2]
    elif kind == "group_commit":
        model.update(op[1])
    elif kind == "remove":
        del model[op[1]]
    elif kind == "update_key":
        model[op[2]] = model.pop(op[1])


def op_counts(name: str, seconds: float, scale: float) -> Dict[str, int]:
    """Client ops of each kind the stream issues (maintenance excluded)."""
    return {
        kind: _scaled(rate * seconds, scale)
        for kind, rate in WORKLOADS[name].rates.items()
    }


def box(center: Key, extent: int) -> Tuple[Key, Key]:
    half = extent // 2
    top = DOMAIN - 1
    lo = tuple(max(0, c - half) for c in center)
    hi = tuple(min(top, c - half + extent - 1) for c in center)
    return lo, hi


def jitter(key: Key, radius: int, rng: random.Random) -> Key:
    top = DOMAIN - 1
    return tuple(
        min(top, max(0, v + rng.randint(-radius, radius))) for v in key
    )


def op_stream(
    name: str, seed: int, scale: float, seconds: float, keys: Sequence[Key]
) -> Iterator[Op]:
    """The workload's closed-loop op sequence over initial ``keys``."""
    rng = _rng(seed, name, "ops")
    counts = op_counts(name, seconds, scale)
    live = LiveKeys(keys)
    if name == "point-read":
        return _point_read(rng, counts, live)
    if name == "window-knn-cluster":
        return _window_knn(rng, counts, live)
    if name == "ingest":
        return _ingest(rng, counts, live, _scaled(_FLUSH_EVERY[name], scale))
    return _mixed(
        rng,
        counts["mixed"],
        live,
        _scaled(_FLUSH_EVERY[name], scale),
        _scaled(_RECENT_KEYS, scale),
        keys,
    )


def _point_read(rng, counts, live) -> Iterator[Op]:
    # 10% of lookups miss; absent keys come from the same CUBE
    # distribution, so a miss descends as deep as a hit would.
    def pick() -> Key:
        if rng.random() < 0.1:
            return live.fresh(rng)
        return live.choice(rng)

    total = counts["get"] + counts["get_many"]
    p_many = counts["get_many"] / total
    for _ in range(total):
        if rng.random() < p_many:
            yield ("get_many", [pick() for _ in range(GET_MANY_BATCH)])
        else:
            yield ("get", pick())


def _window_knn(rng, counts, live) -> Iterator[Op]:
    kinds = list(counts)
    weights = [counts[k] for k in kinds]
    knn_radius = DOMAIN >> 10
    for _ in range(sum(weights)):
        kind = rng.choices(kinds, weights)[0]
        anchor = live.choice(rng)
        if kind == "knn":
            yield ("knn", jitter(anchor, knn_radius, rng), KNN_K)
        else:
            extent = DOMAIN >> (12 if kind == "window" else 8)
            yield (kind,) + box(anchor, extent)


def _ingest(rng, counts, live, flush_every) -> Iterator[Op]:
    # Removals target keys this run wrote, i.e. data still in the WAL
    # or in a young segment.
    written = LiveKeys(())
    remaining = dict(counts)
    pending = flushes = 0
    while any(remaining.values()):
        kinds = [k for k, left in remaining.items() if left]
        kind = rng.choices(kinds, [remaining[k] for k in kinds])[0]
        remaining[kind] -= 1
        if kind == "remove" and written:
            key = written.choice(rng)
            written.discard(key)
            live.discard(key)
            yield ("remove", key)
            pending += 1
        else:
            batch = GROUP_COMMIT_BATCH if kind == "group_commit" else 1
            entries = []
            for _ in range(batch):
                key = live.fresh(rng)
                live.add(key)
                written.add(key)
                entries.append((key, rng.getrandbits(64)))
            if kind == "group_commit":
                yield ("group_commit", entries)
            else:
                yield ("put",) + entries[0]
            pending += batch
        if pending >= flush_every:
            yield ("flush",)
            pending = 0
            flushes += 1
            if flushes % _COMPACT_EVERY_FLUSHES == 0:
                yield ("compact",)
    yield ("compact",)


def _mixed(rng, total, live, flush_every, recent_cap, keys) -> Iterator[Op]:
    # The recent-key ring starts with the newest keys of the initial
    # state (the WAL tail), i.e. entries that live only in the delta.
    recent = deque(keys[-recent_cap:], maxlen=recent_cap)
    kinds = [k for k, _ in _MIXED_WEIGHTS]
    weights = [w for _, w in _MIXED_WEIGHTS]
    window = DOMAIN >> 5
    writes = 0
    for _ in range(total):
        kind = rng.choices(kinds, weights)[0]
        if kind == "get":
            if rng.random() < 0.5:
                yield ("get", recent[rng.randrange(len(recent))])
            else:
                yield ("get", live.choice(rng))
            continue
        if kind == "window":
            yield ("window",) + box(live.choice(rng), window)
            continue
        if kind == "knn":
            yield ("knn", _cube_key(rng), KNN_K)
            continue
        if kind == "put":
            if rng.random() < 0.8:
                key = live.fresh(rng)
                live.add(key)
            else:
                key = live.choice(rng)
            recent.append(key)
            yield ("put", key, rng.getrandbits(64))
        elif kind == "remove":
            key = live.choice(rng)
            live.discard(key)
            yield ("remove", key)
        else:
            old = live.choice(rng)
            new = live.fresh(rng)
            live.discard(old)
            live.add(new)
            recent.append(new)
            yield ("update_key", old, new)
        writes += 1
        if writes % flush_every == 0:
            yield ("flush",)

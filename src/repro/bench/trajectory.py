"""Perf-trajectory micro-benchmarks for the core hot paths.

The paper's headline claims are throughput claims (Section 4: inserts,
point queries, range queries per second against kD-trees and critbit
trees), so this reproduction tracks its own speed over time: each run
times the hot paths at a small, fixed scale and writes the numbers to
``BENCH_core.json`` at the repository root.  That file is the perf
trajectory -- every PR regenerates it (``make bench-json``) and future
PRs must not regress the recorded speedups.

Measured (best of ``repeats`` runs each, CUBE-distributed integer keys):

- ``insert``: sequential ``put`` loop (specialized kernels), plus the
  generic-engine twin (``specialize=False``) as its baseline,
- ``delete``: sequential ``remove`` loop draining a freshly built tree,
- ``bulk_load``: the bottom-up builder over the same entry set,
- ``point_seq``: sequential ``get`` per key over a z-sorted batch
  (specialized), plus the generic-engine twin,
- ``point_batch`` / ``point_batch_presorted``: the same batch through
  :meth:`PHTree.get_many` (with and without the internal sort),
- ``range_kernel`` vs ``range_generator``: the *generic* iterative
  range-scan kernel against the seed generator-stack engine, on
  Figure-9-style window queries (normalised per returned entry),
- ``range_spec``: the same boxes through the per-(k, width) specialized
  kernel (see :mod:`repro.core.specialize`),
- ``query_many``: the batched window engine over the same boxes,
- ``knn``: 10-nearest-neighbour queries,
- ``*_arena``: the flat-buffer arena engine (``layout="arena"``) run
  over the same workloads -- insert, delete, point (sequential and
  batched), window queries and ``freeze()`` -- against the object
  engine, plus a ``space`` section with real bytes-per-entry for both
  mutable layouts (``repro.memory.report.arena_space_report``),
- ``frozen_point`` / ``frozen_window`` / ``frozen_knn`` against their
  ``learned_*`` twins: the frozen snapshot's exact bit-stream descent
  vs the model-seeded bisect over the *same* blob (the PHL1 learned
  trailer from :mod:`repro.learned`, attached twice -- once with the
  trailer ignored), with parity asserted before timing,
- ``router_balance``: shard-population imbalance of the fixed z-prefix
  router vs the learned CDF router on prefix-skewed CLUSTER keys,
- ``sharded_knn``: 10-NN on CLUSTER keys through an 8-shard
  learned-router ``ShardedPHTree`` against one unsharded ``PHTree``
  (``sharded_knn_ratio`` is sharded time over unsharded time),
- ``point_read_layers``: one point read at each layer of an 8-shard
  ``DurablePHTree`` reopened from its segments -- the shard tree's
  ``get``, ``ShardedPHTree.get``, ``DurablePHTree.get`` and
  ``get_many`` -- plus one uncontended ``ReadWriteLock`` read
  (``point_read_durable_over_shard`` is the whole stack's cost over
  the shard tree's).

Derived speedups are the acceptance numbers: ``speedup_get_many`` /
``speedup_range_iter`` (batching and the iterative kernel against the
seed engine), and ``speedup_spec_insert`` / ``speedup_spec_point`` /
``speedup_spec_window`` (the specialized kernels against the generic
engines they replaced on the hot path -- every workload first asserts
the two produce identical results), and ``speedup_learned_frozen_point``
/ ``speedup_learned_window_seek`` / ``speedup_learned_frozen_knn`` (the
learned z-address model against the exact frozen descent).

Usage::

    PYTHONPATH=src python -m repro.bench.trajectory -o BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import z_sort_key
from repro.encoding.interleave import interleave as _z_interleave
from repro.core.phtree import PHTree
from repro.core.specialize import registry_cap as _registry_cap
from repro.core.specialize import registry_size as _registry_size
from repro.core.range_query import generator_range_iter, range_iter
from repro.datasets.cube import generate_cube
from repro.datasets.rng import make_rng

__all__ = ["SCALES", "main", "run_trajectory", "write_report"]

#: Benchmark scale presets.  The trajectory is a *relative* measure, so
#: the scale stays small enough to run inside the test suite; ``small``
#: is the canonical scale recorded in BENCH_core.json.
SCALES: Dict[str, Dict[str, int]] = {
    "tiny": {"n": 2_000, "n_boxes": 60, "n_knn": 20, "repeats": 3},
    "small": {"n": 10_000, "n_boxes": 200, "n_knn": 60, "repeats": 5},
    "medium": {"n": 50_000, "n_boxes": 400, "n_knn": 120, "repeats": 3},
}

#: Fixed workload shape: 3 dimensions at 20-bit precision, CUBE data.
DIMS = 3
WIDTH = 20

SCHEMA_VERSION = 1


def _best(func: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``func``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _best_group(
    funcs: "List[Callable[[], Any]]", repeats: int
) -> "List[float]":
    """Best-of-``repeats`` for several *competing* candidates, timed
    round-robin: every round times each candidate once, so slow machine
    drift (thermal throttling, background load) lands on all of them
    equally instead of on whichever was measured last.  The engine-vs-
    engine speedup ratios in the report are only meaningful with this
    pairing."""
    best = [float("inf")] * len(funcs)
    for _ in range(repeats):
        for i, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            elapsed = time.perf_counter() - start
            if elapsed < best[i]:
                best[i] = elapsed
    return best


def _make_keys(n: int, seed: int) -> List[Tuple[int, ...]]:
    """CUBE-distributed integer keys (deduplicated, exactly n kept when
    possible)."""
    scale = 1 << WIDTH
    seen = set()
    keys: List[Tuple[int, ...]] = []
    # Over-generate slightly; collisions are rare at this density.
    for point in generate_cube(n + n // 10 + 16, DIMS, seed=seed):
        key = tuple(min(int(v * scale), scale - 1) for v in point)
        if key not in seen:
            seen.add(key)
            keys.append(key)
            if len(keys) == n:
                break
    return keys


def _make_boxes(
    n_boxes: int, seed: int
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Figure-9-style window queries: fixed-extent boxes at random
    positions (~1/64 of the domain volume each)."""
    rng = make_rng(seed + 1)
    top = (1 << WIDTH) - 1
    extent = 1 << (WIDTH - 2)
    boxes = []
    for _ in range(n_boxes):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        hi = tuple(min(v + extent, top) for v in lo)
        boxes.append((lo, hi))
    return boxes


def _instrument_pass(
    tree: PHTree,
    build: Callable[[], PHTree],
    batch: List[Tuple[int, ...]],
    boxes: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    knn_queries: List[Tuple[int, ...]],
    frozen_learned: Any = None,
    seek_boxes: Optional[
        List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    ] = None,
) -> Dict[str, Any]:
    """Re-drive each benchmarked workload once with observability on and
    report its internal counters (nodes visited, slots scanned, ...).

    Runs strictly *after* all timings: instrumentation must never be
    enabled while the stopwatch is running.
    """
    from repro import obs
    from repro.obs import probes

    def stage(
        run: Callable[[], Any], fields: Dict[str, Any]
    ) -> Dict[str, int]:
        obs.reset()
        run()
        return {name: int(child.value) for name, child in fields.items()}

    obs.enable()
    try:
        counts = {
            "insert": stage(
                build,
                {
                    "nodes_visited": probes.write_nodes_visited,
                    "slots_scanned": probes.write_slots_scanned,
                    "nodes_created": probes.tree_nodes_created,
                    "ops": probes.ops_put,
                },
            ),
            "point_seq": stage(
                lambda: [tree.get(key) for key in batch],
                {
                    "nodes_visited": probes.point_nodes_visited,
                    "slots_scanned": probes.point_slots_scanned,
                    "ops": probes.ops_get,
                },
            ),
            "point_batch": stage(
                lambda: tree.get_many(batch),
                {
                    "nodes_visited": probes.batch_nodes_visited,
                    "slots_scanned": probes.batch_slots_scanned,
                    "keys": probes.batch_keys_get,
                    "ops": probes.ops_get_many,
                },
            ),
            "range_kernel": stage(
                lambda: [
                    sum(1 for _ in tree.query(lo, hi)) for lo, hi in boxes
                ],
                {
                    "nodes_visited": probes.kernel_nodes_visited,
                    "slots_scanned": probes.kernel_slots_scanned,
                    "frames_pushed": probes.kernel_frames_pushed,
                    "full_cover_flushes": probes.kernel_full_cover_flushes,
                    "entries_yielded": probes.kernel_entries_yielded,
                    "ops": probes.ops_query,
                },
            ),
            "query_many": stage(
                lambda: tree.query_many(boxes),
                {
                    "nodes_visited": probes.qmany_nodes_visited,
                    "slots_scanned": probes.qmany_slots_scanned,
                    "ops": probes.ops_query_many,
                },
            ),
            "knn": stage(
                lambda: [tree.knn(query, 10) for query in knn_queries],
                {
                    "regions_expanded": probes.knn_regions_expanded,
                    "heap_pushes": probes.knn_heap_pushes,
                    "heap_high_water": probes.knn_heap_high_water,
                    "entries_yielded": probes.knn_entries_yielded,
                    "ops": probes.ops_knn,
                },
            ),
        }
        if frozen_learned is not None:
            counts["learned_point"] = stage(
                lambda: [frozen_learned.get(key) for key in batch],
                {
                    "model_lookups": probes.learned_lookups_point,
                    "fallbacks": probes.learned_fallbacks_point,
                    "segments_consulted": (
                        probes.learned_segments_consulted
                    ),
                    "prediction_error": probes.learned_prediction_error,
                },
            )
        if frozen_learned is not None and seek_boxes:
            counts["learned_window"] = stage(
                lambda: [
                    sum(1 for _ in frozen_learned.query(lo, hi))
                    for lo, hi in seek_boxes
                ],
                {
                    "model_lookups": probes.learned_lookups_window,
                    "fallbacks": probes.learned_fallbacks_window,
                    "segments_consulted": (
                        probes.learned_segments_consulted
                    ),
                    "prediction_error": probes.learned_prediction_error,
                },
            )
        # Write path, deleting side: drain a fresh tree (built outside
        # the stage so its put probes don't pollute the delete counts).
        victim = build()
        counts["delete"] = stage(
            lambda: [victim.remove(key) for key in batch],
            {
                "nodes_visited": probes.write_nodes_visited,
                "slots_scanned": probes.write_slots_scanned,
                "nodes_merged": probes.tree_nodes_merged,
                "ops": probes.ops_remove,
            },
        )
    finally:
        obs.disable()
        obs.reset()
    return counts


def run_trajectory(
    scale: str = "small", seed: int = 0, instrument: bool = False
) -> Dict[str, Any]:
    """Run the micro-benchmarks and return the trajectory report dict.

    With ``instrument=True`` the report gains an ``instrumentation``
    section: each benchmarked op re-run once (after the timings) with
    :mod:`repro.obs` enabled, recording nodes visited, slots scanned
    and friends.
    """
    if scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}, expected one of {sorted(SCALES)}"
        )
    params = SCALES[scale]
    n = params["n"]
    repeats = params["repeats"]
    keys = _make_keys(n, seed)
    values = list(range(len(keys)))
    boxes = _make_boxes(params["n_boxes"], seed)
    rng = make_rng(seed + 2)
    knn_queries = [
        tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        for _ in range(params["n_knn"])
    ]

    # -- insert: specialized kernels vs the generic engines --------------
    def build() -> PHTree:
        # The object engine is the comparison baseline for every
        # speedup_arena_* record; pin it now that "arena" is the
        # session default layout.
        tree = PHTree(dims=DIMS, width=WIDTH, layout="object")
        put = tree.put
        for key, value in zip(keys, values):
            put(key, value)
        return tree

    def build_generic() -> PHTree:
        tree = PHTree(
            dims=DIMS, width=WIDTH, specialize=False, layout="object"
        )
        put = tree.put
        for key, value in zip(keys, values):
            put(key, value)
        return tree

    def build_arena() -> PHTree:
        tree = PHTree(dims=DIMS, width=WIDTH, layout="arena")
        put = tree.put
        for key, value in zip(keys, values):
            put(key, value)
        return tree

    t_insert, t_insert_generic, t_insert_arena = _best_group(
        [build, build_generic, build_arena], repeats
    )
    tree = build()
    tree_generic = build_generic()
    tree_arena = build_arena()

    # -- delete: drain a freshly built tree ------------------------------
    def drain_once(builder: Callable[[], PHTree]) -> float:
        victim = builder()
        remove = victim.remove
        start = time.perf_counter()
        for key in keys:
            remove(key)
        elapsed = time.perf_counter() - start
        assert len(victim) == 0
        return elapsed

    t_delete = float("inf")
    t_delete_arena = float("inf")
    for _ in range(repeats):
        t_delete = min(t_delete, drain_once(build))
        t_delete_arena = min(t_delete_arena, drain_once(build_arena))

    # -- bulk load: bottom-up build over the same entries ----------------
    from repro.core.bulk import bulk_load

    entries = list(zip(keys, values))
    t_bulk = _best(
        lambda: bulk_load(entries, dims=DIMS, width=WIDTH), repeats
    )

    # -- point queries: sequential vs batched ----------------------------
    batch = sorted(keys, key=z_sort_key(DIMS, WIDTH))

    def point_seq() -> None:
        get = tree.get
        for key in batch:
            get(key)

    def point_seq_generic() -> None:
        get = tree_generic.get
        for key in batch:
            get(key)

    def point_seq_arena() -> None:
        get = tree_arena.get
        for key in batch:
            get(key)

    t_point_seq, t_point_seq_generic, t_point_seq_arena = _best_group(
        [point_seq, point_seq_generic, point_seq_arena], repeats
    )
    t_point_batch, t_point_batch_pre, t_point_batch_arena = _best_group(
        [
            lambda: tree.get_many(batch),
            lambda: tree.get_many(batch, presorted=True),
            lambda: tree_arena.get_many(batch),
        ],
        repeats,
    )
    # Sanity: the engines must agree before their timings mean anything.
    assert tree.get_many(batch) == [tree.get(k) for k in batch]
    assert tree.get_many(batch) == tree_generic.get_many(batch)
    assert tree.get_many(batch) == tree_arena.get_many(batch)

    # -- range queries: iterative kernel vs seed generator engine --------
    root = tree.root
    spec = tree.specialization

    def run_range(engine: Callable) -> int:
        total = 0
        for lo, hi in boxes:
            for _ in engine(root, lo, hi):
                total += 1
        return total

    def run_range_spec() -> int:
        total = 0
        for lo, hi in boxes:
            for _ in range_iter(root, lo, hi, spec):
                total += 1
        return total

    def run_range_arena() -> int:
        total = 0
        for lo, hi in boxes:
            for _ in tree_arena.query(lo, hi):
                total += 1
        return total

    returned = run_range(range_iter)
    assert returned == run_range(generator_range_iter)
    assert returned == run_range_arena()
    # Bit-identical output (entries AND order) from the specialized twin.
    for lo, hi in boxes[: min(8, len(boxes))]:
        assert list(range_iter(root, lo, hi, spec)) == list(
            range_iter(root, lo, hi)
        )
    (
        t_range_kernel,
        t_range_spec,
        t_range_generator,
        t_query_many,
        t_range_arena,
    ) = _best_group(
        [
            lambda: run_range(range_iter),
            run_range_spec,
            lambda: run_range(generator_range_iter),
            lambda: tree.query_many(boxes),
            run_range_arena,
        ],
        repeats,
    )

    # -- freeze: per-node object walk vs straight-from-slab copy ---------
    from repro.core.frozen import freeze
    from repro.core.serialize import U64ValueCodec as _U64

    assert freeze(tree, _U64) == freeze(tree_arena, _U64)
    t_freeze_object, t_freeze_arena = _best_group(
        [lambda: freeze(tree, _U64), lambda: freeze(tree_arena, _U64)],
        repeats,
    )

    # -- kNN -------------------------------------------------------------
    def run_knn() -> None:
        knn = tree.knn
        for query in knn_queries:
            knn(query, 10)

    t_knn = _best(run_knn, repeats)

    # -- frozen reads: exact descent vs the learned z-address model ------
    # One learned freeze serves both sides: the exact baseline attaches
    # the same blob with the trailer ignored, so the byte streams (and
    # cache behaviour) are identical and only the lookup path differs.
    from repro.core.frozen import FrozenPHTree

    t_fit_start = time.perf_counter()
    blob_learned = freeze(tree_arena, _U64, learned=True)
    t_learned_fit = time.perf_counter() - t_fit_start
    frozen_exact = FrozenPHTree(blob_learned, _U64, learned=False)
    frozen_learned = FrozenPHTree(blob_learned, _U64)
    model = frozen_learned.learned_index
    assert model is not None, "learned trailer failed to attach"

    # Parity first: both frozen paths must agree with the live tree.
    assert [frozen_exact.get(k) for k in batch] == [
        tree.get(k) for k in batch
    ]
    assert [frozen_learned.get(k) for k in batch] == [
        frozen_exact.get(k) for k in batch
    ]

    def frozen_point() -> None:
        get = frozen_exact.get
        for key in batch:
            get(key)

    def learned_point() -> None:
        get = frozen_learned.get
        for key in batch:
            get(key)

    t_frozen_point, t_learned_point = _best_group(
        [frozen_point, learned_point], repeats
    )

    def run_window(frozen: FrozenPHTree) -> int:
        total = 0
        for lo, hi in boxes:
            for _ in frozen.query(lo, hi):
                total += 1
        return total

    assert run_window(frozen_exact) == returned
    assert run_window(frozen_learned) == returned
    t_frozen_window, t_learned_window = _best_group(
        [
            lambda: run_window(frozen_exact),
            lambda: run_window(frozen_learned),
        ],
        repeats,
    )

    # Seek workload: narrow windows anchored at data keys (1/256 of the
    # domain per dimension, >= 1 hit each).  These are the queries the
    # model's predicted scan start accelerates; the fat Figure-9 boxes
    # above mostly exceed the scan cap and fall back to the exact walk,
    # so they gate no-regression rather than the seek win.
    seek_extent = 1 << (WIDTH - 8)
    seek_top = (1 << WIDTH) - 1
    seek_boxes = [
        (key, tuple(min(v + seek_extent, seek_top) for v in key))
        for key in batch[: min(300, len(batch))]
    ]
    for lo, hi in seek_boxes[: min(32, len(seek_boxes))]:
        assert list(frozen_learned.query(lo, hi)) == list(
            frozen_exact.query(lo, hi)
        )

    def run_seek(frozen: FrozenPHTree) -> None:
        query = frozen.query
        for lo, hi in seek_boxes:
            for _ in query(lo, hi):
                pass

    t_frozen_seek, t_learned_seek = _best_group(
        [
            lambda: run_seek(frozen_exact),
            lambda: run_seek(frozen_learned),
        ],
        repeats,
    )

    for query in knn_queries[: min(8, len(knn_queries))]:
        assert frozen_learned.knn(query, 10) == frozen_exact.knn(
            query, 10
        )

    def run_frozen_knn(frozen: FrozenPHTree) -> None:
        knn = frozen.knn
        for query in knn_queries:
            knn(query, 10)

    t_frozen_knn, t_learned_knn = _best_group(
        [
            lambda: run_frozen_knn(frozen_exact),
            lambda: run_frozen_knn(frozen_learned),
        ],
        repeats,
    )
    model_stats = model.stats()

    # -- router balance: fixed z-prefix cuts vs the learned CDF ----------
    # CLUSTER data squeezed into the lowest quarter of every dimension:
    # all coordinates share their top two bits, so every key lands in
    # prefix shard 0 while the learned equi-mass cuts stay balanced.
    from repro.datasets.cluster import generate_cluster
    from repro.learned.router import LearnedZRouter
    from repro.parallel.router import ZShardRouter

    n_shards = 8
    scale_f = (1 << WIDTH) / 4.0
    skew_seen = set()
    skew_zs: List[int] = []
    z_of = (lambda key: _z_interleave(key, WIDTH)) if spec is None \
        else spec.interleave
    for point in generate_cluster(
        n // 2, DIMS, offset=0.25, seed=seed + 3
    ):
        key = tuple(
            min(max(int(v * scale_f), 0), (1 << WIDTH) - 1)
            for v in point
        )
        if key not in skew_seen:
            skew_seen.add(key)
            skew_zs.append(z_of(key))
    skew_zs.sort()
    prefix_router = ZShardRouter(DIMS, WIDTH, n_shards)
    learned_router = LearnedZRouter.from_sorted_zcodes(
        skew_zs, DIMS, WIDTH, n_shards
    )
    ideal = len(skew_zs) / n_shards

    def imbalance(router: Any) -> float:
        counts = [0] * n_shards
        for z in skew_zs:
            counts[router.shard_of_z(z)] += 1
        return max(counts) / ideal

    prefix_imbalance = imbalance(prefix_router)
    learned_imbalance = imbalance(learned_router)

    # -- durable store: WAL append throughput + crash recovery -----------
    import shutil
    import tempfile

    from repro.core.serialize import U64ValueCodec
    from repro.store.engine import DurablePHTree

    store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    wal_keys = keys[: min(1000, len(keys))]
    try:
        with DurablePHTree.open(
            os.path.join(store_root, "wal"),
            dims=DIMS,
            width=WIDTH,
            shards=8,
            value_codec=U64ValueCodec,
        ) as wal_store:

            def wal_appends() -> None:
                put = wal_store.put
                for i, key in enumerate(wal_keys):
                    put(key, i)

            # Per-op appends: one frame + one fsync each (the durable
            # put path); group commit frames the whole batch into one
            # write + one fsync.
            t_wal_append = _best(wal_appends, repeats)
            all_entries = list(zip(keys, values))
            t_wal_group = _best(
                lambda: wal_store.put_all(all_entries), repeats
            )

        recover_dir = os.path.join(store_root, "recover")
        half = len(keys) // 2
        with DurablePHTree.open(
            recover_dir,
            dims=DIMS,
            width=WIDTH,
            shards=8,
            value_codec=U64ValueCodec,
        ) as seed_store:
            seed_store.put_all(list(zip(keys[:half], values[:half])))
            seed_store.flush()
            seed_store.put_all(list(zip(keys[half:], values[half:])))

        def recover() -> None:
            # Half the entries come back from mmap'd segments, half
            # are replayed from the WAL tail -- the worst-case open.
            DurablePHTree.open(
                recover_dir, value_codec=U64ValueCodec
            ).close()

        t_recover = _best(recover, repeats)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    n_keys = len(keys)
    n_returned = max(returned, 1)
    metrics = {
        "insert_us_per_op": t_insert * 1e6 / n_keys,
        "insert_generic_us_per_op": t_insert_generic * 1e6 / n_keys,
        "delete_us_per_op": t_delete * 1e6 / n_keys,
        "bulk_load_us_per_op": t_bulk * 1e6 / n_keys,
        "point_seq_us_per_op": t_point_seq * 1e6 / n_keys,
        "point_seq_generic_us_per_op": (
            t_point_seq_generic * 1e6 / n_keys
        ),
        "point_batch_us_per_op": t_point_batch * 1e6 / n_keys,
        "point_batch_presorted_us_per_op": (
            t_point_batch_pre * 1e6 / n_keys
        ),
        "range_kernel_us_per_entry": t_range_kernel * 1e6 / n_returned,
        "range_spec_us_per_entry": t_range_spec * 1e6 / n_returned,
        "range_generator_us_per_entry": (
            t_range_generator * 1e6 / n_returned
        ),
        "query_many_us_per_entry": t_query_many * 1e6 / n_returned,
        "knn_us_per_query": t_knn * 1e6 / max(len(knn_queries), 1),
        # Frozen reads: the exact bit-stream descent vs the learned
        # model-seeded bisect over the SAME bytes (one blob, attached
        # twice).  Windows and kNN use the model for the scan start /
        # search seed and fall back to the exact walk past the bound.
        "frozen_point_us_per_op": t_frozen_point * 1e6 / n_keys,
        "learned_frozen_point_us_per_op": (
            t_learned_point * 1e6 / n_keys
        ),
        "frozen_window_us_per_entry": (
            t_frozen_window * 1e6 / n_returned
        ),
        "learned_window_us_per_entry": (
            t_learned_window * 1e6 / n_returned
        ),
        "frozen_knn_us_per_query": (
            t_frozen_knn * 1e6 / max(len(knn_queries), 1)
        ),
        "learned_frozen_knn_us_per_query": (
            t_learned_knn * 1e6 / max(len(knn_queries), 1)
        ),
        "frozen_window_seek_us_per_query": (
            t_frozen_seek * 1e6 / max(len(seek_boxes), 1)
        ),
        "learned_window_seek_us_per_query": (
            t_learned_seek * 1e6 / max(len(seek_boxes), 1)
        ),
        "learned_fit_ms": t_learned_fit * 1e3,
        "speedup_learned_frozen_point": t_frozen_point / t_learned_point,
        "speedup_learned_window_seek": t_frozen_seek / t_learned_seek,
        "speedup_learned_window": t_frozen_window / t_learned_window,
        "speedup_learned_frozen_knn": t_frozen_knn / t_learned_knn,
        # Shard routing balance on prefix-skewed CLUSTER data (keys in
        # the lowest quarter of every dimension): 1.0 is perfect, the
        # shard count is the worst case (everything in one shard).
        "router_prefix_imbalance": prefix_imbalance,
        "router_learned_imbalance": learned_imbalance,
        "speedup_get_many": t_point_seq / t_point_batch,
        "speedup_get_many_presorted": t_point_seq / t_point_batch_pre,
        "speedup_range_iter": t_range_generator / t_range_kernel,
        "speedup_query_many": t_range_kernel / t_query_many,
        # Specialized kernels vs the generic engines they replace
        # (same tree contents, results asserted identical above).
        "speedup_spec_insert": t_insert_generic / t_insert,
        "speedup_spec_point": t_point_seq_generic / t_point_seq,
        "speedup_spec_window": t_range_kernel / t_range_spec,
        "speedup_bulk_load_vs_insert": t_insert / t_bulk,
        # Arena engine (layout="arena") on the same workloads; the
        # speedup_arena_* records are object-time / arena-time, so 1.0
        # means parity and the acceptance floor is 0.9.
        "insert_arena_us_per_op": t_insert_arena * 1e6 / n_keys,
        "delete_arena_us_per_op": t_delete_arena * 1e6 / n_keys,
        "point_seq_arena_us_per_op": t_point_seq_arena * 1e6 / n_keys,
        "point_batch_arena_us_per_op": (
            t_point_batch_arena * 1e6 / n_keys
        ),
        "range_arena_us_per_entry": t_range_arena * 1e6 / n_returned,
        "freeze_object_ms": t_freeze_object * 1e3,
        "freeze_arena_ms": t_freeze_arena * 1e3,
        "speedup_arena_insert": t_insert / t_insert_arena,
        "speedup_arena_delete": t_delete / t_delete_arena,
        "speedup_arena_point": t_point_seq / t_point_seq_arena,
        "speedup_arena_point_batch": (
            t_point_batch / t_point_batch_arena
        ),
        "speedup_arena_window": t_range_kernel / t_range_arena,
        "speedup_arena_freeze": t_freeze_object / t_freeze_arena,
        # Durable store: the WAL fsync-per-put path vs the group
        # commit, and the cost of crash recovery (mmap segments +
        # replay the WAL tail) per stored entry.
        "store_wal_append_us_per_op": (
            t_wal_append * 1e6 / max(len(wal_keys), 1)
        ),
        "store_wal_group_us_per_op": t_wal_group * 1e6 / n_keys,
        "store_recovery_ms": t_recover * 1e3,
        "store_recovery_us_per_entry": t_recover * 1e6 / n_keys,
        "speedup_store_group_commit": (
            (t_wal_append / max(len(wal_keys), 1))
            / (t_wal_group / n_keys)
        ),
    }

    # -- space: real bytes-per-entry, object vs arena vs packed floor ----
    from repro.memory.report import arena_space_report

    space = {
        name: round(value, 2)
        for name, value in arena_space_report(
            entries, DIMS, WIDTH
        ).items()
    }
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "generated_unix": int(time.time()),
        "scale": scale,
        "config": {
            "dims": DIMS,
            "width": WIDTH,
            "n_keys": n_keys,
            "n_boxes": len(boxes),
            "n_range_entries": returned,
            "n_knn_queries": len(knn_queries),
            "repeats": repeats,
            "seed": seed,
        },
        "environment": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "specialization": {
            "selected": spec is not None,
            "kernel": repr(spec) if spec is not None else "generic",
            "registry_size": _registry_size(),
            "registry_cap": _registry_cap(),
            "note": (
                "per-(k, width) unrolled kernels from "
                "repro.core.specialize; the *_generic and range_kernel "
                "records time the pre-specialization engines on the "
                "same data"
            ),
        },
        "learned_index": dict(
            model_stats,
            fit_ms=round(t_learned_fit * 1e3, 3),
            note=(
                "PHL1 trailer fit at freeze() time over the z-sorted "
                "entry stream (shrinking-cone PLA, per-segment measured "
                "errors); lookups bisect a +-err window around the "
                "model's predicted rank and fall back to the exact "
                "descent when a segment's measured error exceeds "
                "window_cap"
            ),
        ),
        "router_balance": {
            "distribution": "cluster-skew (offset 0.25, scaled to the "
            "lowest quarter of each dimension)",
            "n_keys": len(skew_zs),
            "shards": n_shards,
            "prefix_imbalance": round(prefix_imbalance, 4),
            "learned_imbalance": round(learned_imbalance, 4),
            "learned_cuts": len(learned_router.cuts),
            "note": (
                "max shard population over the ideal n/shards; the "
                "fixed z-prefix router sends every key whose top bits "
                "agree to one shard, the learned CDF router places its "
                "cuts at equi-mass order statistics of the z-stream"
            ),
        },
        "store": {
            "wal_sync_ops": len(wal_keys),
            "group_entries": n_keys,
            "recovery_entries": n_keys,
            "recovery_split": "half flushed segments, half WAL tail",
            "t_recover_s": round(t_recover, 6),
            "note": (
                "DurablePHTree over repro.store: per-put WAL appends "
                "pay one frame write + one fsync; put_all group-"
                "commits the batch in a single write + fsync; "
                "recovery mmap-attaches the committed segments and "
                "replays the WAL tail through per-shard sorted bulk "
                "loads"
            ),
        },
        "space": dict(
            space,
            note=(
                "bytes per entry at dims=3/width=20: the object "
                "engine's deep CPython footprint vs the arena slabs "
                "(capacity includes growth slack, live counts records "
                "only) vs the paper's Section 3.4 bit-stream layout "
                "as the packed floor"
            ),
        ),
        "metrics": {k: round(v, 4) for k, v in metrics.items()},
    }
    if instrument:
        report["instrumentation"] = _instrument_pass(
            tree,
            build,
            batch,
            boxes,
            knn_queries,
            frozen_learned=frozen_learned,
            seek_boxes=seek_boxes,
        )
    return _with_point_read_layers(_with_sharded_knn(report, scale, seed), scale, seed)


def _with_sharded_knn(
    report: Dict[str, Any], scale: str, seed: int
) -> Dict[str, Any]:
    """Add the ``sharded_knn`` record: 10-NN through an 8-shard
    learned-router :class:`~repro.parallel.ShardedPHTree` against one
    unsharded :class:`PHTree` over the same CLUSTER entries.

    Queries are data keys jittered by 2^-10 of the domain, as in the
    stack benchmark's ``window-knn-cluster`` workload.  Results are
    asserted identical (order included) before timing; the two engines
    are timed round-robin with :func:`_best_group`.
    """
    from repro.core.bulk import bulk_load
    from repro.datasets.cluster import generate_cluster
    from repro.parallel import ShardedPHTree

    params = SCALES[scale]
    top = (1 << WIDTH) - 1
    # CLUSTER points can fall just outside [0, 1): clamp both ends.
    keys = list(
        dict.fromkeys(
            tuple(min(top, max(0, int(v * (1 << WIDTH)))) for v in point)
            for point in generate_cluster(params["n"], DIMS, seed=seed)
        )
    )
    entries = [(key, i) for i, key in enumerate(keys)]
    rng = make_rng(seed + 3)
    radius = 1 << (WIDTH - 10)
    queries = []
    for _ in range(10 * params["n_knn"]):
        anchor = keys[rng.randrange(len(keys))]
        queries.append(
            tuple(
                min(top, max(0, v + rng.randint(-radius, radius)))
                for v in anchor
            )
        )
    shards = 8
    sharded = ShardedPHTree.build(
        entries, dims=DIMS, width=WIDTH, shards=shards, router="learned"
    )
    unsharded = bulk_load(entries, DIMS, WIDTH)
    n = 10  # the stack benchmark's KNN_K
    for query in queries:
        assert sharded.knn(query, n) == unsharded.knn(query, n), query

    t_sharded, t_unsharded = _best_group(
        [
            lambda: [sharded.knn(query, n) for query in queries],
            lambda: [unsharded.knn(query, n) for query in queries],
        ],
        params["repeats"],
    )
    per_query = 1e6 / len(queries)
    report["sharded_knn"] = {
        "distribution": "cluster",
        "n_keys": len(keys),
        "n_queries": len(queries),
        "n": n,
        "shards": shards,
        "router": "learned",
        "jitter": radius,
        "note": (
            "shards searched in ascending region distance, each bounded "
            "by the running n-th best distance, merged by (distance, "
            "shard, rank); parity with the unsharded tree asserted "
            "before timing"
        ),
    }
    report["metrics"].update(
        sharded_knn_us_per_query=round(t_sharded * per_query, 4),
        unsharded_knn_us_per_query=round(t_unsharded * per_query, 4),
        sharded_knn_ratio=round(t_sharded / t_unsharded, 4),
    )
    return report


def _point_read_candidates(
    trees: List[Any],
    live: Any,
    store: Any,
    lock: Any,
    shard_of: Callable[[Tuple[int, ...]], int],
    probes: List[Tuple[int, ...]],
) -> List[Callable[[], None]]:
    """The ``point_read_layers`` timings over ``probes``: the shard
    tree's ``get``, ``ShardedPHTree.get``, ``DurablePHTree.get``,
    ``DurablePHTree.get_many`` over 64-key batches and one uncontended
    read-lock enter and exit per probe."""
    routed = [(trees[shard_of(key)], key) for key in probes]
    batches = [probes[i : i + 64] for i in range(0, len(probes), 64)]

    def shard_get() -> None:
        for tree, key in routed:
            tree.get(key)

    def sharded_get() -> None:
        get = live.get
        for key in probes:
            get(key)

    def durable_get() -> None:
        get = store.get
        for key in probes:
            get(key)

    def durable_get_many() -> None:
        get_many = store.get_many
        for batch in batches:
            get_many(batch)

    def read_lock() -> None:
        for _ in probes:
            with lock.read():
                pass

    return [shard_get, sharded_get, durable_get, durable_get_many, read_lock]


def _with_point_read_layers(
    report: Dict[str, Any], scale: str, seed: int
) -> Dict[str, Any]:
    """Add the ``point_read_layers`` record: one point read timed at
    each layer of the durable stack over the same keys, 10% of them
    absent.

    A :class:`~repro.store.DurablePHTree` (8 shards) is written,
    checkpointed and reopened in a temporary directory, so its shards
    are recovered from segments as in the stack benchmark's
    ``point-read`` workload.  Timed round-robin with
    :func:`_best_group` over 256 probes at a time
    (:func:`_point_read_candidates`): ``PHTree.get`` on the shard tree
    that holds the key (no routing, no lock), ``ShardedPHTree.get`` on
    the store's live tree, ``DurablePHTree.get``,
    ``DurablePHTree.get_many`` per key over 64-key batches, and one
    uncontended ``with ReadWriteLock.read()`` per probe; then one batch
    whose per-shard groups exceed
    :data:`~repro.parallel.sharded.GET_MANY_CUTOVER`.  Every layer's
    answers are asserted equal before timing.
    """
    import shutil
    import tempfile

    from repro.core.concurrent import ReadWriteLock
    from repro.core.serialize import U64ValueCodec
    from repro.parallel.sharded import GET_MANY_CUTOVER
    from repro.store.engine import DurablePHTree

    params = SCALES[scale]
    shards = 8
    keys = _make_keys(params["n"], seed)
    rng = make_rng(seed + 4)
    present = set(keys)
    n_absent = len(keys) // 10
    probes = keys[: len(keys) - n_absent]
    while len(probes) < len(keys):
        key = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        if key not in present:
            probes.append(key)
    rng.shuffle(probes)
    expected = {key: i for i, key in enumerate(keys)}
    want = [expected.get(key) for key in probes]
    batches = [probes[i : i + 64] for i in range(0, len(probes), 64)]
    big = probes * -(-2 * shards * (GET_MANY_CUTOVER + 1) // len(probes))
    root = tempfile.mkdtemp(prefix="repro-bench-point-")
    try:
        path = os.path.join(root, "store")
        with DurablePHTree.open(
            path, dims=DIMS, width=WIDTH, shards=shards,
            value_codec=U64ValueCodec,
        ) as store:
            store.put_all(list(expected.items()))
            store.checkpoint()
        store = DurablePHTree.open(path, value_codec=U64ValueCodec)
        try:
            live = store.live
            shard_of = live.router.shard_of
            trees = [live._shards[i].unsafe_tree for i in range(shards)]
            lock = ReadWriteLock()
            assert [trees[shard_of(k)].get(k) for k in probes] == want
            assert [live.get(key) for key in probes] == want
            assert [store.get(key) for key in probes] == want
            assert [v for b in batches for v in store.get_many(b)] == want
            assert store.get_many(big) == want * (len(big) // len(probes))
            # Timed 256 probes at a time, best of the round-robin per
            # chunk, so a slow spell of the host spoils one chunk's
            # rounds rather than every layer's whole pass.
            totals = [0.0] * 5
            for start in range(0, len(probes), 256):
                candidates = _point_read_candidates(
                    trees, live, store, lock, shard_of,
                    probes[start : start + 256],
                )
                bests = _best_group(candidates, params["repeats"])
                totals = [t + b for t, b in zip(totals, bests)]
            t_shard, t_sharded, t_durable, t_many, t_lock = totals
            t_big = _best(lambda: store.get_many(big), params["repeats"])
        finally:
            store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    per_probe = 1e6 / len(probes)
    report["point_read_layers"] = {
        "n_keys": len(keys),
        "n_probes": len(probes),
        "absent": n_absent,
        "shards": shards,
        "get_many_batch": 64,
        "get_many_big_batch": len(big),
        "get_many_cutover": GET_MANY_CUTOVER,
        "note": (
            "one point read at each layer over the same probes: the "
            "shard tree's PHTree.get (no routing, no lock), "
            "ShardedPHTree.get, DurablePHTree.get and get_many on a "
            "store reopened from its segments; parity asserted before "
            "timing; rwlock_read_us is one uncontended "
            "with ReadWriteLock.read() enter plus exit"
        ),
    }
    report["metrics"].update(
        point_read_shard_get_us=round(t_shard * per_probe, 4),
        point_read_sharded_get_us=round(t_sharded * per_probe, 4),
        point_read_durable_get_us=round(t_durable * per_probe, 4),
        point_read_get_many_us_per_key=round(t_many * per_probe, 4),
        point_read_get_many_big_us_per_key=round(
            t_big * 1e6 / len(big), 4
        ),
        point_read_durable_over_shard=round(t_durable / t_shard, 4),
        point_read_get_many_over_get=round(t_many / t_durable, 4),
        rwlock_read_us=round(t_lock * per_probe, 4),
    )
    return report


def write_report(
    report: Dict[str, Any], path: "str | Path"
) -> Path:
    """Write a trajectory report as pretty-printed JSON."""
    path = Path(path)
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-metric-per-line rendering of a report."""
    lines = [
        f"perf trajectory @ scale={report['scale']} "
        f"(n={report['config']['n_keys']})"
    ]
    for name, value in sorted(report["metrics"].items()):
        lines.append(f"  {name:36s} {value:10.3f}")
    space = report.get("space")
    if space:
        lines.append("space (bytes/entry):")
        for name, value in sorted(space.items()):
            if name != "note":
                lines.append(f"  {name:36s} {value:10.2f}")
    instrumentation = report.get("instrumentation")
    if instrumentation:
        lines.append("instrumentation (counts per benchmarked op):")
        for op, counts in sorted(instrumentation.items()):
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())
            )
            lines.append(f"  {op:14s} {detail}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the trajectory and write the JSON report."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.trajectory",
        description="Run the hot-path micro-benchmarks and record the "
        "perf trajectory.",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_core.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "-s",
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="benchmark scale (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="dataset seed"
    )
    parser.add_argument(
        "--instrument",
        action="store_true",
        help="after the timings, re-run each op with repro.obs enabled "
        "and record nodes-visited/slots-scanned per op in the report",
    )
    args = parser.parse_args(argv)
    report = run_trajectory(
        scale=args.scale, seed=args.seed, instrument=args.instrument
    )
    path = write_report(report, args.output)
    print(format_report(report))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

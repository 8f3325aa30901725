"""Probe inventory: every instrument the hot paths report into.

One module so the whole surface is greppable (DESIGN.md §8 carries the
same table).  Hot code imports this module once and touches pre-bound
children (``ops_get``, ``switch_to_hc``, ...) so the enabled path pays
no label resolution; labelled families (per-shard, per-op) resolve
children at call time, which only ever happens with observability
enabled.

Naming follows Prometheus conventions: ``*_total`` for counters,
``*_seconds`` for latency histograms, bare names for gauges.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_S,
    get_registry,
)

registry = get_registry()

# -- operation counts (PHTree API surface) ---------------------------------

ops = registry.counter(
    "repro_ops_total",
    "PH-tree operations by kind (put/get/contains/remove/query/...).",
    labelnames=("op",),
)
ops_put = ops.labels("put")
ops_get = ops.labels("get")
ops_contains = ops.labels("contains")
ops_remove = ops.labels("remove")
ops_update_key = ops.labels("update_key")
ops_query = ops.labels("query")
ops_query_approx = ops.labels("query_approx")
ops_knn = ops.labels("knn")
ops_get_many = ops.labels("get_many")
ops_query_many = ops.labels("query_many")

batch_keys = registry.counter(
    "repro_batch_keys_total",
    "Keys (get_many) / boxes (query_many) submitted through the batch "
    "engine.",
    labelnames=("op",),
)
batch_keys_get = batch_keys.labels("get_many")
batch_keys_query = batch_keys.labels("query_many")

# -- tree shape accounting (insert/delete paths) ---------------------------

insert_depth = registry.histogram(
    "repro_insert_depth",
    "Nodes on the root-to-entry path of each completed insert.",
    buckets=DEPTH_BUCKETS,
)
tree_nodes_created = registry.counter(
    "repro_tree_nodes_created_total",
    "Nodes spliced into a tree (root creation + conflict splits).",
)
tree_nodes_merged = registry.counter(
    "repro_tree_nodes_merged_total",
    "Nodes collapsed away (underfull merge after remove + root drop).",
)
node_switches = registry.counter(
    "repro_node_switches_total",
    "HC<->LHC container representation switches.",
    labelnames=("direction",),
)
switch_to_hc = node_switches.labels("lhc_to_hc")
switch_to_lhc = node_switches.labels("hc_to_lhc")

# -- point descents (get/contains and the write path) ----------------------

point_nodes_visited = registry.counter(
    "repro_point_nodes_visited_total",
    "Nodes traversed by single-key descents (get/contains).",
)
point_slots_scanned = registry.counter(
    "repro_point_slots_scanned_total",
    "Container probes issued by single-key descents (get/contains).",
)
write_nodes_visited = registry.counter(
    "repro_write_nodes_visited_total",
    "Nodes traversed by write descents (put/remove).",
)
write_slots_scanned = registry.counter(
    "repro_write_slots_scanned_total",
    "Container probes issued by write descents (put/remove).",
)

# -- the iterative range-scan kernel (core/kernel.py) ----------------------

kernel_nodes_visited = registry.counter(
    "repro_kernel_nodes_visited_total",
    "Nodes entered by the range-scan kernel (window + approx queries).",
)
kernel_hc_nodes_visited = registry.counter(
    "repro_kernel_hc_nodes_visited_total",
    "Kernel-visited nodes that were in the HC representation.",
)
kernel_lhc_nodes_visited = registry.counter(
    "repro_kernel_lhc_nodes_visited_total",
    "Kernel-visited nodes that were in the LHC representation.",
)
kernel_frames_pushed = registry.counter(
    "repro_kernel_frames_pushed_total",
    "Traversal frames pushed onto the kernel's explicit stack.",
)
kernel_slots_scanned = registry.counter(
    "repro_kernel_slots_scanned_total",
    "Slot fetches performed by the kernel (all frame modes).",
)
kernel_full_cover_flushes = registry.counter(
    "repro_kernel_full_cover_flushes_total",
    "Sub-trees flushed wholesale (node fully inside the query, or "
    "below the approximation slack).",
)
kernel_plain_scans = registry.counter(
    "repro_kernel_plain_scans_total",
    "Nodes entered in plain-scan mode (trivial masks m_L=0, m_U=full).",
)
kernel_mask_rejections = registry.counter(
    "repro_kernel_mask_rejections_total",
    "LHC slot addresses rejected by the m_L/m_U mask check.",
)
kernel_node_rejections = registry.counter(
    "repro_kernel_node_rejections_total",
    "Sub-nodes rejected by the region/box intersection test.",
)
kernel_postfix_drops = registry.counter(
    "repro_kernel_postfix_drops_total",
    "Entries rejected by the final per-dimension containment check.",
)
kernel_entries_yielded = registry.counter(
    "repro_kernel_entries_yielded_total",
    "Entries yielded by the range-scan kernel.",
)

# -- batch engine (core/batch.py) ------------------------------------------

batch_nodes_visited = registry.counter(
    "repro_batch_nodes_visited_total",
    "Nodes newly descended into by the get_many merge-join (shared "
    "path prefixes are counted once, which is the point).",
)
batch_slots_scanned = registry.counter(
    "repro_batch_slots_scanned_total",
    "Container probes issued by the get_many merge-join.",
)
qmany_nodes_visited = registry.counter(
    "repro_qmany_nodes_visited_total",
    "Nodes visited by the batched window-query walk (each node once "
    "per walk, however many boxes ride along).",
)
qmany_slots_scanned = registry.counter(
    "repro_qmany_slots_scanned_total",
    "Slots iterated by the batched window-query walk.",
)

# -- kNN engine (core/knn.py) ----------------------------------------------

knn_regions_expanded = registry.counter(
    "repro_knn_regions_expanded_total",
    "Node regions popped and expanded by the best-first kNN search.",
)
knn_heap_pushes = registry.counter(
    "repro_knn_heap_pushes_total",
    "Candidates (nodes + entries) pushed onto the kNN priority queue.",
)
knn_heap_high_water = registry.gauge(
    "repro_knn_heap_high_water",
    "Largest kNN priority-queue size seen since the last reset.",
)
knn_entries_yielded = registry.counter(
    "repro_knn_entries_yielded_total",
    "Entries yielded by the kNN engine.",
)

# -- sharded layer (parallel/sharded.py) -----------------------------------

shard_ops = registry.counter(
    "repro_shard_ops_total",
    "Operations routed to each shard of a ShardedPHTree.",
    labelnames=("shard", "op"),
)
shard_lock_wait = registry.histogram(
    "repro_shard_lock_wait_seconds",
    "Time spent acquiring a shard's read/write lock.",
    labelnames=("mode",),
    buckets=LATENCY_BUCKETS_S,
)
shard_lock_wait_read = shard_lock_wait.labels("read")
shard_lock_wait_write = shard_lock_wait.labels("write")

# -- freeze (core/frozen.py) -----------------------------------------------

freeze_arena_fast = registry.counter(
    "repro_freeze_arena_fast_total",
    "freeze() calls that serialised straight from arena slabs (no "
    "per-node object materialisation).",
)

# -- learned index (repro/learned + core/frozen.py) ------------------------

learned_lookups = registry.counter(
    "repro_learned_lookups_total",
    "Frozen-tree reads that consulted the learned z-address model, by "
    "operation (point / window seek / knn seed).",
    labelnames=("op",),
)
learned_lookups_point = learned_lookups.labels("point")
learned_lookups_window = learned_lookups.labels("window")
learned_lookups_knn = learned_lookups.labels("knn")
learned_fallbacks = registry.counter(
    "repro_learned_fallbacks_total",
    "Learned-model probes that exceeded the error-bound contract (dead "
    "segment, float overflow or oversized scan span) and fell back to "
    "the exact engine, by operation.",
    labelnames=("op",),
)
learned_fallbacks_point = learned_fallbacks.labels("point")
learned_fallbacks_window = learned_fallbacks.labels("window")
learned_segments_consulted = registry.counter(
    "repro_learned_segments_consulted_total",
    "PLA segments the learned model binary-searched into (one per "
    "model-served probe).",
)
learned_prediction_error = registry.counter(
    "repro_learned_prediction_error_total",
    "Sum of |predicted rank - resolved rank| across model-served "
    "probes (divide by repro_learned_lookups_total for the mean).",
)

# -- durable store (store/engine.py) ---------------------------------------

store_wal_appends = registry.counter(
    "repro_store_wal_appends_total",
    "Group commits appended to the write-ahead log.",
)
store_wal_bytes = registry.counter(
    "repro_store_wal_bytes_total",
    "Framed bytes appended to the write-ahead log.",
)
store_flushes = registry.counter(
    "repro_store_flushes_total",
    "Memtable flushes (pending mutations frozen to segment files).",
)
store_compactions = registry.counter(
    "repro_store_compactions_total",
    "Segment-chain compactions (merge to one segment per shard).",
)
store_recoveries = registry.counter(
    "repro_store_recoveries_total",
    "Store opens that replayed an existing manifest + WAL.",
)
store_wal_replayed = registry.counter(
    "repro_store_wal_replayed_total",
    "WAL records replayed onto the segment set during recovery.",
)
store_torn_bytes = registry.counter(
    "repro_store_torn_bytes_total",
    "Torn or corrupt WAL tail bytes discarded during recovery.",
)
store_segments_live = registry.gauge(
    "repro_store_segments_live",
    "Segment-chain records referenced by the newest manifest.",
)


# -- lock health (core/concurrent.py) --------------------------------------

lock_timeouts = registry.counter(
    "repro_lock_timeouts_total",
    "ReadWriteLock acquisitions abandoned on timeout, by mode.",
    labelnames=("mode",),
)
lock_timeouts_read = lock_timeouts.labels("read")
lock_timeouts_write = lock_timeouts.labels("write")


# -- flush helpers (one call per instrumented operation) -------------------


def record_range_scan(
    nodes: int,
    hc_nodes: int,
    frames: int,
    slots: int,
    flushes: int,
    plain_scans: int,
    mask_rejections: int,
    node_rejections: int,
    postfix_drops: int,
    entries: int,
) -> None:
    """Publish one range-scan traversal's locally accumulated counts."""
    kernel_nodes_visited.inc(nodes)
    kernel_hc_nodes_visited.inc(hc_nodes)
    kernel_lhc_nodes_visited.inc(nodes - hc_nodes)
    kernel_frames_pushed.inc(frames)
    kernel_slots_scanned.inc(slots)
    kernel_full_cover_flushes.inc(flushes)
    kernel_plain_scans.inc(plain_scans)
    kernel_mask_rejections.inc(mask_rejections)
    kernel_node_rejections.inc(node_rejections)
    kernel_postfix_drops.inc(postfix_drops)
    kernel_entries_yielded.inc(entries)


def record_knn(
    regions: int, pushes: int, high_water: int, entries: int
) -> None:
    """Publish one kNN search's locally accumulated counts."""
    knn_regions_expanded.inc(regions)
    knn_heap_pushes.inc(pushes)
    knn_heap_high_water.set_max(high_water)
    knn_entries_yielded.inc(entries)


def record_shard_op(shard: int, op: str) -> None:
    """Count one operation against shard ``shard``."""
    shard_ops.labels(str(shard), op).inc()


# -- derived telemetry (refreshed by registry collectors) ------------------

heat_regions = registry.gauge(
    "repro_heat_regions",
    "Z-prefix regions currently tracked by the heat map.",
)
flight_recorder_events = registry.gauge(
    "repro_flight_recorder_events",
    "Events recorded by the flight recorder since its last clear "
    "(only the newest `capacity` remain in the ring).",
)


def _collect_obs_state() -> None:
    # Lazy imports: heat/recorder are siblings that may not be loaded
    # yet when this module is first imported by a core hot path.
    from repro.obs import heat as _heat
    from repro.obs import recorder as _recorder

    heat_regions.set(len(_heat.HEATMAP))
    flight_recorder_events.set(_recorder.RECORDER.seq)


registry.add_collector("obs_state", _collect_obs_state)

#!/usr/bin/env python3
"""End-to-end stack benchmark: ``DurablePHTree`` driven by one closed-loop
client through its public API.

Run from the repository root::

    python3 benchmarks/stack/run.py --workload point-read --seed 0 --seconds 10 --trace 0
    python3 benchmarks/stack/run.py --all            # every workload, one at a time

One run prepares the store in a child process (untimed), measures the
memory one ``open()`` takes, opens it ``SETUP_REPEATS`` times
(``setup_s`` is the median), runs the
workload's op stream, checks every answer, brute-forces a sample of
queries, then closes, reopens and compares the whole contents.  The
last stdout line is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Earlier lines print every
metric with its unit and sample count; the same detail goes to
``.stack_bench/report-<workload>-trace<t>.json``, and
a traced run writes its spans to ``.stack_bench/trace-<workload>.jsonl``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import workloads as wl
from client import Client
from spans import LAYERS, Tracer, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(ROOT, ".stack_bench")

#: ``--seconds`` when not given: the ``run_seconds`` of BENCHMARK.json.
SECONDS = 10.0
SETUP_REPEATS = 3
CHUNK_OPS = 100
#: Ops run with the repo's observability probes on, for node, slot,
#: heap and byte counts (traced runs only).
COUNT_PASS_OPS = 1_000
#: Spans kept in memory; traced chunks are spaced out to fit.
SPAN_CAP = 200_000
SMOKE_SCALE = 1 / 40
END_WINDOWS = 32
END_KNNS = 16

#: Metrics of the final JSON line: ``(name, unit)``.
E2E = (
    ("setup_s", "s"),
    ("primary_us_p50", "us"),
    ("secondary_us_p50", "us"),
    ("rss_bytes_per_entry", "B"),
    ("disk_bytes_per_entry", "B"),
)
PER_LAYER = (
    ("store.self_us_per_op", "us"),
    ("parallel.self_us_per_op", "us"),
    ("concurrent.self_us_per_op", "us"),
    ("core.self_us_per_op", "us"),
    ("concurrent.lock_acquires_per_op", "count"),
    ("parallel.shards_per_op", "count"),
    ("core.nodes_visited_per_op", "count"),
    ("store.recovery.rebuild_s", "s"),
    ("store.recovery.wal_scan_s", "s"),
    ("store.recovery.other_s", "s"),
    ("store.recovery.replayed_records", "count"),
    ("store.segment.attach_s", "s"),
    ("store.segment.bytes_per_entry", "B"),
    ("learned.trailer_bytes_per_entry", "B"),
    ("parallel.shard_imbalance", "ratio"),
    ("primary_us_p99", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)

Metrics = Dict[str, Tuple[float, str, int]]


# -- process-level measurements -------------------------------------------------


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def written_bytes() -> Optional[int]:
    """Bytes this process passed to write(2) so far (Linux), else None."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


# -- helpers -------------------------------------------------------------------


def report_path(name: str, trace: bool) -> str:
    """Where a run writes its detail report."""
    return os.path.join(WORK, f"report-{name}-trace{int(trace)}.json")


def nearest_rank(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _user_bytes(op: Tuple[Any, ...]) -> int:
    """Key and value bytes a write hands the store (3 x 20-bit
    coordinates pack into 3 bytes each, values are 8 bytes)."""
    key = wl.DIMS * ((wl.WIDTH + 7) // 8)
    kind = op[0]
    if kind == "put":
        return key + 8
    if kind == "group_commit":
        return (key + 8) * len(op[1])
    if kind == "remove":
        return key
    if kind == "update_key":
        return 2 * key
    return 0


def _chunks(stream: Iterator[Tuple[Any, ...]]) -> Iterator[List[Tuple[Any, ...]]]:
    """Cut the stream into runs of client ops; each maintenance op is a
    chunk of its own."""
    chunk: List[Tuple[Any, ...]] = []
    for op in stream:
        if op[0] in wl.MAINTENANCE:
            if chunk:
                yield chunk
                chunk = []
            yield [op]
            continue
        chunk.append(op)
        if len(chunk) == CHUNK_OPS:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _open(path: str) -> Any:
    from repro.core.serialize import U64ValueCodec
    from repro.store import DurablePHTree

    return DurablePHTree.open(path, value_codec=U64ValueCodec, sync=True)


# -- the phases of a run ---------------------------------------------------------


def prep(path: str, name: str, seed: int, scale: float) -> None:
    """Child-process entry: create the store and write the initial state."""
    from repro.core.serialize import U64ValueCodec
    from repro.store import DurablePHTree

    store = DurablePHTree.open(
        path,
        dims=wl.DIMS,
        width=wl.WIDTH,
        shards=wl.SHARDS,
        value_codec=U64ValueCodec,
        learned=True,
        sync=True,
    )
    try:
        wl.prepare(store, wl.initial_state(name, seed, scale))
    finally:
        store.close()


def open_growth(path: str) -> int:
    """RSS growth across one ``open()`` of the store, which is closed
    again.

    Taken before the client allocates anything: memory a process has
    freed absorbs part of a later open, and by how much depends on
    what was freed.  The modules are imported first, so their code
    does not count.
    """
    import repro.core.serialize  # noqa: F401
    import repro.store  # noqa: F401

    gc.collect()
    before = rss_bytes()
    store = _open(path)
    growth = rss_bytes() - before
    store.close()
    return growth


def setup(path: str, tracer: Any) -> Tuple[Any, List[float]]:
    """Open the store ``SETUP_REPEATS`` times, keeping the last.

    Returns ``(store, open seconds per repeat)``.
    """
    times: List[float] = []
    store = None
    for _ in range(SETUP_REPEATS):
        if store is not None:
            store.close()
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.begin_op("open")
        t0 = perf_counter_ns()
        store = _open(path)
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.end_op(t0, t1)
            tracer.uninstall()
        times.append((t1 - t0) / 1e9)
    return store, times


def _read_counts() -> Dict[str, float]:
    from repro.obs import probes as p

    return {
        "point_nodes": p.point_nodes_visited.value,
        "write_nodes": p.write_nodes_visited.value,
        "kernel_nodes": p.kernel_nodes_visited.value,
        "batch_nodes": p.batch_nodes_visited.value,
        "knn_regions": p.knn_regions_expanded.value,
        "knn_pushes": p.knn_heap_pushes.value,
        "knn_entries": p.knn_entries_yielded.value,
        "kernel_slots": p.kernel_slots_scanned.value,
        "kernel_entries": p.kernel_entries_yielded.value,
        "point_lookups": p.ops_get.value + p.ops_contains.value,
        "shard_ops": sum(c.value for _, c in p.shard_ops.children()),
        "lock_wait_s": p.shard_lock_wait_read.sum + p.shard_lock_wait_write.sum,
        "wal_bytes": p.store_wal_bytes.value,
    }


class Run:
    """One workload run: owns the store directory, the client and the
    measurements, and turns them into metrics."""
    def __init__(
        self, name: str, seed: int, seconds: float, trace: bool, scale: float
    ) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.tracer: Any = None
        self.counter: Any = None
        self.counts: Dict[str, float] = {}
        self.user_bytes = 0
        #: Writes since the last flush, and writes that flushes froze.
        self.pending = 0
        self.flushed = 0
        self.stream_written: Optional[int] = None
        self.compact_written = 0

    def execute(self, run_dir: str, smoke: bool, src: str) -> None:
        name, seed, scale = self.name, self.seed, self.scale
        path = os.path.join(run_dir, "store")
        argv = [sys.executable, os.path.abspath(__file__), "--prep", path,
                "--workload", name, "--seed", str(seed), "--src", src]
        subprocess.run(argv + (["--smoke"] if smoke else []), check=True)
        self.rss_growth = open_growth(path)

        state = wl.initial_state(name, seed, scale)
        model = state.contents()
        del state
        self.entries_at_open = len(model)
        keys = list(model)
        stream = _chunks(wl.op_stream(name, seed, scale, self.seconds, keys))
        # The model dict and key lists hold hundreds of thousands of
        # entries that every full collection would traverse; frozen,
        # they no longer set the length of the collector's pauses.
        # Freezing before open() leaves every object the store creates
        # to the collector, as in real use.
        gc.collect()
        gc.freeze()
        if self.trace:
            self.tracer = Tracer()
        store, self.open_s = setup(path, self.tracer)
        self.recovery = store.recovery_info
        # Numbers only: a live reference to a segment's frozen view
        # would pin its mmap and make the store's next flush fail.
        frozen = [s.frozen for s in store.segments if s.frozen is not None]
        self.segment_entries = sum(len(f) for f in frozen)
        self.segment_bytes = sum(f.nbytes for f in frozen)
        self.trailer_bytes = sum(
            f.learned_index.trailer_bytes
            for f in frozen
            if f.learned_index is not None
        )
        del frozen
        self.shard_sizes = list(store.live.shard_sizes().values())
        self.client = client = Client(store, model)
        written0 = written_bytes()
        if self.trace:
            self._traced_phase(stream, store, model)
        else:
            for chunk in stream:
                self._run_chunk(chunk, client, traced=False)
        written1 = written_bytes()
        if written0 is not None and written1 is not None:
            self.stream_written = written1 - written0

        self._end_checks()
        store.close()
        self.disk = dir_bytes(path)
        self.entries_at_end = len(model)
        reopened = _open(path)
        try:
            client.check_contents(list(reopened.items()))
        finally:
            reopened.close()
        if self.tracer is not None:
            os.makedirs(WORK, exist_ok=True)
            self.tracer.write_jsonl(os.path.join(WORK, f"trace-{name}.jsonl"))

    def _run_chunk(self, chunk: List[Tuple[Any, ...]], client: Any, traced: bool) -> None:
        for op in chunk:
            self.user_bytes += _user_bytes(op)
            if op[0] == "group_commit":
                self.pending += len(op[1])
            elif op[0] in ("put", "remove", "update_key"):
                self.pending += 1
            elif op[0] == "flush":
                self.flushed += self.pending
                self.pending = 0
            elif op[0] == "compact":
                self.pending = 0
        compacting = chunk[0][0] == "compact"
        before = written_bytes() if compacting else None
        if traced:
            self.tracer.install()
            client.run_chunk(chunk, self.tracer)
            self.tracer.uninstall()
        else:
            client.run_chunk(chunk)
        if before is not None:
            self.compact_written += written_bytes() - before

    def _traced_phase(self, stream: Iterator, store: Any, model: Dict) -> None:
        """Count pass with the repo's probes on, then the rest of the
        stream with every ``stride``-th chunk and every flush/compaction
        traced (the untraced chunks measure tracing overhead)."""
        from repro import obs

        normal_total = sum(wl.op_counts(self.name, self.seconds, self.scale).values())
        self.counter = Client(store, model)
        obs.reset_all()
        obs.enable()
        try:
            for chunk in stream:
                self._run_chunk(chunk, self.counter, traced=False)
                if self.counter.ops >= min(COUNT_PASS_OPS, normal_total // 4):
                    break
        finally:
            obs.disable()
        self.counts = _read_counts()

        tracer, client = self.tracer, self.client
        stride = 0
        index = 0
        for chunk in stream:
            if chunk[0][0] in wl.MAINTENANCE:
                self._run_chunk(chunk, client, traced=True)
                continue
            traced = len(tracer.spans) < SPAN_CAP and (
                stride == 0 or index % stride == 0
            )
            index += 1
            spans_before = len(tracer.spans)
            self._run_chunk(chunk, client, traced)
            if traced and stride == 0:
                # Space traced chunks so the stream's remainder fits the
                # span cap; every other chunk at least stays untraced.
                per_op = (len(tracer.spans) - spans_before) / len(chunk)
                remaining = normal_total - self.counter.ops - client.ops
                room = max(1, 0.9 * SPAN_CAP - len(tracer.spans))
                stride = max(2, math.ceil(remaining * per_op / room))

    def _end_checks(self) -> None:
        import random

        rng = random.Random(f"{self.seed}:{self.name}:checks")
        keys = list(self.client.model)
        windows = []
        for i in range(END_WINDOWS):
            if self.name == "window-knn-cluster":
                extent = wl.DOMAIN >> (12 if i % 2 else 8)
            else:
                extent = wl.DOMAIN >> 5
            windows.append(wl.box(keys[rng.randrange(len(keys))], extent))
        knns = [
            (wl.jitter(keys[rng.randrange(len(keys))], wl.DOMAIN >> 10, rng), wl.KNN_K)
            for _ in range(END_KNNS)
        ]
        self.client.brute_force_checks(windows, knns)

    # -- metrics ---------------------------------------------------------------

    def e2e(self) -> Metrics:
        client = self.client
        spec = wl.WORKLOADS[self.name]
        m: Metrics = {
            "setup_s": (statistics.median(self.open_s), "s", len(self.open_s)),
            "throughput_ops_s": (
                client.ops / (client.timed_ns / 1e9), "ops/s", client.ops
            ),
            "fail_ratio": (self.failed / self.attempted, "ratio", self.attempted),
            "rss_bytes_per_entry": (
                self.rss_growth / self.entries_at_open, "B", 1
            ),
            "disk_bytes_per_entry": (self.disk / self.entries_at_end, "B", 1),
        }
        for kind, samples in client.latency.items():
            if kind in wl.MAINTENANCE:
                continue
            us = [ns / 1e3 for ns in samples]
            m[f"{kind}_us_p50"] = (statistics.median(us), "us", len(us))
            if len(us) >= 1000:
                m[f"{kind}_us_p99"] = (nearest_rank(us, 99), "us", len(us))
        windows = [client.latency[k] for k in wl.WINDOWS if k in client.latency]
        if windows:
            m["window_us_per_entry"] = (
                sum(map(sum, windows)) / 1e3 / max(1, client.window_entries[0]),
                "us",
                sum(map(len, windows)),
            )
        m["primary_us_p50"] = m[f"{spec.primary}_us_p50"]
        m["secondary_us_p50"] = m[f"{spec.secondary}_us_p50"]
        return m

    @property
    def attempted(self) -> int:
        extra = self.counter.attempted if self.counter is not None else 0
        return self.client.attempted + extra

    @property
    def failed(self) -> int:
        extra = self.counter.failed if self.counter is not None else 0
        return self.client.failed + extra

    def per_layer(self) -> Metrics:
        tracer, client, counts = self.tracer, self.client, self.counts
        spec = wl.WORKLOADS[self.name]
        table = tracer.table()
        normal = {k for k in client.traced_ops if k not in wl.MAINTENANCE}
        n_traced = sum(client.traced_ops[k] for k in normal)
        m: Metrics = {}

        def span(kinds, name, column):
            return sum(
                row[column]
                for (kind, span_name), row in table.items()
                if kind in kinds and span_name == name
            )

        def per(value, base, name, unit, samples):
            if base:
                m[name] = (value / base, unit, samples)

        # Self time per layer, over the traced client ops.
        layer_self = dict.fromkeys(LAYERS, 0)
        op_total = 0
        for (kind, name), (calls, total, own) in table.items():
            if kind in normal:
                layer_self[layer_of(name)] += own
                if name.startswith("op."):
                    op_total += total
        for layer in LAYERS:
            if layer != "client" and layer_self[layer]:
                per(layer_self[layer] / 1e3, n_traced, f"{layer}.self_us_per_op",
                    "us", n_traced)
        per(layer_self["client"], op_total, "trace.unattributed_share", "ratio",
            n_traced)
        untraced = {k: v for k, v in client.latency.items() if k in normal}
        n_untraced = sum(len(v) for v in untraced.values())
        untraced_ns = sum(sum(v) for v in untraced.values())
        traced_ns = sum(client.traced_ns[k] for k in normal)
        if n_traced and n_untraced:
            m["trace.overhead_ratio"] = (
                (traced_ns / n_traced) / (untraced_ns / n_untraced),
                "ratio",
                n_traced,
            )
        primary = client.latency.get(spec.primary, [])
        if primary:
            m["primary_us_p99"] = (nearest_rank(primary, 99) / 1e3, "us", len(primary))
        for kind in ("put", "group_commit"):
            samples = client.latency.get(kind, [])
            if samples:
                q = 99 if len(samples) >= 1000 else 90
                m[f"store.{kind}_us_p{q}"] = (
                    nearest_rank(samples, q) / 1e3, "us", len(samples)
                )

        # Recovery: the median open, split by the calls inside it.
        opens = tracer.per_op("open")
        parts = {
            "store.recovery.rebuild_s": "bulk_load_sorted",
            "store.recovery.wal_scan_s": "WriteAheadLog.open",
            "store.segment.attach_s": "Segment.open",
        }
        for metric, name in parts.items():
            m[metric] = (
                statistics.median(o.get(name, 0) for o in opens) / 1e9, "s", len(opens)
            )
        m["store.recovery.other_s"] = (
            statistics.median(
                o["DurablePHTree.open"] - sum(o.get(n, 0) for n in parts.values())
                for o in opens
            ) / 1e9,
            "s",
            len(opens),
        )
        m["store.recovery.replayed_records"] = (self.recovery["replayed"], "count", 1)
        per(self.segment_bytes, self.segment_entries,
            "store.segment.bytes_per_entry", "B", self.segment_entries)
        per(self.trailer_bytes, self.segment_entries,
            "learned.trailer_bytes_per_entry", "B", self.segment_entries)
        sizes = self.shard_sizes
        per(max(sizes), sum(sizes) / len(sizes), "parallel.shard_imbalance",
            "ratio", len(sizes))

        # Call structure of the traced client ops.
        def ops_of(kinds):
            return sum(client.traced_ops.get(k, 0) for k in kinds)

        acquires = span(normal, "ReadWriteLock.acquire_read", 0) + span(
            normal, "ReadWriteLock.acquire_write", 0)
        per(acquires, n_traced, "concurrent.lock_acquires_per_op", "count", n_traced)
        lock_ns = sum(
            row[1] for (kind, name), row in table.items()
            if kind in normal and name.startswith("ReadWriteLock.")
        )
        per(lock_ns / 1e3, n_traced, "concurrent.lock_us_per_op", "us", n_traced)
        gets, batches, knns = ops_of({"get"}), ops_of({"get_many"}), ops_of({"knn"})
        windows = ops_of(wl.WINDOWS)
        per(span({"get"}, "ShardedPHTree.get", 2) / 1e3, gets,
            "parallel.self_us_per_get", "us", gets)
        per(span({"get_many"}, "PHTree.get_many", 0), batches,
            "parallel.get_many_shards_per_batch", "count", batches)
        per(span(wl.WINDOWS, "ZShardRouter.shards_for_box", 1) / 1e3, windows,
            "parallel.route_us_per_window", "us", windows)
        per(span(wl.WINDOWS, "SynchronizedPHTree.query", 0), windows,
            "parallel.shards_per_window", "count", windows)
        per(span({"knn"}, "SynchronizedPHTree.knn", 0), knns,
            "parallel.shards_per_knn", "count", knns)
        per(span({"knn"}, "ShardedPHTree.knn", 2) / 1e3, knns,
            "parallel.knn_merge_us", "us", knns)
        for op in ("get", "put", "remove", "knn"):
            calls = span(normal, f"PHTree.{op}", 0)
            per(span(normal, f"PHTree.{op}", 2) / 1e3, calls,
                f"core.{op}_us_self", "us", calls)
        per(span({"get_many"}, "PHTree.get_many", 2) / 1e3,
            batches * wl.GET_MANY_BATCH, "core.get_many_us_per_key_self", "us",
            batches)
        per((span(wl.WINDOWS, "SynchronizedPHTree.query", 2)
             + span(wl.WINDOWS, "PHTree.query", 2)) / 1e3,
            client.window_entries[1], "core.window_us_self_per_entry", "us",
            windows)
        appends = span(normal, "WriteAheadLog.append", 0)
        per(span(normal, "WriteAheadLog.append", 2) / 1e3, appends,
            "store.wal.append_us_self", "us", appends)
        writes = ops_of(wl.WRITES)
        per(span(wl.WRITES, "io.fsync", 0), writes, "store.wal.fsyncs_per_write",
            "count", writes)
        fsyncs = [
            (end - start) / 1e3
            for _, nid, start, end, _ in tracer.spans
            if tracer.names[nid] == "io.fsync"
        ]
        if fsyncs:
            m["store.wal.fsync_us_p50"] = (statistics.median(fsyncs), "us", len(fsyncs))
            if len(fsyncs) >= 1000:
                m["store.wal.fsync_us_p99"] = (nearest_rank(fsyncs, 99), "us", len(fsyncs))

        # Flushes and compactions (every one is traced).
        for kind, count in (("flush", "flushes"), ("compact", "compactions")):
            durations = [o[f"op.{kind}"] / 1e9 for o in tracer.per_op(kind)]
            if durations:
                m[f"store.{kind}_s"] = (statistics.median(durations), "s", len(durations))
                m[f"store.{count}"] = (len(durations), "count", 1)
        per(span({"flush"}, "op.flush", 1) / 1e3, self.flushed,
            "store.flush_us_per_entry", "us", self.flushed)
        if "compact" in client.traced_ops:
            m["store.compact_bytes_rewritten"] = (self.compact_written, "B", 1)
        if self.stream_written is not None:
            per(self.stream_written, self.user_bytes, "store.write_amp", "ratio", 1)
        maint = wl.MAINTENANCE
        if any(k in maint for k in client.traced_ops):
            m["core.bulk.load_s"] = (span(maint, "bulk_load_sorted", 1) / 1e9, "s", 1)
            m["core.frozen.freeze_s"] = (span(maint, "freeze", 2) / 1e9, "s", 1)
            m["learned.fit_s"] = (span(maint, "LearnedZIndex.fit", 1) / 1e9, "s", 1)

        # Counts from the probe pass.
        c = counts
        count_ops = self.counter.ops
        ops = {k: len(v) for k, v in self.counter.latency.items()}
        nodes = (c["point_nodes"] + c["write_nodes"] + c["kernel_nodes"]
                 + c["batch_nodes"] + c["knn_regions"])
        per(nodes, count_ops, "core.nodes_visited_per_op", "count", count_ops)
        per(c["shard_ops"], count_ops, "parallel.shards_per_op", "count", count_ops)
        per(c["point_nodes"], c["point_lookups"], "core.nodes_visited_per_get",
            "count", c["point_lookups"])
        per(c["kernel_slots"], c["kernel_entries"],
            "core.slots_scanned_per_window_entry", "count",
            sum(ops.get(k, 0) for k in wl.WINDOWS))
        knn_ops = ops.get("knn", 0)
        per(c["knn_regions"], knn_ops, "core.knn_regions_per_query", "count", knn_ops)
        per(c["knn_pushes"], knn_ops, "core.knn_heap_pushes_per_query", "count", knn_ops)
        per(c["knn_entries"], knn_ops * wl.KNN_K, "parallel.knn_candidates_per_result",
            "ratio", knn_ops)
        m["concurrent.lock_wait_us_total"] = (c["lock_wait_s"] * 1e6, "us", count_ops)
        records = sum(
            n * (wl.GROUP_COMMIT_BATCH if k == "group_commit" else 1)
            for k, n in ops.items() if k in wl.WRITES
        )
        per(c["wal_bytes"], records, "store.wal.bytes_per_write", "B", records)
        return m


def run_one(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    src: str,
) -> Dict[str, Any]:
    """Run one workload and return the result object (last stdout line)."""
    run = Run(name, seed, seconds, trace, SMOKE_SCALE if smoke else 1.0)
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        run.execute(run_dir, smoke, src)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail = run.per_layer() if trace else run.e2e()
    for error in run.client.errors + (run.counter.errors if run.counter else []):
        print(f"{name}: FAILED {error}", file=sys.stderr)
    for metric, (value, unit, samples) in sorted(detail.items()):
        print(f"{name:20s} {metric:40s} {value:14.6g} {unit:6s} n={samples}")
    wanted = PER_LAYER if trace else E2E
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric: {"value": detail[metric][0], "unit": unit}
            for metric, unit in wanted
        },
    }
    with open(report_path(name, trace), "w") as f:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "smoke": smoke,
                "result": result,
                "detail": {
                    k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in detail.items()
                },
            },
            f,
            indent=1,
            sort_keys=True,
        )
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess, one at a time."""
    status = 0
    for name in wl.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--src", args.src]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(done.stdout)
            status = 1
            continue
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="op counts are this many seconds' worth at each "
                             "workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/40 of every size, for a quick self-check")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the repro package to measure")
    parser.add_argument("--prep", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    args.src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(args.src, "repro", "__init__.py")):
        print(f"no repro package under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)

    if args.all:
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.prep:
        prep(args.prep, args.workload, args.seed,
             SMOKE_SCALE if args.smoke else 1.0)
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, args.src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

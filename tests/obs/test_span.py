"""Request-scoped spans: context propagation and the waterfall across
the sharded fan-out."""

from __future__ import annotations

import threading

import pytest

from repro.obs.span import (
    Span,
    Trace,
    current_trace,
    maybe_span,
    start_trace,
)
from repro.parallel.sharded import ShardedPHTree


class TestTrace:
    def test_no_trace_by_default(self):
        assert current_trace() is None

    def test_start_trace_sets_and_restores(self):
        with start_trace() as trace:
            assert current_trace() is trace
        assert current_trace() is None
        assert trace.t1 is not None  # finished on exit

    def test_nested_traces_stack(self):
        with start_trace() as outer:
            with start_trace() as inner:
                assert current_trace() is inner
            assert current_trace() is outer

    def test_trace_isolated_per_thread(self):
        seen = []

        def probe():
            seen.append(current_trace())

        with start_trace():
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [None]

    def test_span_context_manager_times_block(self):
        trace = Trace()
        with trace.span("work", shard=3) as span:
            pass
        assert trace.spans == [span]
        assert span.name == "work"
        assert span.labels == {"shard": 3}
        assert span.end >= span.start

    def test_add_attaches_timed_spans(self):
        trace = Trace()
        trace.add("lock_wait", 1.0, 2.0, shard=0)
        trace.add("scan", 2.5, 4.0, shard=1)
        names = [s.name for s in trace.spans]
        assert names == ["lock_wait", "scan"]
        assert [s.labels["shard"] for s in trace.spans] == [0, 1]
        assert trace.spans[1].duration_s == pytest.approx(1.5)

    def test_negative_duration_clamped(self):
        assert Span("x", 2.0, 1.0).duration_s == 0.0

    def test_maybe_span_no_ops_without_trace(self):
        with maybe_span(None, "anything") as span:
            assert span is None
        trace = Trace()
        with maybe_span(trace, "hop") as span:
            assert span is not None
        assert [s.name for s in trace.spans] == ["hop"]

    def test_to_dict_sorted_by_start(self):
        trace = Trace(trace_id=42)
        trace.add("late", 5.0, 6.0)
        trace.add("early", 1.0, 2.0)
        payload = trace.to_dict()
        assert payload["trace_id"] == 42
        assert [s["name"] for s in payload["spans"]] == ["early", "late"]

    def test_render_waterfall(self):
        with start_trace() as trace:
            with trace.span("route"):
                pass
            trace.add("scan", trace.t0, trace.t0 + 1e-4, shard=2)
        text = trace.render()
        assert "span waterfall" in text
        assert "route" in text
        assert "scan shard=2" in text
        assert "=" in text


class TestShardedSpans:
    # Keys spread over the full 16-bit domain so a domain-wide window
    # genuinely touches every z-shard.
    @pytest.fixture()
    def sharded(self):
        items = [
            ((x * 3000, y * 3000), x * 100 + y)
            for x in range(20)
            for y in range(20)
        ]
        return ShardedPHTree.build(items, dims=2, width=16, shards=4)

    def test_query_records_route_lock_scan(self, sharded):
        with start_trace() as trace:
            results = sharded.query((0, 0), (65535, 65535))
        assert len(results) == 400
        names = [s.name for s in trace.spans]
        assert names.count("route") == 1
        assert names.count("lock_wait") == sharded.n_shards
        assert names.count("scan") == sharded.n_shards
        shards = {
            s.labels["shard"] for s in trace.spans if s.name == "scan"
        }
        assert shards == set(range(sharded.n_shards))
        # Spans sit inside the trace window.
        for span in trace.spans:
            assert span.start >= trace.t0
            assert span.end <= trace.t1

    def test_query_without_trace_records_nothing(self, sharded):
        results = sharded.query((0, 0), (65535, 65535))
        assert len(results) == 400
        assert current_trace() is None

    def test_query_many_records_per_shard_spans(self, sharded):
        with start_trace() as trace:
            results = sharded.query_many(
                [((0, 0), (65535, 65535)), ((5, 5), (6, 6))]
            )
        assert len(results[0]) == 400
        names = [s.name for s in trace.spans]
        assert "lock_wait" in names
        assert "scan" in names

    def test_knn_records_scan_and_merge(self, sharded):
        with start_trace() as trace:
            results = sharded.knn((30000, 30000), 3)
        assert len(results) == 3
        names = [s.name for s in trace.spans]
        assert names.count("merge") == 1
        # Shards whose region cannot beat the n-th best are pruned.
        assert 1 <= names.count("scan") <= sharded.n_shards

    def test_results_identical_with_and_without_trace(self, sharded):
        plain = sharded.query((0, 0), (65535, 65535))
        with start_trace():
            traced = sharded.query((0, 0), (65535, 65535))
        assert traced == plain

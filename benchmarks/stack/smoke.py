#!/usr/bin/env python3
"""Self-check of the stack benchmark at 1/40 scale.

    python3 benchmarks/stack/smoke.py

For every workload in ``BENCHMARK.json``, one untraced and two traced
``--smoke`` runs must:

- print a last line with exactly ``correct``, ``attempted``, ``failed``
  and ``metrics``, holding every metric ``BENCHMARK.json`` names for
  that mode, with its unit;
- write a detail report whose metrics all carry a unit and a sample
  count, with ``fail_ratio == 0`` and ``trace.unattributed_share`` at
  most 0.10;
- repeat the counts in :data:`DETERMINISTIC` exactly across the two
  traced runs (same seed).

Finally a store whose window queries drop one hit must make the run
report failures.  Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import run

SRC = os.path.join(run.ROOT, "src")

#: Per-layer metrics that are counts of work, not times: a fixed op
#: stream must reproduce them exactly.
DETERMINISTIC = (
    "store.recovery.replayed_records",
    "store.write_amp",
    "store.wal.bytes_per_write",
    "store.wal.fsyncs_per_write",
    "store.flushes",
    "store.compactions",
    "store.compact_bytes_rewritten",
    "store.segment.bytes_per_entry",
    "learned.trailer_bytes_per_entry",
    "parallel.shard_imbalance",
    "parallel.shards_per_op",
    "parallel.shards_per_window",
    "parallel.shards_per_knn",
    "parallel.knn_candidates_per_result",
    "concurrent.lock_acquires_per_op",
    "core.nodes_visited_per_op",
    "core.nodes_visited_per_get",
    "core.slots_scanned_per_window_entry",
    "core.knn_regions_per_query",
    "core.knn_heap_pushes_per_query",
)


def _run(workload: str, trace: int) -> Tuple[Dict, Dict]:
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", "0", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    with open(run.report_path(workload, trace)) as f:
        return result, json.load(f)["detail"]


def _check_result(
    problems: List[str], label: str, result: Dict, wanted: Dict[str, str]
) -> None:
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} printed as {got}")


def _check_detail(problems: List[str], label: str, detail: Dict) -> None:
    for name, metric in detail.items():
        if not metric.get("unit") or not metric.get("samples", 0) >= 1:
            problems.append(f"{label}: {name} lacks a unit or sample count")


def _dropped_hit_fails() -> bool:
    """Run a workload in-process against a store whose window queries
    lose their last hit; the benchmark must count failures."""
    sys.path.insert(0, SRC)
    from repro.store import DurablePHTree

    original = DurablePHTree.query

    def drop_last_hit(self: Any, lower: Any, upper: Any) -> List:
        return original(self, lower, upper)[:-1]

    DurablePHTree.query = drop_last_hit
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            result = run.run_one("window-knn-cluster", 0, run.SECONDS, False, True, SRC)
    finally:
        DurablePHTree.query = original
    return result["failed"] > 0


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        result, detail = _run(workload, 0)
        _check_result(problems, f"{workload} untraced", result, e2e)
        _check_detail(problems, f"{workload} untraced", detail)
        if detail["fail_ratio"]["value"] != 0:
            problems.append(f"{workload}: fail_ratio {detail['fail_ratio']}")
        traced = []
        for attempt in (1, 2):
            result, detail = _run(workload, 1)
            label = f"{workload} traced #{attempt}"
            _check_result(problems, label, result, per_layer)
            _check_detail(problems, label, detail)
            share = detail["trace.unattributed_share"]["value"]
            if share > 0.10:
                problems.append(f"{label}: unattributed share {share:.3f}")
            traced.append(detail)
        for name in DETERMINISTIC:
            values = [d[name]["value"] for d in traced if name in d]
            if len(values) == 2 and values[0] != values[1]:
                problems.append(f"{workload}: {name} varies: {values}")
        print(f"{workload}: checked", flush=True)
    if not _dropped_hit_fails():
        problems.append("a store dropping a window hit passed the checks")
    for problem in problems:
        print("PROBLEM", problem)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

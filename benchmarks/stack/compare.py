"""Compare two source trees on the stack benchmark, pair by pair.

    python -m benchmarks.stack compare PARENT CHANGE [--seed 100]

``PARENT`` and ``CHANGE`` are checkouts (directories holding
``src/repro``).  Both run this checkout's benchmark code with its
default settings.  There are :data:`PAIRS` pairs; pair ``i`` runs every
workload with seed ``--seed + i`` on both sides, the parent first on
even pairs and the change first on odd ones.

Each ``end_to_end`` metric of ``BENCHMARK.json``, and the ``failed``
count, gets one row per workload with each side's median and quartiles,
the change's wins and a verdict:

- ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither side), its median beats the parent's by more than the
  parent's interquartile range, and no more ops failed than at the
  parent;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound; for ``failed``, more ops failed than at the
  parent;
- ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
- ``unchanged``: otherwise.

The rest of the untraced detail reports (``throughput_ops_s`` and the
per-op-kind latencies ``get_us_p50``, ``knn_us_p99``, ...) follows with
medians, quartiles and wins only: the benchmark fixes no bound for
them, so they get no verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import workloads as wl
from run import HERE, ROOT, report_path

#: The gain rule needs at least ten pairs.
PAIRS = 10


def _spec() -> Dict[str, Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def _run(src: str, workload: str, seed: int) -> Dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--src", src]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    with open(report_path(workload, False)) as f:
        return json.load(f)


def _quartiles(values: Sequence[float]) -> List[float]:
    return statistics.quantiles(values, n=4)


def verdict(
    parent: Sequence[float], change: Sequence[float], higher: bool,
    bound: float, failures_rose: bool,
) -> str:
    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    p_med, c_med = statistics.median(parent), statistics.median(change)
    pq = _quartiles(parent)
    iqr = pq[2] - pq[0]
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (p_med - c_med if higher else c_med - p_med) / p_med
    if (not failures_rose and wins >= 0.9 * len(parent)
            and better(c_med, p_med) and abs(c_med - p_med) > iqr):
        return "improved"
    if worse_by > bound:
        return "regressed"
    if iqr / p_med > bound and not all(
        better(c, p) for c in change for p in parent
    ):
        return "unresolved"
    return "unchanged"


def _row(
    workload: str, metric: str, unit: str, parent: Sequence[float],
    change: Sequence[float], higher: bool, bound: Optional[float],
    status: str,
) -> str:
    pq, cq = _quartiles(parent), _quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    if p_med:
        worse = f"{(p_med - c_med if higher else c_med - p_med) / p_med:+7.1%}"
    else:
        worse = f"{c_med - p_med:+7g}"
    return (f"{workload:20s} {metric:26s} {unit:5s} "
            f"{p_med:12.5g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
            f"{c_med:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
            f"{wins:3d}/{len(parent):<2d} {worse} "
            f"{'' if bound is None else f'{bound:.2f}':>5s}  {status}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.stack compare",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=100,
                        help="first pair's seed (pick one not used while "
                             "writing the change)")
    args = parser.parse_args(argv)

    sides = {
        side: os.path.join(os.path.abspath(path), "src")
        for side, path in (("parent", args.parent), ("change", args.change))
    }
    runs: Dict[str, Dict[str, List[Dict]]] = {
        w: {"parent": [], "change": []} for w in wl.WORKLOADS
    }
    for pair in range(PAIRS):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in wl.WORKLOADS:
            for side in order:
                runs[workload][side].append(
                    _run(sides[side], workload, args.seed + pair)
                )
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)

    spec = _spec()
    print(f"{'workload':20s} {'metric':26s} {'unit':5s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s} {'worse':>7s} {'bound':>5s}  verdict")
    for workload in wl.WORKLOADS:
        parent, change = runs[workload]["parent"], runs[workload]["change"]
        p_failed = [r["result"]["failed"] for r in parent]
        c_failed = [r["result"]["failed"] for r in change]
        failures_rose = sum(c_failed) > sum(p_failed)
        print(_row(workload, "failed", "count", p_failed, c_failed, False, None,
                   "regressed" if failures_rose else "unchanged"))
        for name, metric in spec.items():
            p = [r["result"]["metrics"][name]["value"] for r in parent]
            c = [r["result"]["metrics"][name]["value"] for r in change]
            higher = metric["better"] == "higher"
            print(_row(workload, name, metric["unit"], p, c, higher,
                       metric["bound"],
                       verdict(p, c, higher, metric["bound"], failures_rose)))
        # The untraced detail: the gated metrics, throughput and one
        # latency per op kind.
        for name, first in sorted(parent[0]["detail"].items()):
            if name in spec or name == "fail_ratio":
                continue
            p = [r["detail"][name]["value"] for r in parent]
            c = [r["detail"][name]["value"] for r in change]
            higher = first["unit"] == "ops/s"
            print(_row(workload, name, first["unit"], p, c, higher, None, "-"))
    return 0

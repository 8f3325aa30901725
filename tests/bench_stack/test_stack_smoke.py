"""The stack benchmark's self-check, run as part of the test suite.

``benchmarks/stack/run.py`` reads the store's live tree, its segment
chain, each segment's frozen view and learned trailer, and patches
module globals of the engine for its traced runs; a change under
``src/`` that breaks any of these breaks the benchmark.
``benchmarks/stack/smoke.py`` runs every workload at 1/40 scale
(untraced and traced) and checks the output shape, correctness, the
repeatability of the deterministic counts and that a dropped window hit
is reported as a failure.  It exits 0 only if every check holds.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_stack_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "stack", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

"""``python -m benchmarks.stack compare PARENT CHANGE [--seed N]``.

Runs :mod:`compare` (the parent-vs-change pairs) from the repository
root.  One run of one workload is ``python3 benchmarks/stack/run.py``.
"""

import os
import sys

# The benchmark's modules import each other by their bare names, as they
# do when run.py runs as a script.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

if sys.argv[1:2] != ["compare"]:
    sys.exit("usage: python -m benchmarks.stack compare PARENT CHANGE [--seed N]")
sys.exit(compare.main(sys.argv[2:]))

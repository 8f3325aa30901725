"""Zero-cost-off pin: disabled instrumentation must stay under 5%.

The hot engines (``get_many``'s merge-join, the range-scan kernel)
dispatch once per *call* to an uninstrumented twin when observability is
off, so the disabled cost is a single module-attribute truth test.
These tests time the public dispatching entry points against the plain
twins directly and pin the ratio.

Timing on shared CI hardware is noisy, so each comparison takes the
best of several runs and retries a few times before failing; a real
regression (per-iteration work on the disabled path) shows up as a
consistent ratio well above the bound, not as noise.
"""

import random
import time

import pytest

from repro import obs
from repro.core import batch as batch_mod
from repro.core.kernel import _range_scan_plain
from repro.core.phtree import PHTree

LIMIT = 1.05
ATTEMPTS = 6
REPEATS = 7

DIMS = 3
WIDTH = 16
DOMAIN = (1 << WIDTH) - 1


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(61)
    # These pins time the object engine's per-call twin dispatch against
    # its own plain kernels, so the layout is fixed regardless of the
    # session default.
    tree = PHTree(dims=DIMS, width=WIDTH, layout="object")
    keys = list(
        {
            tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
            for _ in range(4000)
        }
    )
    for key in keys:
        tree.put(key, None)
    boxes = []
    for _ in range(30):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        hi = tuple(min(v + (1 << (WIDTH - 2)), DOMAIN) for v in lo)
        boxes.append((lo, hi))
    return tree, keys, boxes


def _best(func, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _assert_overhead(dispatching, plain):
    assert not obs.is_enabled()
    ratios = []
    for _ in range(ATTEMPTS):
        t_dispatch = _best(dispatching)
        t_plain = _best(plain)
        ratio = t_dispatch / t_plain
        if ratio <= LIMIT:
            return
        ratios.append(round(ratio, 4))
    pytest.fail(
        f"disabled-path overhead exceeded {LIMIT:.0%} in every attempt: "
        f"{ratios}"
    )


def test_get_many_disabled_overhead_under_5_percent(workload):
    tree, keys, _boxes = workload
    _assert_overhead(
        lambda: tree.get_many(keys),
        lambda: batch_mod._get_many_plain(tree, keys),
    )


def test_query_disabled_overhead_under_5_percent(workload):
    tree, _keys, boxes = workload
    root = tree.root

    def dispatching():
        total = 0
        for lo, hi in boxes:
            for _ in tree.query(lo, hi):
                total += 1
        return total

    def plain():
        total = 0
        for lo, hi in boxes:
            for _ in _range_scan_plain(root, lo, hi, 0):
                total += 1
        return total

    assert dispatching() == plain()
    _assert_overhead(dispatching, plain)


def test_disabled_flag_is_a_module_attribute():
    """The contract the dual-engine dispatch relies on: the flag is a
    plain module attribute, flipped in place by enable()/disable()."""
    from repro.obs import runtime

    assert runtime.enabled is False
    obs.enable()
    try:
        assert runtime.enabled is True
    finally:
        obs.disable()
    assert runtime.enabled is False


@pytest.fixture(scope="module")
def sharded_workload():
    """A live sharded tree plus the boxes its span-instrumented query
    path will be timed on (PR 8: heat/span/recorder wiring)."""
    from repro.parallel.sharded import ShardedPHTree

    rng = random.Random(62)
    items = list(
        {
            tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS)): None
            for _ in range(4000)
        }.items()
    )
    tree = ShardedPHTree.build(items, dims=DIMS, width=WIDTH, shards=4)
    boxes = []
    for _ in range(20):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))
        hi = tuple(min(v + (1 << (WIDTH - 1)), DOMAIN) for v in lo)
        boxes.append((lo, hi))
    return tree, boxes


def test_sharded_query_span_machinery_overhead_under_5_percent(
    sharded_workload,
):
    """With obs disabled and no active trace, the span/heat/recorder
    wiring on the sharded query path costs one ContextVar.get and one
    flag test per call -- pinned against the bare per-shard loop."""
    tree, boxes = sharded_workload

    def dispatching():
        total = 0
        for lo, hi in boxes:
            total += len(tree.query(lo, hi))
        return total

    def plain():
        total = 0
        for lo, hi in boxes:
            for index in tree._router.shards_for_box(lo, hi):
                total += len(tree._shards[index].query(lo, hi))
        return total

    assert dispatching() == plain()
    _assert_overhead(dispatching, plain)

"""Fault injection for the parallel stack and the durable store.

:func:`slow_reader` plants the one in-process fault: a reader camps on
a shard's lock, exercising writer timeouts
(:class:`~repro.core.concurrent.LockTimeout`) and the bounded-batching
fairness path (the ``lock-timeout`` kind).

The durable store adds the disk fault class (``disk-*`` kinds):

- ``disk-flush-kill`` / ``disk-compact-kill`` -- a driver subprocess
  running a deterministic workload is SIGKILLed at a seeded byte offset
  *inside* the flush / compaction I/O (armed through
  :mod:`repro.store.io`'s ``REPRO_STORE_CRASH``); reopening the
  directory must recover a validator-green store whose contents equal
  the workload oracle exactly,
- ``disk-torn-wal`` -- the WAL tail is truncated at a seeded offset and
  a byte is flipped; recovery must land on a clean op-stream prefix.

The contract under every fault: a bounded wait fails with a clean typed
error and the matching :mod:`repro.obs.probes` counter moves; after a
disk fault, recovery restores exactly the durable contents.
:func:`run_fault_drill` drives every scenario end-to-end (the
``repro.tool check --faults`` verb) and reports the observed
result/counter for each; ``kinds`` selects a subset.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Tuple

from repro.core.concurrent import LockTimeout
from repro.obs import probes as _probes
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt

__all__ = [
    "DISK_FAULTS",
    "FaultOutcome",
    "PARALLEL_FAULTS",
    "run_fault_drill",
    "slow_reader",
]

#: Drill scenarios against the live parallel stack.
PARALLEL_FAULTS = ("lock-timeout",)

#: Drill scenarios against the durable store's crash contract.
DISK_FAULTS = (
    "disk-flush-kill",
    "disk-compact-kill",
    "disk-torn-wal",
)


# ---------------------------------------------------------------------------
# Injectors
# ---------------------------------------------------------------------------


@contextmanager
def slow_reader(
    sharded: Any, shard: int = 0
) -> Iterator[threading.Event]:
    """Hold shard ``shard``'s read lock from a background thread until
    the context exits (or the yielded event is set).

    While active, writers to that shard block; a writer using a
    ``timeout`` gets a clean :class:`~repro.core.concurrent.LockTimeout`
    instead of hanging.
    """
    lock = sharded._shards[shard].lock
    release = threading.Event()
    acquired = threading.Event()

    def _camp() -> None:
        with lock.read():
            acquired.set()
            release.wait()

    camper = threading.Thread(target=_camp, daemon=True)
    camper.start()
    if not acquired.wait(timeout=10.0):  # pragma: no cover
        raise RuntimeError("slow reader never acquired the lock")
    _recorder.record(
        "fault_injected", fault="slow_reader", shard=shard
    )
    try:
        yield release
    finally:
        release.set()
        camper.join(timeout=10.0)


# ---------------------------------------------------------------------------
# The drill (CLI-facing)
# ---------------------------------------------------------------------------


@dataclass
class FaultOutcome:
    """One drill scenario's verdict."""

    fault: str
    passed: bool
    detail: str
    #: Flight-recorder tail captured right after the scenario ran --
    #: the black box a failing drill gets dumped with.
    events: List[Any] = field(default_factory=list)


def _counter_value(counter: Any) -> float:
    return counter.value


def run_fault_drill(
    dims: int = 2,
    width: int = 16,
    entries: int = 256,
    kinds: "List[str] | None" = None,
    seed: int = 20140623,
) -> List[FaultOutcome]:
    """Run the selected fault scenarios; returns one
    :class:`FaultOutcome` per scenario, in canonical order
    (``PARALLEL_FAULTS`` then ``DISK_FAULTS``; all of them when
    ``kinds`` is None).

    Observability is enabled for the duration (restored afterwards) so
    the per-fault counters can be asserted to move.
    """
    selected = (
        list(PARALLEL_FAULTS + DISK_FAULTS)
        if kinds is None
        else list(kinds)
    )
    unknown = set(selected) - set(PARALLEL_FAULTS + DISK_FAULTS)
    if unknown:
        raise ValueError(
            f"unknown fault kind(s) {sorted(unknown)}; choose from "
            f"{PARALLEL_FAULTS + DISK_FAULTS}"
        )
    outcomes: List[FaultOutcome] = []
    wanted = set(selected)
    if "lock-timeout" in wanted:
        outcomes.append(_lock_timeout_drill(dims, width))
    if "disk-flush-kill" in wanted:
        outcomes.append(
            _disk_kill_drill("flush", dims, width, entries, seed)
        )
    if "disk-compact-kill" in wanted:
        outcomes.append(
            _disk_kill_drill("compact", dims, width, entries, seed)
        )
    if "disk-torn-wal" in wanted:
        outcomes.append(_torn_wal_drill(dims, width, entries, seed))
    return outcomes


def _lock_timeout_drill(dims: int, width: int) -> FaultOutcome:
    """A reader camps on a shard's read lock; a bounded writer times out
    cleanly (and is counted) instead of hanging, and the same write
    succeeds once the reader leaves."""
    from repro.parallel.sharded import ShardedPHTree

    obs_before = _rt.enabled
    _rt.enable()
    try:
        tree = ShardedPHTree(dims=dims, width=width, shards=4)
        before = _counter_value(_probes.lock_timeouts.labels("write"))
        timed_out = False
        with slow_reader(tree, shard=0):
            try:
                with tree._shards[0].lock.write(timeout=0.05):
                    pass  # pragma: no cover - reader holds the lock
            except LockTimeout:
                timed_out = True
        moved = (
            _counter_value(_probes.lock_timeouts.labels("write")) - before
        )
        # After the reader leaves, the same write must succeed.
        with tree._shards[0].lock.write(timeout=1.0):
            pass
        return FaultOutcome(
            "lock-timeout",
            timed_out and moved >= 1,
            f"writer timed out cleanly={timed_out}, "
            f"lock_timeouts +{moved:g}, lock usable afterwards",
            events=_recorder.dump(last=32),
        )
    finally:
        if obs_before:
            _rt.enable()
        else:
            _rt.disable()


# ---------------------------------------------------------------------------
# Disk drills (durable store crash contract)
# ---------------------------------------------------------------------------


def _learned_segments_ok(store: Any) -> bool:
    """Every non-empty frozen segment of a learned store must carry an
    attached PHL1 model after recovery."""
    for seg in store.segments:
        if seg.frozen is not None and len(seg.frozen):
            if seg.frozen.learned_index is None:
                return False
    return True


def _disk_kill_drill(
    scenario: str, dims: int, width: int, entries: int, seed: int
) -> FaultOutcome:
    """SIGKILL a driver subprocess at a seeded byte offset inside the
    ``scenario`` phase ("flush" or "compact"), then reopen and check
    recovery against the workload oracle.

    The offset is drawn uniformly over the phase's *real* charged I/O
    volume, measured by replaying the identical deterministic workload
    in-process first -- so every byte of the phase is a reachable crash
    point across seeds.
    """
    import random
    import subprocess
    import sys
    import tempfile

    import repro
    from repro.check.validate import validate_tree
    from repro.core.serialize import U64ValueCodec
    from repro.store import io as store_io
    from repro.store.drill import (
        build_ops,
        expected_state,
        run_scenario,
    )
    from repro.store.engine import DurablePHTree

    fault = f"disk-{scenario}-kill"
    with tempfile.TemporaryDirectory(
        prefix="repro-fault-disk-"
    ) as tmp:
        # 1. Measure the phase's charged I/O volume on the identical
        #    workload (no crash armed).
        with store_io.measure() as totals:
            probe = DurablePHTree.open(
                os.path.join(tmp, "measure"),
                dims=dims,
                width=width,
                shards=4,
                value_codec=U64ValueCodec,
                learned=True,
            )
            run_scenario(
                probe, scenario, build_ops(dims, width, entries, seed)
            )
        volume = totals.get(scenario, 0)
        offset = random.Random(f"{fault}:{seed}").randrange(
            max(1, volume)
        )

        # 2. Re-run in a subprocess armed to SIGKILL itself at that
        #    offset inside the target phase.
        child_db = os.path.join(tmp, "db")
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env[store_io.CRASH_ENV] = f"{scenario}:{offset}:kill"
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + extra if extra else src_root
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.store.drill",
                child_db,
                "--scenario",
                scenario,
                "--dims",
                str(dims),
                "--width",
                str(width),
                "--entries",
                str(entries),
                "--seed",
                str(seed),
                "--learned",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        killed = proc.returncode == -signal.SIGKILL
        _recorder.record(
            "fault_injected",
            fault=fault.replace("-", "_"),
            offset=offset,
            volume=volume,
            returncode=proc.returncode,
        )

        # 3. Recovery: reopen must yield a validator-green store whose
        #    contents equal the oracle exactly (every op in these
        #    scenarios was WAL-durable before the final phase began).
        valid = True
        problem = ""
        state_ok = False
        learned_ok = False
        replayed = -1
        try:
            recovered = DurablePHTree.open(
                child_db, value_codec=U64ValueCodec
            )
        except Exception as exc:  # noqa: BLE001 - drill verdict
            valid = False
            problem = f"reopen failed: {exc!r}"
        else:
            try:
                try:
                    validate_tree(recovered)
                except Exception as exc:  # noqa: BLE001
                    valid = False
                    problem = f"validator red: {exc!r}"
                oracle = expected_state(dims, width, entries, seed)
                state_ok = dict(recovered.items()) == oracle
                learned_ok = _learned_segments_ok(recovered)
                replayed = recovered.recovery_info.get("replayed", -1)
            finally:
                recovered.close()
        passed = killed and valid and state_ok and learned_ok
        detail = (
            f"SIGKILL at offset {offset}/{volume} in {scenario!r}: "
            f"child killed={killed}, validator green={valid}, "
            f"contents==oracle={state_ok}, learned attached="
            f"{learned_ok}, wal replayed={replayed}"
        )
        if problem:
            detail += f"; {problem}"
        return FaultOutcome(
            fault, passed, detail, events=_recorder.dump(last=32)
        )


def _torn_wal_drill(
    dims: int, width: int, entries: int, seed: int
) -> FaultOutcome:
    """Corrupt the WAL tail -- truncate at a seeded offset, then (in a
    second identically built store) flip a bit inside a CRC-covered
    region -- and require recovery to land on a clean op-stream prefix
    at or past the flushed half, validator green both times.
    """
    import random
    import tempfile

    from repro.check.validate import validate_tree
    from repro.core.serialize import U64ValueCodec
    from repro.store.drill import build_ops, prefix_states
    from repro.store.engine import DurablePHTree
    from repro.store.manifest import load_manifest

    ops = build_ops(dims, width, entries, seed)
    half = len(ops) // 2
    states = prefix_states(dims, width, entries, seed)
    rng = random.Random(f"disk-torn-wal:{seed}")

    def _build(path: str) -> str:
        """First half flushed into segments, second half WAL-only;
        returns the live WAL path."""
        store = DurablePHTree.open(
            path,
            dims=dims,
            width=width,
            shards=4,
            value_codec=U64ValueCodec,
            learned=True,
        )
        for i, (op, key, value) in enumerate(ops):
            if op == "put":
                store.put(key, value)
            else:
                store.remove(key, None)
            if i == half - 1:
                store.flush()
        store.close()
        manifest = load_manifest(path)
        assert manifest is not None
        return os.path.join(path, manifest.wal)

    def _check(path: str) -> Tuple[bool, str]:
        recovered = DurablePHTree.open(
            path, value_codec=U64ValueCodec
        )
        try:
            try:
                validate_tree(recovered)
            except Exception as exc:  # noqa: BLE001 - drill verdict
                return False, f"validator red: {exc!r}"
            if not _learned_segments_ok(recovered):
                return False, "learned trailer missing"
            contents = dict(recovered.items())
            torn = recovered.recovery_info.get("torn_bytes", 0)
            for i in range(half, len(states)):
                if contents == states[i]:
                    return True, (
                        f"prefix {i}/{len(ops)} ops, "
                        f"torn_bytes={torn}"
                    )
            return False, (
                f"contents match no op prefix >= {half} "
                f"(torn_bytes={torn})"
            )
        finally:
            recovered.close()

    results: List[str] = []
    passed = True
    with tempfile.TemporaryDirectory(
        prefix="repro-fault-torn-"
    ) as tmp:
        # Case A: truncate the WAL mid-stream (torn final write).
        db = os.path.join(tmp, "truncate")
        wal_path = _build(db)
        size = os.path.getsize(wal_path)
        cut = rng.randrange(1, max(2, size))
        with open(wal_path, "r+b") as fh:
            fh.truncate(cut)
        _recorder.record(
            "fault_injected",
            fault="torn_wal_truncate",
            offset=cut,
            size=size,
        )
        ok, note = _check(db)
        passed = passed and ok
        results.append(f"truncate@{cut}/{size}: {note}")

        # Case B: flip one bit inside a CRC-covered byte (silent
        # corruption); recovery must stop at the damaged record.
        db = os.path.join(tmp, "bitflip")
        wal_path = _build(db)
        blob = bytearray(open(wal_path, "rb").read())
        pos = rng.randrange(len(blob))
        blob[pos] ^= 0x40
        with open(wal_path, "wb") as fh:
            fh.write(bytes(blob))
        _recorder.record(
            "fault_injected",
            fault="torn_wal_bitflip",
            offset=pos,
            size=len(blob),
        )
        ok, note = _check(db)
        passed = passed and ok
        results.append(f"bitflip@{pos}/{len(blob)}: {note}")

    return FaultOutcome(
        "disk-torn-wal",
        passed,
        "; ".join(results),
        events=_recorder.dump(last=32),
    )

"""Correctness tooling: invariant validation, fuzzing, fault injection.

Three pillars (DESIGN.md §10):

- :mod:`repro.check.validate` -- a structural invariant validator that
  walks any tree engine and asserts every paper-level invariant,
- :mod:`repro.check.fuzz` -- a deterministic model-based differential
  fuzzer driving randomized operation sequences against every engine in
  lockstep with a sorted-dict reference model, shrinking failures to a
  minimal paste-able repro,
- :mod:`repro.check.faults` -- fault injection for the parallel stack
  (a reader camping on a shard lock) and the durable store (SIGKILL
  mid-flush or mid-compaction, torn WAL tails), proving bounded waits
  fail cleanly, recovery restores the durable contents, and telemetry
  counts every injected fault.

Operable via ``python -m repro.tool check`` (see ``--validate``,
``--fuzz`` and ``--faults``).
"""

from repro.check.fuzz import FuzzConfig, FuzzFailure, replay, run_fuzz
from repro.check.validate import (
    InvariantViolation,
    ValidationReport,
    validate_tree,
)

__all__ = [
    "FuzzConfig",
    "FuzzFailure",
    "InvariantViolation",
    "ValidationReport",
    "replay",
    "run_fuzz",
    "validate_tree",
]

"""Learned z-address acceleration (ROADMAP: learned index layer).

Two model families over the z-sorted streams the rest of the codebase
already produces:

- :mod:`repro.learned.pla` / :mod:`repro.learned.index` -- a bounded-
  error piecewise-linear model from z-address to frozen-stream entry
  rank (FITing-Tree's shrinking cone), serialised as an optional
  trailer of the frozen byte format and attached zero-copy by
  :class:`repro.core.frozen.FrozenPHTree`.
- :mod:`repro.learned.cdf` / :mod:`repro.learned.router` -- a z-space
  CDF model producing skew-aware equi-mass shard cuts, the learned
  replacement for :class:`repro.parallel.router.ZShardRouter`'s fixed
  z-prefix splits (``ShardedPHTree(..., router="learned")``).

Both families share one contract: the model accelerates, it never
decides.  Every prediction is verified against exact structures, and
every error-bound violation falls back to the exact engine (counted by
the ``repro_learned_*`` probes).
"""

from repro.learned.index import LearnedZIndex
from repro.learned.pla import fit_segments, measure_errors

__all__ = ["LearnedZIndex", "fit_segments", "measure_errors"]

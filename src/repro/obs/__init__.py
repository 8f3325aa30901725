"""Observability layer: metrics, query tracing, telemetry, logging.

The paper's evaluation argues from *internal* quantities -- nodes
visited per query, HC vs LHC prevalence, bytes per entry -- so this
package makes those quantities visible on a live workload:

- :mod:`repro.obs.metrics` -- a dependency-free Counter/Gauge/Histogram
  registry with Prometheus-text and JSON exposition,
- :mod:`repro.obs.probes` -- the probe inventory the hot paths report
  into (kernel traversal counts, tree-shape accounting, kNN heap
  telemetry, per-shard counters),
- :mod:`repro.obs.trace` -- ``explain()``-style structured traces for a
  single window or kNN query (imported lazily; see
  :func:`explain_query` / :func:`explain_knn`),
- :mod:`repro.obs.log` -- the shared ``repro.*`` logger hierarchy,
- :mod:`repro.obs.runtime` -- the global enable/disable switch.

**Zero-cost-off contract**: with :func:`disable` (the default), every
probe reduces to a single module-attribute truth test per operation --
the traversal kernels dispatch once per *call* to their uninstrumented
twins -- and ``tests/obs/test_overhead.py`` pins the disabled overhead
of ``get_many``/``query`` at <= 5%.

Quick use::

    from repro import obs
    obs.enable()
    ...run a workload...
    print(obs.render_prometheus())   # or obs.dump_json()
    obs.reset(); obs.disable()
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs import heat, metrics, probes, recorder, runtime, span
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    get_registry,
)
from repro.obs.recorder import FlightRecorder, get_recorder
from repro.obs.runtime import disable, enable, is_enabled
from repro.obs.span import Trace, current_trace, start_trace

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Registry",
    "Trace",
    "configure_logging",
    "current_trace",
    "disable",
    "dump_json",
    "enable",
    "explain_knn",
    "explain_query",
    "get_logger",
    "get_recorder",
    "get_registry",
    "heat",
    "is_enabled",
    "metrics",
    "probes",
    "recorder",
    "render_prometheus",
    "reset",
    "reset_all",
    "runtime",
    "span",
    "start_trace",
]


def render_prometheus() -> str:
    """Prometheus text exposition of the process-global registry."""
    return metrics.REGISTRY.render_prometheus()


def dump_json() -> Dict[str, Any]:
    """JSON-friendly dump of the process-global registry."""
    return metrics.REGISTRY.dump_json()


def reset() -> None:
    """Zero every metric in the process-global registry."""
    metrics.REGISTRY.reset()


def reset_all() -> None:
    """Reset *all* telemetry state: registry values, z-region heat
    buckets, the flight recorder, and the plan-cache aggregates the
    generated arena kernels count into.  This is what
    ``repro.tool metrics --reset`` calls, and what makes repeated
    in-process CLI runs idempotent."""
    metrics.REGISTRY.reset()
    heat.reset()
    recorder.clear()
    # Lazy: repro.core.specialize imports this package at import time.
    from repro.core import specialize as _specialize

    _specialize.reset_plan_cache_counts()


def explain_query(tree: Any, box_min: Any, box_max: Any, **kw: Any):
    """Structured per-node trace of one window query; see
    :func:`repro.obs.trace.explain_query`.  (Lazy import: the tracer
    depends on :mod:`repro.core`, which itself imports this package.)"""
    from repro.obs.trace import explain_query as _impl

    return _impl(tree, box_min, box_max, **kw)


def explain_knn(tree: Any, key: Any, n: int = 1, **kw: Any):
    """Structured trace of one kNN search; see
    :func:`repro.obs.trace.explain_knn`."""
    from repro.obs.trace import explain_knn as _impl

    return _impl(tree, key, n, **kw)

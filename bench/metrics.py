"""Names, units and definitions of every metric the benchmark reports.

End-to-end metrics come from the untraced run.  Per-layer metrics come
from the traced run; each is normalised per completed item, so it reads
directly against ``item_p50_ms``.  ``BENCHMARK.json`` lists the same names
and units (``bench/tests`` checks that the two agree).
"""

from __future__ import annotations

import math
import statistics

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "item_p50_ms": ("ms", "lower"),
    "item_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# failed_ratio is always printed, but it is 0 on a correct run, so it is
# reported through the result's ``attempted`` and ``failed`` counts rather
# than as a bounded metric.
FAILED_RATIO = "failed_ratio"

# (metric, source, statistic, workload that exercises it, end-to-end
# metrics it should move).  ``source`` is a span name from tracing.TRACED,
# or a counter the workload reports itself.  Statistics:
#   calls   wrapped calls per item (an exact count over the run / items)
#   us, ms  self time per item: span durations minus their child spans,
#           scaled like the item times (calibration.py)
#   counter a per-item value the workload reads from the program's result
PER_LAYER = (
    ("sampling.random_strategy.us", "sampling.random_strategy", "us", "sweep", "items_per_s item_p50_ms"),
    ("scenario.witness_pair.us", "scenario.witness_pair", "us", "sweep", "items_per_s item_p50_ms"),
    ("linalg.matrix_sqrt_psd.calls", "linalg.matrix_sqrt_psd", "calls", "sweep", "items_per_s item_p50_ms"),
    ("linalg.matrix_sqrt_psd.us", "linalg.matrix_sqrt_psd", "us", "sweep", "items_per_s item_p50_ms"),
    ("analytics.in_quantum_set.us", "analytics.in_quantum_set", "us", "sweep", "none (under 1% of an item)"),
    ("optimizer.seesaw.ms", "optimizer.seesaw", "ms", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.trace_boundary.ms", "optimizer.trace_boundary", "ms", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.minimize_scalar.calls", "optimizer.minimize_scalar", "calls", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.minimize_scalar.us", "optimizer.minimize_scalar", "us", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.charlie_best_response.calls", "optimizer.charlie_best_response", "calls", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.charlie_best_response.us", "optimizer.charlie_best_response", "us", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.strategy_from_reduced.calls", "optimizer.strategy_from_reduced", "calls", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.strategy_from_reduced.us", "optimizer.strategy_from_reduced", "us", "boundary", "item_p50_ms item_tail_ms"),
    ("linalg.max_eigenpair.calls", "linalg.max_eigenpair", "calls", "boundary", "item_p50_ms item_tail_ms"),
    ("analytics.boundary_wac.calls", "analytics.boundary_wac", "calls", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.seesaw.best_response_steps", "best_response_steps", "counter", "boundary", "item_p50_ms item_tail_ms"),
    ("optimizer.seesaw.restart_yield", "restart_yield", "counter", "boundary", "item_p50_ms item_tail_ms"),
    ("cli.evaluate.ms", "cli.evaluate", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.certify.ms", "cli.certify", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.noise.ms", "cli.noise", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.sequence.ms", "cli.sequence", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.classical.ms", "cli.classical", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.checks.ms", "cli.checks", "ms", "cli", "item_p50_ms items_per_s"),
    ("cli.self_ms", "cli.main", "ms", "cli", "item_p50_ms items_per_s setup_s"),
    ("optimizer.classical_bruteforce.ms", "optimizer.classical_bruteforce", "ms", "cli", "item_p50_ms items_per_s"),
    ("optimizer.inequality_report.ms", "optimizer.inequality_report", "ms", "cli", "item_p50_ms items_per_s"),
    ("documents.read_strategy_file.ms", "documents.read_strategy_file", "ms", "cli", "item_p50_ms items_per_s"),
    ("scenario.joint_prob.calls", "scenario.joint_prob", "calls", "cli", "item_p50_ms items_per_s"),
    ("scenario.joint_prob.us", "scenario.joint_prob", "us", "cli", "item_p50_ms items_per_s"),
    ("linalg.polar_decompose.calls", "linalg.polar_decompose", "calls", "cli", "item_p50_ms items_per_s"),
    ("linalg.polar_decompose.us", "linalg.polar_decompose", "us", "cli", "item_p50_ms items_per_s"),
    ("sequence.simulate_chain.ms", "sequence.simulate_chain", "ms", "cli", "item_p50_ms items_per_s"),
    ("strategies.apply_visibility.us", "strategies.apply_visibility", "us", "cli", "item_p50_ms items_per_s"),
)

# Traced items_per_s divided by untraced items_per_s on the same workload
# and seed: 1 means tracing costs nothing.
TRACING_RATIO = "tracing.items_per_s_ratio"

# Unit per statistic, or per counter for the workload-reported values.
_UNITS = {"calls": "calls/item", "us": "us/item", "ms": "ms/item",
          "best_response_steps": "steps/item", "restart_yield": "ratio"}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), tracing ratio included."""
    specs = {
        metric: (_UNITS[source if stat == "counter" else stat],
                 "higher" if source == "restart_yield" else "lower")
        for metric, source, stat, _, _ in PER_LAYER
    }
    specs[TRACING_RATIO] = ("ratio", "higher")
    return specs


def per_layer_values(
    span_totals: dict[str, tuple[int, float]], counters: dict[str, float], items: int
) -> dict[str, float]:
    """Per-item per-layer values from span self times and workload counters.

    A layer the workload never reaches reads 0.
    """
    scale = {"us": 1e-3, "ms": 1e-6}
    out = {}
    for metric, source, stat, _, _ in PER_LAYER:
        if stat == "counter":
            out[metric] = counters.get(source, 0.0) / items
            continue
        calls, self_ns = span_totals.get(source, (0, 0))
        out[metric] = calls / items if stat == "calls" else self_ns * scale[stat] / items
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile, up to 99, that leaves ten items above it.

    With nearest-rank percentiles, percentile ``p`` of ``n`` sorted items is
    item ``ceil(p n / 100)``; below 11 items no percentile qualifies and the
    median is used.
    """
    for p in range(99, 0, -1):
        if math.ceil(p * n / 100) <= n - 10:
            return p
    return 50


def latency_summary(latencies_s: list[float], timed_s: float) -> dict:
    ordered = sorted(latencies_s)
    n = len(ordered)
    p = tail_percentile(n)
    rank = max(1, math.ceil(p * n / 100))
    return {
        "items_per_s": n / timed_s,
        "item_p50_ms": statistics.median(ordered) * 1e3,
        "item_tail_ms": ordered[rank - 1] * 1e3,
        "tail_percentile": p,
    }

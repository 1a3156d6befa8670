"""Metrics from a run's records and spans.

Everything here is a pure function of what the load generator and the
span recorder kept, so it can be checked without running a server.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

import spec
from spans import FLUSH


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the server's convention: an observed
    value, never an interpolation); 0.0 for no values."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def latency_ms(record) -> float:
    """Submit to completion, as the server timed it."""
    return 1e3 * record.latency_s


def completion_rate(completions: list[float], length: float) -> float:
    """Requests completed per second: the least-squares slope of the
    completion count over time.  Closed-loop completions arrive in
    bursts of one flush each, so a plain count over the window would
    move in steps of a whole batch."""
    if len(completions) < 3:
        return len(completions) / length
    times = np.asarray(completions)
    return float(np.polyfit(times - times[0], np.arange(len(times)), 1)[0])


def level_summary(phase) -> dict:
    """One level's accounting and latency figures."""
    measured = phase.measured
    delivered = [r for r in measured if r.ok]
    length = phase.end - phase.start
    latencies = [latency_ms(r) for r in delivered]
    completions = sorted(
        r.completion for r in phase.records
        if r.ok and phase.start <= r.completion < phase.end
    )
    summary = {
        "round": phase.round,
        "level": phase.name,
        "sent": len(phase.records),
        "succeeded": sum(1 for r in phase.records if r.ok),
        "failed": sum(1 for r in phase.records if not r.ok),
        "measured": len(measured),
        "throughput_rps": completion_rate(completions, length),
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "p99_ms": percentile(latencies, 0.99),
    }
    failures = len(measured) - len(delivered)
    # A failed request misses every latency limit.
    summary["meets_slo"] = (
        summary["p95_ms"] <= spec.SLO_P95_MS
        and failures <= 0.01 * max(1, len(measured))
    )
    return summary


def max_rate_at_slo(levels: list[dict]) -> float:
    """The throughput at which p95 reaches ``SLO_P95_MS``, interpolated
    linearly between the last level that meets the limit and the first
    that misses it (from the origin if the lowest misses), capped at
    the highest level.  A level missed through failures, not through
    p95, is not interpolated into."""
    rate, p95 = 0.0, 0.0
    for level in levels:
        if level["meets_slo"]:
            rate, p95 = level["throughput_rps"], level["p95_ms"]
            continue
        if level["p95_ms"] <= spec.SLO_P95_MS or level["p95_ms"] <= p95:
            return rate
        share = (spec.SLO_P95_MS - p95) / (level["p95_ms"] - p95)
        return rate + share * (level["throughput_rps"] - rate)
    return rate


def end_to_end(
    summaries: list[dict], setup_s: float, peak_rss_mb: float
) -> dict:
    """The end-to-end metrics: each the median over the rounds of that
    round's figure."""
    rounds = sorted({s["round"] for s in summaries})
    per_round = [
        round_metrics([s for s in summaries if s["round"] == r])
        for r in rounds
    ]
    values = {
        name: statistics.median(m[name] for m in per_round)
        for name in per_round[0]
    }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb
    return values


def round_metrics(levels: list[dict]) -> dict:
    """One round's figures; the headline ones are the high level's."""
    by_name = {level["level"]: level for level in levels}
    high = by_name["high"]
    sent = sum(level["sent"] for level in levels)
    succeeded = sum(level["succeeded"] for level in levels)
    values = {
        "throughput_rps": high["throughput_rps"],
        "latency_p50_ms": high["p50_ms"],
        "latency_p95_ms": high["p95_ms"],
    }
    for stat in ("p50", "p95"):
        for name in spec.LEVELS:
            values[f"latency_{stat}_ms.{name}"] = by_name[name][f"{stat}_ms"]
    values["max_rate_at_slo_rps"] = max_rate_at_slo(
        [by_name[name] for name in spec.LEVELS]
    )
    values["delivered_share"] = succeeded / sent
    return values


def flush_breakdown(spans) -> list[dict]:
    """Per flush: its duration and batch size, and the time of its
    direct children by layer; ``hybrid`` is the rest (softmax, combine,
    result objects).  Raises if children cover more than the flush."""
    resolution = time.get_clock_info("perf_counter").resolution
    flushes = {}
    for index, span in enumerate(spans):
        if span.name == FLUSH and span.parent == -1:
            flushes[index] = {
                "start": span.start, "end": span.end, "size": span.size,
                "flush_s": span.end - span.start,
                "nn_s": 0.0, "reliable_s": 0.0, "qualifier_s": 0.0,
                "reliable_calls": 0,
            }
    for span in spans:
        if span.parent == -1 or span.parent not in flushes:
            continue
        entry = flushes[span.parent]
        layer = span.name.split(".", 1)[0]
        entry[f"{layer}_s"] += span.end - span.start
        if layer == "reliable":
            entry["reliable_calls"] += 1
    for entry in flushes.values():
        children = entry["nn_s"] + entry["reliable_s"] + entry["qualifier_s"]
        entry["hybrid_s"] = entry["flush_s"] - children
        if entry["hybrid_s"] < -resolution:
            raise ValueError(
                f"child spans cover {children:.9f} s of a "
                f"{entry['flush_s']:.9f} s flush"
            )
    return sorted(flushes.values(), key=lambda entry: entry["start"])


def count_results(results, counts: dict | None = None) -> dict:
    """Add the delivered ``HybridResult`` objects' reliable-report
    counters and unavailable verdicts to ``counts`` (new when None)."""
    if counts is None:
        counts = dict.fromkeys(
            ("results", "operations", "errors_detected", "rollbacks",
             "persistent_failures", "unavailable"), 0
        )
    counts["results"] += len(results)
    for result in results:
        report = result.reliable_report
        if report is not None:
            counts["operations"] += report.operations
            counts["errors_detected"] += report.errors_detected
            counts["rollbacks"] += report.rollbacks
            counts["persistent_failures"] += report.persistent_failures
        counts["unavailable"] += not result.verdict.reliable
    return counts


def trace_overhead(untraced: dict, traced: dict) -> float:
    """The timing wrappers' cost, positive when they slow the run: the
    untraced run's ``throughput_rps`` over the traced run's, minus 1."""
    return untraced["throughput_rps"] / traced["throughput_rps"] - 1.0


def per_layer(
    phases, flushes: list[dict], counts: dict, stats: dict,
    infer_ms: list[float], untraced: dict, traced: dict,
) -> dict:
    """The per-layer metrics of a traced run.

    ``phases`` are its measured levels, ``flushes`` its
    :func:`flush_breakdown`, ``counts`` the :func:`count_results` of
    every measured request, ``stats`` the ``ServerStats`` counter
    deltas over the levels, and ``untraced``/``traced`` the
    end-to-end metrics of the two runs (the bases of trace.overhead).
    """
    windows = [(phase.start, phase.end) for phase in phases]
    in_window = [
        f for f in flushes
        if any(start <= f["start"] < end for start, end in windows)
    ]
    images = sum(f["size"] for f in in_window) or 1
    count = len(in_window) or 1
    measured = [r for phase in phases for r in phase.measured]
    delivered = [r for r in measured if r.ok]

    # Attribute each computed request to the flush that ended just
    # before its completion.  A request whose flush began before it was
    # submitted joined a flight already in progress: it never queued.
    ends = [f["end"] for f in flushes]
    queue_wait, demux = [], []
    for record in delivered:
        if record.hit:
            continue
        k = bisect.bisect_right(ends, record.completion) - 1
        if k < 0:
            continue
        flush = flushes[k]
        demux.append(1e3 * (record.completion - flush["end"]))
        if flush["start"] >= record.t0:
            queue_wait.append(1e3 * (flush["start"] - record.t0))

    def total(key: str) -> float:
        return sum(f[key] for f in in_window)

    n_results = counts["results"] or 1
    submit_us = [1e6 * (r.t1 - r.t0) for r in measured]
    measured_s = sum(end - start for start, end in windows)
    # The part of every flush inside the windows: flushes straddle
    # their edges.
    busy_s = sum(
        max(0.0, min(f["end"], end) - max(f["start"], start))
        for f in flushes for start, end in windows
    )
    values = {
        "serving.flush_ms.p50": 1e3 * percentile(
            [f["flush_s"] for f in in_window], 0.50),
        "serving.flush_ms.p99": 1e3 * percentile(
            [f["flush_s"] for f in in_window], 0.99),
        "serving.batch_size.mean": images / count,
        "serving.flushes": len(in_window),
        "serving.batcher_busy_share": busy_s / measured_s,
        "serving.queue_wait_ms.p50": percentile(queue_wait, 0.50),
        "serving.queue_wait_ms.p99": percentile(queue_wait, 0.99),
        "serving.demux_ms.p99": percentile(demux, 0.99),
        "serving.submit_us.p50": percentile(submit_us, 0.50),
        "serving.submit_us.p99": percentile(submit_us, 0.99),
        "serving.rejected": stats["rejected"],
        "serving.failed": stats["failed"],
        "serving.cancelled": stats["cancelled"],
        "serving.degraded": stats["degraded"],
        "cache.hit_rate": stats["cache_hit_rate"],
        "cache.hits": stats["cache_hits"],
        "cache.misses": stats["cache_misses"],
        "cache.joins": stats["coalesced_joins"],
        "cache.evictions": stats["cache_evictions"],
        "cache.cached_p99_ms": stats["p99_cached_latency_ms"],
        "cache.computed_p99_ms": stats["p99_computed_latency_ms"],
        "nn.forward_ms.per_flush": 1e3 * total("nn_s") / count,
        "nn.forward_us.per_image": 1e6 * total("nn_s") / images,
        "reliable.conv_calls": sum(f["reliable_calls"] for f in in_window),
        "reliable.conv_ms.per_flush": 1e3 * total("reliable_s") / count,
        "reliable.conv_us.per_image": 1e6 * total("reliable_s") / images,
        "reliable.operations": counts["operations"] / n_results,
        "reliable.errors_detected": counts["errors_detected"] / n_results,
        "reliable.rollbacks": counts["rollbacks"] / n_results,
        "reliable.persistent_failures": (
            counts["persistent_failures"] / n_results),
        "qualifier.check_ms.per_flush": 1e3 * total("qualifier_s") / count,
        "qualifier.check_us.per_image": 1e6 * total("qualifier_s") / images,
        "qualifier.unavailable": counts["unavailable"],
        "hybrid.self_ms.per_flush": 1e3 * total("hybrid_s") / count,
        "api.infer_ms.p50": percentile(infer_ms, 0.50),
        "loadgen.sent": sum(len(phase.records) for phase in phases),
    }
    values["trace.overhead"] = trace_overhead(untraced, traced)
    values["trace.throughput_rps.untraced"] = untraced["throughput_rps"]
    values["trace.throughput_rps.traced"] = traced["throughput_rps"]
    return values

"""What the serving benchmark measures: workloads, metrics and limits.

The workloads and metrics themselves, with units, directions and
bounds, are read from ``BENCHMARK.json`` at the repository root.  This
module adds what that file cannot hold: each workload's shape, the
windows and limits below, and :data:`MOVES`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

IMAGE_SIZE = 32
#: Distinct rendered signs per seed; every request draws from these.
CORPUS_SIZE = 256
MAX_BATCH = 64
MAX_WAIT_MS = 2.0
#: Large enough that ``overflow="block"`` never blocks the generator.
QUEUE_CAPACITY = 1024
#: The latency limit on p95 that ``max_rate_at_slo_rps`` is read at.
SLO_P95_MS = 100.0
#: The cache holds half the corpus, so Zipf traffic also evicts.
CACHE_MAX_ENTRIES = CORPUS_SIZE // 2
ZIPF_S = 1.1

LEVELS = ("low", "mid", "high")
#: Windows (requests kept in flight) per load level; ``high`` equals
#: ``MAX_BATCH``, the nominal load of every workload.
WINDOWS = {"low": 8, "mid": 24, "high": 64}
#: Shares of a round's measured time per level.  ``high`` gives the
#: headline figures, and its 64-request flushes are the longest, so it
#: gets most of the time; ``low`` and ``mid`` get enough for 15 to 35
#: flushes each per round at ``--seconds 35``.
SHARES = {"low": 0.1, "mid": 0.15, "high": 0.75}
#: Each level first runs this long unmeasured, so the queue and batch
#: sizes settle after the previous level (several flushes at any level).
SETTLE_S = 0.1
#: The three levels run this many times per run, and each end-to-end
#: metric is the median over the rounds.  The shared host the benchmark
#: was tuned on changed its speed by 15% from one round to the next;
#: the median of six rounds then moves less than that of three.
ROUNDS = 6
#: Warm-up before any level: this many closed-loop requests at the
#: high window (caches, allocators, first-call set-up).
WARMUP_REQUESTS = 2 * MAX_BATCH
#: Separate interpreter start-ups measured for ``setup_s``.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    cache: str  # ServingConfig.cache
    zipf: bool  # Zipf-ranked draws instead of uniform ones


#: What ``BENCHMARK.json`` cannot hold about each of its workloads.
_SHAPES = {
    "parallel_closed": ("parallel", "off", False),
    "integrated_closed": ("integrated", "off", False),
    "parallel_zipf": ("parallel", "lru", True),
}

_CONFIG = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text()
)
WORKLOADS = {
    w["name"]: Workload(w["name"], *_SHAPES[w["name"]])
    for w in _CONFIG["workloads"]
}
#: ``{"name", "unit", "better", "bound"}`` per end-to-end metric.
END_TO_END = _CONFIG["end_to_end"]
#: ``{"name", "unit", "better"}`` per per-layer metric.
PER_LAYER = _CONFIG["per_layer"]

_CLOSED = "throughput_rps on parallel_closed and integrated_closed"
_QUEUE = "latency_p50_ms.low|mid on parallel_closed and integrated_closed"
_ZIPF = "throughput_rps and latency_p95_ms on parallel_zipf"
_FLAT = "nothing: should stay flat on every workload"
_NN = (
    "throughput_rps on parallel_closed; small on integrated_closed, "
    "where conv1 runs in reliable"
)
_FAILURES = "delivered_share on every workload"
_RELIABLE = "throughput_rps on integrated_closed only"
_FAULT_FREE = "nothing: 0 on fault-free traffic"

#: The prediction written down before measuring: which end-to-end
#: metric, on which workload, a change to each per-layer metric's
#: layer should move.
MOVES = {
    "serving.flush_ms.p50": _CLOSED,
    "serving.flush_ms.p99": _CLOSED,
    "serving.batch_size.mean": _CLOSED,
    "serving.flushes": _CLOSED,
    "serving.batcher_busy_share": _CLOSED,
    "serving.queue_wait_ms.p50": _QUEUE,
    "serving.queue_wait_ms.p99": _QUEUE,
    "serving.demux_ms.p99": _FLAT,
    "serving.submit_us.p50": "throughput_rps on parallel_zipf",
    "serving.submit_us.p99": "throughput_rps on parallel_zipf",
    "serving.rejected": _FAILURES,
    "serving.failed": _FAILURES,
    "serving.cancelled": _FAILURES,
    "serving.degraded": "nothing: a property of the corpus, not of speed",
    "cache.hit_rate": _ZIPF,
    "cache.hits": _ZIPF,
    "cache.misses": _ZIPF,
    "cache.joins": _ZIPF,
    "cache.evictions": _ZIPF,
    "cache.cached_p99_ms": _ZIPF,
    "cache.computed_p99_ms": _ZIPF,
    "nn.forward_ms.per_flush": _NN,
    "nn.forward_us.per_image": _NN,
    "reliable.conv_calls": "nothing: 0 on the parallel workloads",
    "reliable.conv_ms.per_flush": _RELIABLE,
    "reliable.conv_us.per_image": _RELIABLE,
    "reliable.operations": f"{_RELIABLE} (exact count)",
    "reliable.errors_detected": _FAULT_FREE,
    "reliable.rollbacks": _FAULT_FREE,
    "reliable.persistent_failures": _FAULT_FREE,
    "qualifier.check_ms.per_flush": _CLOSED,
    "qualifier.check_us.per_image": _CLOSED,
    "qualifier.unavailable": _FAULT_FREE,
    "hybrid.self_ms.per_flush": _FLAT,
    "api.infer_ms.p50": "nothing end to end: the batch-1 path of the oracle",
    "loadgen.sent": "throughput_rps on every workload",
    "trace.overhead": "nothing: cost of the timing wrappers",
    "trace.throughput_rps.untraced": "base of trace.overhead",
    "trace.throughput_rps.traced": "base of trace.overhead",
}

"""One benchmark run: set-up, reference, load, checks and metrics.

``run.py`` is the entry point; it sets up the interpreter (paths, BLAS
threads) before this module imports the system under test.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import derive
import inputs
import loadgen
import spans
import spec
import system
from tests.support.fuzz import (
    assert_reports_equal,
    assert_verdicts_bitwise_equal,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


_COUNTERS = (
    "submitted", "completed", "failed", "rejected", "cancelled", "degraded",
    "cache_hits", "cache_misses", "coalesced_joins", "cache_evictions",
)


def measure_setup(workload: spec.Workload) -> float:
    """Median cold set-up over ``SETUP_PROBES`` fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(spec.SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, workload.name], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reference_results(pipeline, images):
    """Serial ``infer()`` per corpus image: the parity oracle, and the
    batch-1 timings behind ``api.infer_ms.p50``."""
    results, infer_ms = [], []
    for image in images:
        start = time.perf_counter()
        results.append(pipeline.infer(image))
        infer_ms.append(1e3 * (time.perf_counter() - start))
    return results, infer_ms


def parity_problems(records, reference) -> list[str]:
    """Compare each delivered result with the reference for its corpus
    image: probability bytes, class, decision, bitwise verdict and the
    reliable report's counters."""
    problems = []
    checked = set()
    for record in records:
        if not record.ok:
            continue
        got = record.result
        key = (id(got), record.index)
        if key in checked:
            continue
        checked.add(key)
        want = reference[record.index]
        context = f"corpus image {record.index}"
        try:
            assert got.probabilities.tobytes() == want.probabilities.tobytes(), (
                f"{context}: probabilities differ from serial infer()"
            )
            assert got.predicted_class == want.predicted_class, context
            assert got.decision == want.decision, context
            assert_verdicts_bitwise_equal(got.verdict, want.verdict, context)
            assert (got.reliable_report is None) == (
                want.reliable_report is None
            ), context
            if got.reliable_report is not None:
                assert_reports_equal(
                    got.reliable_report, want.reliable_report, context
                )
        except AssertionError as error:
            problems.append(str(error))
    return problems


def check_phase(phase, reference, counts: dict | None = None) -> list[str]:
    """Check a finished phase's results against the reference, add its
    measured ones to ``counts`` and let them go.  A run then holds one
    phase's results at a time, so its peak RSS does not grow with the
    number of requests served."""
    problems = parity_problems(phase.records, reference)
    if counts is not None:
        derive.count_results(
            [r.result for r in phase.measured if r.ok], counts
        )
    for record in phase.records:
        record.result = None
    return problems


def drive(pipeline, workload, images, reference, seed, seconds) -> dict:
    """Serve the warm-up and the rounds of levels on a fresh server,
    checking each phase once it has ended (outside every measured
    window)."""
    lengths = inputs.level_lengths(seconds)
    server = pipeline.serve(system.serving_config(workload))
    counts = derive.count_results([])
    with server:
        warmup = loadgen.closed_loop(
            server, images,
            inputs.draws(seed, inputs.WARMUP_STREAM, workload.zipf),
            spec.MAX_BATCH, "warmup", limit=spec.WARMUP_REQUESTS,
        )
        problems = check_phase(warmup, reference)
        before = server.stats()
        levels = []
        for round_ in range(spec.ROUNDS):
            for k, level in enumerate(spec.LEVELS):
                phase = loadgen.closed_loop(
                    server, images,
                    inputs.draws(seed, inputs.level_stream(round_, k),
                                 workload.zipf),
                    spec.WINDOWS[level], level,
                    settle_s=spec.SETTLE_S, measure_s=lengths[level],
                    round_=round_,
                )
                problems += check_phase(phase, reference, counts)
                levels.append(phase)
        after = server.stats()
    deltas = {name: getattr(after, name) - getattr(before, name)
              for name in _COUNTERS}
    lookups = deltas["cache_hits"] + deltas["cache_misses"] + deltas[
        "coalesced_joins"]
    deltas["cache_hit_rate"] = (
        (deltas["cache_hits"] + deltas["coalesced_joins"]) / lookups
        if lookups else 0.0
    )
    final = server.stats()
    deltas["p99_cached_latency_ms"] = final.p99_cached_latency_ms
    deltas["p99_computed_latency_ms"] = final.p99_computed_latency_ms
    if final.submitted != final.completed + final.failed + final.cancelled:
        problems.append(
            f"ledger: submitted {final.submitted} != completed "
            f"{final.completed} + failed {final.failed} + cancelled "
            f"{final.cancelled}"
        )
    return {"warmup": warmup, "levels": levels, "deltas": deltas,
            "counts": counts, "problems": problems}


def checked_run(pipeline, workload, images, reference, seed, seconds):
    """:func:`drive` plus the level summaries; returns the run and its
    problems (an empty list when all is well)."""
    run_ = drive(pipeline, workload, images, reference, seed, seconds)
    run_["summaries"] = [derive.level_summary(phase)
                         for phase in run_["levels"]]
    return run_, run_.pop("problems")


def print_accounting(label: str, run) -> None:
    warmup = run["warmup"]
    print(f"[{label}] phase warmup: sent {len(warmup.records)}, succeeded "
          f"{sum(r.ok for r in warmup.records)}, failed "
          f"{sum(not r.ok for r in warmup.records)}")
    for s in run["summaries"]:
        print(
            f"[{label}] round {s['round']} {s['level']}: sent {s['sent']}, "
            f"succeeded {s['succeeded']}, failed {s['failed']}, measured "
            f"{s['measured']}, rate {s['throughput_rps']:.1f}/s, p50 "
            f"{s['p50_ms']:.2f} ms, p95 {s['p95_ms']:.2f} ms, p99 "
            f"{s['p99_ms']:.2f} ms"
        )


def traced_run(pipeline, workload, images, reference, seed, seconds):
    """:func:`checked_run` with the layer spans installed; returns the
    run, its per-flush breakdown and its problems."""

    original_conv = spans.ReliableConv2D.__dict__["forward"]
    with spans.installed(pipeline, spans.SpanRecorder()) as recorder:
        traced, problems = checked_run(
            pipeline, workload, images, reference, seed, seconds
        )
    if spans.ReliableConv2D.__dict__["forward"] is not original_conv:
        problems.append("ReliableConv2D.forward was not restored")
    os.makedirs(SPAN_DIR, exist_ok=True)
    recorder.write(
        os.path.join(SPAN_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    )
    calls = sum(1 for s in recorder.spans if s.name == "reliable.forward")
    if workload.architecture == "parallel" and calls:
        problems.append(
            f"the reliable conv ran {calls} times on the parallel hybrid"
        )
    return traced, derive.flush_breakdown(recorder.spans), problems


def run(args) -> int:
    workload = spec.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(workload)
    setup_server = system.set_up(workload)
    setup_server.stop()
    pipeline = setup_server.pipeline
    images = inputs.corpus(args.seed)
    reference, infer_ms = reference_results(pipeline, images)

    # A traced invocation splits its time between the untraced base and
    # the traced run, so every invocation measures --seconds in all.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced, problems = checked_run(
        pipeline, workload, images, reference, args.seed, seconds
    )
    print_accounting("untraced", untraced)
    runs = [untraced]
    if args.trace:
        traced, flushes, traced_problems = traced_run(
            pipeline, workload, images, reference, args.seed, seconds
        )
        problems += traced_problems
        print_accounting("traced", traced)
        runs.append(traced)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = [derive.end_to_end(r["summaries"], setup_s or 0.0, peak_rss_mb)
           for r in runs]
    if args.trace:
        values = derive.per_layer(
            traced["levels"], flushes, traced["counts"], traced["deltas"],
            infer_ms, e2e[0], e2e[1],
        )
        table = spec.PER_LAYER
    else:
        values = e2e[0]
        table = spec.END_TO_END
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in table
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"MISMATCH: {problem}")
    sent = [r for run_ in runs for phase in run_["levels"]
            for r in phase.records]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(sent),
        "failed": sum(1 for r in sent if not r.ok),
        "metrics": metrics,
    }))
    return 1 if problems else 0

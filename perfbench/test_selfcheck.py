"""Self-checks for the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench -q

Covers what the benchmark's numbers rest on: inputs that are pure
functions of the seed, a traced run that leaves the program as it found
it, per-flush layer times that add up to the flush, and a prediction
in ``spec.MOVES`` for every per-layer metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import derive  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import system  # noqa: E402
from repro.core.qualifier_batch import batched_is_exact  # noqa: E402
from repro.reliable.executor import ReliableConv2D  # noqa: E402


# -- inputs are pure functions of the seed ---------------------------------

@pytest.mark.parametrize("zipf", [False, True])
def test_draws_are_a_pure_function_of_the_seed(zipf):
    assert inputs.draws(5, 1, zipf).tobytes() == (
        inputs.draws(5, 1, zipf).tobytes()
    )
    assert inputs.draws(5, 1, zipf).tobytes() != (
        inputs.draws(6, 1, zipf).tobytes()
    )


def test_zipf_draws_concentrate_on_a_hot_set_larger_than_the_cache():
    draws = inputs.draws(5, 0, zipf=True)
    counts = np.sort(np.bincount(draws, minlength=spec.CORPUS_SIZE))[::-1]
    top = counts[: spec.CACHE_MAX_ENTRIES].sum() / counts.sum()
    # Most traffic fits the cache, but not all: evictions must occur.
    assert 0.8 < top < 0.99


def test_corpus_is_seeded_and_distinct():
    corpus = inputs.corpus(2)
    assert corpus.shape == (spec.CORPUS_SIZE, 3, spec.IMAGE_SIZE,
                            spec.IMAGE_SIZE)
    assert corpus.tobytes() == inputs.corpus(2).tobytes()
    assert corpus.tobytes() != inputs.corpus(3).tobytes()


# -- tracing leaves the program as it found it ------------------------------

@pytest.fixture(scope="module")
def integrated():
    return system.build(spec.WORKLOADS["integrated_closed"])


@pytest.fixture(scope="module")
def images():
    return inputs.corpus(1)[:6]


def test_traced_run_restores_the_class_level_conv_wrapper(integrated, images):
    original = ReliableConv2D.__dict__["forward"]
    recorder = spans.SpanRecorder()
    with spans.installed(integrated, recorder):
        assert ReliableConv2D.__dict__["forward"] is not original
        integrated.infer_batch(images)
    assert ReliableConv2D.__dict__["forward"] is original
    for owner in (integrated, integrated.model, integrated.qualifier):
        assert not {"infer_batch", "forward", "forward_until", "forward_from",
                    "check_batch", "check_feature_map_batch"} & set(
            vars(owner))
    assert any(s.name == "reliable.forward" for s in recorder.spans)


def test_wrappers_are_restored_when_the_run_raises(integrated):
    original = ReliableConv2D.__dict__["forward"]
    with pytest.raises(RuntimeError):
        with spans.installed(integrated, spans.SpanRecorder()):
            raise RuntimeError("run failed")
    assert ReliableConv2D.__dict__["forward"] is original
    assert "infer_batch" not in vars(integrated)


def test_wrapping_keeps_the_batched_engines(integrated):
    with spans.installed(integrated, spans.SpanRecorder()):
        assert batched_is_exact(integrated.qualifier)
        assert type(integrated.qualifier).__name__ == "ShapeQualifier"


@pytest.mark.parametrize("workload", ["parallel_closed", "integrated_closed"])
def test_layer_times_sum_to_the_flush(workload, images):
    pipeline = system.build(spec.WORKLOADS[workload])
    recorder = spans.SpanRecorder()
    with spans.installed(pipeline, recorder):
        for n in (1, 3, 6):
            pipeline.infer_batch(images[:n])
    flushes = derive.flush_breakdown(recorder.spans)
    assert [f["size"] for f in flushes] == [1, 3, 6]
    resolution = time.get_clock_info("perf_counter").resolution
    for flush in flushes:
        parts = (flush["nn_s"] + flush["reliable_s"] + flush["qualifier_s"]
                 + flush["hybrid_s"])
        assert abs(parts - flush["flush_s"]) <= resolution
        assert flush["nn_s"] > 0 and flush["qualifier_s"] > 0
        assert flush["hybrid_s"] >= 0
        assert (flush["reliable_calls"] == 1) == (workload != "parallel_closed")


def test_flush_breakdown_rejects_children_longer_than_the_flush():
    bad = [
        spans.Span(spans.FLUSH, 0.0, 1.0, -1, 0, 4),
        spans.Span("nn.forward", 0.0, 0.7, 0, 0, 0),
        spans.Span("qualifier.check_batch", 0.6, 1.0, 0, 0, 0),
    ]
    with pytest.raises(ValueError):
        derive.flush_breakdown(bad)


# -- derived metrics ---------------------------------------------------------

def _level(rate, p95, meets=None):
    return {"throughput_rps": rate, "p95_ms": p95,
            "meets_slo": p95 <= spec.SLO_P95_MS if meets is None else meets}


def test_max_rate_at_slo_interpolates_and_caps():
    met = [_level(100, 20), _level(200, 40), _level(300, 60)]
    assert derive.max_rate_at_slo(met) == 300
    crossing = [_level(100, 20), _level(200, 60), _level(300, 140)]
    assert derive.max_rate_at_slo(crossing) == pytest.approx(250)
    # Failures miss the limit without being interpolated into.
    failing = [_level(100, 20), _level(200, 60), _level(300, 90, False)]
    assert derive.max_rate_at_slo(failing) == 200


def test_end_to_end_is_the_median_over_rounds():
    def summary(round_, level, p95):
        return {"round": round_, "level": level, "sent": 10,
                "succeeded": 10, "throughput_rps": 100.0 + round_,
                "p50_ms": 5.0, "p95_ms": p95,
                "meets_slo": True}

    # Round 1 hit a hiccup of the host; the median ignores it.
    summaries = [summary(r, level, 500.0 if r == 1 else 20.0 + r)
                 for r in range(3) for level in spec.LEVELS]
    values = derive.end_to_end(summaries, setup_s=0.5, peak_rss_mb=90.0)
    assert values["latency_p95_ms"] == 22.0
    assert values["throughput_rps"] == 101.0
    assert values["setup_s"] == 0.5 and values["peak_rss_mb"] == 90.0
    assert {m["name"] for m in spec.END_TO_END} == set(values)


def test_trace_overhead_is_a_positive_cost():
    untraced, slower = {"throughput_rps": 1000.0}, {"throughput_rps": 800.0}
    assert derive.trace_overhead(untraced, slower) == pytest.approx(0.25)
    assert derive.trace_overhead(untraced, untraced) == 0.0


def test_completion_rate_is_steady_under_bursts():
    # 64 completions every 0.1 s: 640/s however the window cuts a burst.
    bursts = [k * 0.1 + j * 1e-5 for k in range(30) for j in range(64)]
    assert derive.completion_rate(bursts, 3.0) == pytest.approx(640, rel=0.02)


# -- spec.py describes every workload and metric of BENCHMARK.json ---------

def test_every_per_layer_metric_says_what_it_should_move():
    assert set(spec.MOVES) == {m["name"] for m in spec.PER_LAYER}
    assert all(spec.MOVES.values())


def test_every_workload_has_a_shape():
    assert set(spec._SHAPES) == set(spec.WORKLOADS)

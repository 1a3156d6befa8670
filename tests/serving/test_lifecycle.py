"""Stop/start lifecycle regressions.

Three real bugs pinned failing-before/passing-after:

* **Restart accounting** -- ``StatsRecorder.mark_started()`` used to
  reset ``_started_at`` while the counters persisted, so a restarted
  server reported all-time completions divided by only the latest
  run's uptime (inflated ``throughput_rps``) and silently dropped all
  prior running time from ``uptime_seconds``.
* **Non-draining stop over-serves** -- when ``stop(drain=False)``
  landed while the queue was full, the server's wake-up sentinel was
  refused and the batcher kept popping and *flushing* requests the
  stop had promised to fail with ``ServerClosed``.
* **Uptime after a crash** -- a dead batcher left the recorder
  running, so a dead server's uptime kept growing, and a direct
  ``start()`` then discarded the dead run's uptime altogether.

Plus the lifecycle races the single state field closes: a submitter
blocked on a full queue when ``stop()`` lands, and submitters racing a
batcher death.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import ServingConfig
from repro.core.hybrid import Decision, HybridResult
from repro.core.qualifier import QualifierVerdict
from repro.serving import (
    BatcherCrash,
    PipelineServer,
    ServerClosed,
    ServerError,
    ServerOverloaded,
)
from repro.serving.stats import StatsRecorder

TIMEOUT_S = 10.0


class _EchoPipeline:
    """Minimal duck-typed pipeline: one fabricated result per image."""

    def infer_batch(self, images, qualifier_views=None):
        return [
            HybridResult(
                probabilities=np.array(
                    [float(image.sum()), 1.0], dtype=np.float64
                ),
                predicted_class=0,
                verdict=QualifierVerdict(),
                decision=Decision.NOT_SAFETY_CRITICAL,
            )
            for image in images
        ]


def _image(value: float = 1.0, size: int = 4) -> np.ndarray:
    return np.full((3, size, size), value, dtype=np.float32)


# ---------------------------------------------------------------------------
# Bug 1: restart accounting
# ---------------------------------------------------------------------------


def test_recorder_restart_accumulates_uptime():
    """A stop/start cycle banks the prior run's uptime instead of
    discarding it, so throughput is never inflated by dividing
    all-time completions by only the latest run."""
    recorder = StatsRecorder()
    recorder.mark_started()
    time.sleep(0.05)
    recorder.record_batch(100, [], completed=100)
    recorder.mark_stopped()
    first = recorder.snapshot(0)
    assert first.completed == 100
    assert first.uptime_seconds >= 0.05

    recorder.mark_started()  # restart: counters persist, uptime must too
    second = recorder.snapshot(0)
    assert second.uptime_seconds >= first.uptime_seconds
    # Pre-fix this exploded to completed / (a few microseconds); the
    # fixed rate can only *drop* as uptime keeps accumulating.
    assert second.throughput_rps <= first.throughput_rps * 1.01

    recorder.mark_stopped()
    third = recorder.snapshot(0)
    assert third.uptime_seconds >= second.uptime_seconds


def test_recorder_uptime_frozen_while_stopped():
    recorder = StatsRecorder()
    recorder.mark_started()
    recorder.mark_stopped()
    frozen = recorder.snapshot(0).uptime_seconds
    time.sleep(0.02)
    assert recorder.snapshot(0).uptime_seconds == frozen


def test_server_restart_keeps_cumulative_uptime_and_ledger():
    """Whole-server version: counters and uptime both span restarts,
    and the ledger keeps balancing across the second run."""
    server = PipelineServer(
        _EchoPipeline(), ServingConfig(max_batch=4, max_wait_ms=5)
    )
    server.start()
    pendings = [server.submit(_image(float(i))) for i in range(8)]
    for pending in pendings:
        pending.result(timeout=10)
    time.sleep(0.05)  # measurable first-run uptime
    server.stop(timeout=10)
    first = server.stats()
    assert first.completed == 8

    server.start()
    second = server.stats()
    assert second.completed == 8
    assert second.uptime_seconds >= first.uptime_seconds
    assert second.throughput_rps <= first.throughput_rps * 1.01

    more = [server.submit(_image(float(i))) for i in range(4)]
    for pending in more:
        pending.result(timeout=10)
    server.stop(timeout=10)
    final = server.stats()
    assert final.submitted == 12
    assert final.completed == 12
    assert final.uptime_seconds >= second.uptime_seconds
    assert (
        final.completed + final.failed + final.cancelled
        == final.submitted
    )


# ---------------------------------------------------------------------------
# Bug 2: non-draining stop with a full queue
# ---------------------------------------------------------------------------


class _GatedPipeline(_EchoPipeline):
    """Parks every flush inside ``infer_batch`` until released, so a
    test can fill the queue behind a busy batcher deterministically."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def infer_batch(self, images, qualifier_views=None):
        self.entered.set()
        assert self.release.wait(TIMEOUT_S), "test never released flush"
        return super().infer_batch(images, qualifier_views)


def _await_closed(server: PipelineServer) -> None:
    """Probe until a submission meets a closed server.  Under
    ``overflow="reject"`` a probe into the full queue is refused with
    ``ServerOverloaded`` (never accepted) until the stop lands."""
    deadline = time.perf_counter() + TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            server.submit(_image(0.0))
        except ServerOverloaded:
            time.sleep(0.001)
        except ServerClosed:
            return
        else:
            pytest.fail("a probe was accepted into a full queue")
    pytest.fail("stop never closed the server")


def test_no_drain_stop_with_full_queue_stops_the_sweep():
    """``stop(drain=False)`` landing on a full queue must not keep
    serving: the request already in the batcher's hands is served,
    everything queued fails with ``ServerClosed``."""
    pipeline = _GatedPipeline()
    capacity = 4
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=4,
            max_wait_ms=50,
            queue_capacity=capacity,
            overflow="reject",
        ),
    )
    server.start()
    try:
        first = server.submit(_image(1.0))
        # The batcher holds `first` inside infer_batch.
        assert pipeline.entered.wait(TIMEOUT_S)
        queued = [
            server.submit(_image(float(i))) for i in range(2, 6)
        ]
        assert server.stats().queue_depth == capacity
        stopper = threading.Thread(
            target=server.stop,
            kwargs={"drain": False, "timeout": TIMEOUT_S},
        )
        stopper.start()
        _await_closed(server)  # the no-drain stop has landed
        pipeline.release.set()
        stopper.join(TIMEOUT_S)
        assert not stopper.is_alive()
    finally:
        pipeline.release.set()
        server.stop(drain=False, timeout=TIMEOUT_S)

    # The request already in the batcher's hands is served...
    assert first.result(timeout=TIMEOUT_S) is not None
    # ...but everything still queued when the no-drain stop landed
    # fails with ServerClosed instead of being coalesced and flushed.
    for pending in queued:
        with pytest.raises(ServerClosed):
            pending.result(timeout=TIMEOUT_S)
    stats = server.stats()
    assert stats.submitted == 5
    assert stats.completed == 1
    assert stats.cancelled == 4
    assert stats.failed == 0
    assert (
        stats.completed + stats.failed + stats.cancelled
        == stats.submitted
    )


# ---------------------------------------------------------------------------
# Bug 3: uptime after a batcher crash
# ---------------------------------------------------------------------------


class _CrashingPipeline(_EchoPipeline):
    """Kills the batcher on its ``crash_on``-th flush."""

    def __init__(self, crash_on: int) -> None:
        self.calls = 0
        self.crash_on = crash_on

    def infer_batch(self, images, qualifier_views=None):
        self.calls += 1
        if self.calls == self.crash_on:
            raise BatcherCrash("stub crash")
        return super().infer_batch(images, qualifier_views)


def _crashed_server() -> PipelineServer:
    """A server that served four requests, then lost its batcher."""
    server = PipelineServer(
        _CrashingPipeline(crash_on=2),
        ServingConfig(max_batch=4, max_wait_ms=5),
    )
    server.start()
    served = [server.submit(_image(float(i))) for i in range(4)]
    for pending in served:
        pending.result(timeout=TIMEOUT_S)
    time.sleep(0.05)  # measurable uptime before the crash
    with pytest.raises(ServerError):
        server.submit(_image(9.0)).result(timeout=TIMEOUT_S)
    deadline = time.perf_counter() + TIMEOUT_S
    while server.running and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert not server.running
    return server


def test_dead_server_uptime_is_frozen():
    server = _crashed_server()
    dead = server.stats()
    time.sleep(0.05)
    assert server.stats().uptime_seconds == dead.uptime_seconds
    server.stop(timeout=TIMEOUT_S)  # adds no dead time either
    assert server.stats().uptime_seconds == dead.uptime_seconds


def test_direct_restart_after_crash_keeps_uptime():
    """``start()`` straight after a batcher death (no ``stop()``)
    banks the dead run's uptime instead of discarding it."""
    server = _crashed_server()
    dead = server.stats()
    assert dead.completed == 4
    server.start()
    try:
        restarted = server.stats()
        assert restarted.uptime_seconds >= dead.uptime_seconds
        assert restarted.throughput_rps <= dead.throughput_rps
    finally:
        server.stop(timeout=TIMEOUT_S)


def test_recorder_second_stop_adds_no_time():
    recorder = StatsRecorder()
    recorder.mark_started()
    recorder.mark_stopped()
    frozen = recorder.snapshot(0).uptime_seconds
    time.sleep(0.02)
    recorder.mark_stopped()
    assert recorder.snapshot(0).uptime_seconds == frozen


# ---------------------------------------------------------------------------
# Races the single lifecycle state closes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("drain", [True, False])
def test_blocked_submitter_gets_server_closed_when_stop_lands(drain):
    """A ``submit`` blocked on a full queue when ``stop()`` lands
    raises ``ServerClosed`` at once -- it neither waits for room nor
    counts as submitted."""
    pipeline = _GatedPipeline()
    server = PipelineServer(
        pipeline,
        ServingConfig(
            max_batch=1, max_wait_ms=0, queue_capacity=1, overflow="block"
        ),
    )
    server.start()
    outcome: dict[str, object] = {}

    def blocked_submit() -> None:
        try:
            outcome["handle"] = server.submit(_image(3.0))
        except ServerClosed as error:
            outcome["error"] = error

    submitter = threading.Thread(target=blocked_submit)
    stopper = threading.Thread(
        target=server.stop, kwargs={"drain": drain, "timeout": TIMEOUT_S}
    )
    try:
        first = server.submit(_image(1.0))
        assert pipeline.entered.wait(TIMEOUT_S)  # batcher holds `first`
        queued = server.submit(_image(2.0))  # the queue is now full
        submitter.start()
        time.sleep(0.1)  # let the submitter block on the full queue
        stopper.start()
        # The queue stays full (the flush is still parked, for longer
        # than this join waits), so only the stop can release the
        # submitter.
        submitter.join(TIMEOUT_S / 2)
        assert not submitter.is_alive(), "blocked submit outlived stop"
    finally:
        pipeline.release.set()
        if stopper.is_alive():
            stopper.join(TIMEOUT_S)
        submitter.join(TIMEOUT_S)
        server.stop(timeout=TIMEOUT_S)

    assert isinstance(outcome.get("error"), ServerClosed), outcome
    assert first.result(timeout=TIMEOUT_S) is not None
    if drain:
        assert queued.result(timeout=TIMEOUT_S) is not None
    else:
        with pytest.raises(ServerClosed):
            queued.result(timeout=TIMEOUT_S)
    stats = server.stats()
    assert stats.submitted == 2
    assert stats.completed == (2 if drain else 1)
    assert stats.cancelled == (0 if drain else 1)
    assert stats.rejected == 0


def test_submits_racing_a_batcher_death_all_settle():
    """Submitters racing a batcher crash: every accepted handle
    settles without anyone calling ``stop()`` (no submission can slip
    into the queue behind the death sweep), and the ledger balances."""
    server = PipelineServer(
        _CrashingPipeline(crash_on=3),
        ServingConfig(
            max_batch=4, max_wait_ms=1, queue_capacity=64, overflow="reject"
        ),
    )
    server.start()
    handles = []
    handles_lock = threading.Lock()

    def client(seed: int) -> None:
        for i in range(500):
            try:
                pending = server.submit(_image(seed + 1e-3 * i))
            except ServerOverloaded:
                continue
            except ServerClosed:
                return
            with handles_lock:
                handles.append(pending)

    clients = [
        threading.Thread(target=client, args=(float(k),)) for k in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the racing threads finely
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(TIMEOUT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    delivered = 0
    for pending in handles:
        try:
            error = pending.exception(timeout=TIMEOUT_S)
        except TimeoutError:
            pytest.fail("an accepted handle hung on the dead batcher")
        delivered += error is None
    assert not server.running
    server.stop(drain=False, timeout=TIMEOUT_S)
    stats = server.stats()
    assert stats.submitted == len(handles)
    assert stats.completed == delivered
    assert (
        stats.completed + stats.failed + stats.cancelled
        == stats.submitted
    )

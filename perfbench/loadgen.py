"""A single-thread closed-loop load generator against a running
``PipelineServer``.

Each request becomes a :class:`Record`.  The generator keeps the
timing work in the loop minimal -- three clock reads and an append --
and leaves every statistic to ``derive.py`` after the phase.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# repro.api first: importing repro.serving before it is circular.
import repro.api  # noqa: F401
from repro.serving import ServerOverloaded

#: Longest wait for any one result before it counts as timed out.
RESULT_TIMEOUT_S = 60.0


class TimedOut(Exception):
    """A request whose result did not arrive within RESULT_TIMEOUT_S."""


class Record:
    """One request: corpus index, the clock just before and just after
    ``submit``, and its outcome.

    :meth:`wait` keeps the result and the server's submit-to-completion
    latency and drops the pending handle, so a long run holds no event
    and lock per request; the result itself is dropped once checked.
    ``hit`` is true when ``submit`` returned an already-completed
    handle: a response-cache hit.
    """

    __slots__ = ("index", "t0", "t1", "hit", "pending", "result",
                 "latency_s", "error")

    def __init__(self, index, t0, t1, pending, error=None):
        self.index = index
        self.t0 = t0
        self.t1 = t1
        self.hit = pending is not None and pending.done()
        self.pending = pending
        self.result = None
        self.latency_s = None
        self.error = error
        if self.hit:
            self.wait()

    def wait(self) -> None:
        pending = self.pending
        if pending is None:
            return
        self.pending = None
        try:
            self.result = pending.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            self.error = TimedOut()
        except Exception as error:  # noqa: BLE001 -- the request's outcome
            self.error = error
        self.latency_s = pending.latency_seconds

    @property
    def ok(self) -> bool:
        """Delivered: waited for, and no error (nor a refused submit)."""
        return self.error is None and self.latency_s is not None

    @property
    def completion(self) -> float:
        """``t1`` plus the server's latency: an upper bound on the true
        completion time, off by at most the submit duration."""
        return self.t1 + self.latency_s


@dataclass
class Phase:
    """A warm-up or one load level.  The measured requests are those
    sent in ``[start, end)``."""

    name: str
    start: float
    end: float
    round: int = 0
    records: list[Record] = field(default_factory=list)

    @property
    def measured(self) -> list[Record]:
        return [
            r for r in self.records
            if self.start <= r.t0 < self.end
        ]


def _submit(server, images, index) -> Record:
    t0 = time.perf_counter()
    try:
        pending = server.submit(images[index])
    except ServerOverloaded as error:
        return Record(index, t0, time.perf_counter(), None, error)
    return Record(index, t0, time.perf_counter(), pending)


def closed_loop(
    server, images: np.ndarray, draws: np.ndarray, window: int,
    name: str, settle_s: float = 0.0, measure_s: float = 0.0,
    limit: int | None = None, round_: int = 0,
) -> Phase:
    """Keep ``window`` requests in flight: once the window is full,
    wait for the oldest before submitting the next.  Runs for
    ``settle_s + measure_s`` seconds, or for ``limit`` requests."""
    start = time.perf_counter() + settle_s
    phase = Phase(name, start, start + measure_s, round_)
    inflight: deque[Record] = deque()
    sent = 0
    while True:
        if limit is None:
            if time.perf_counter() >= phase.end:
                break
        elif sent == limit:
            break
        if len(inflight) == window:
            inflight.popleft().wait()
        record = _submit(server, images, int(draws[sent % len(draws)]))
        sent += 1
        inflight.append(record)
        phase.records.append(record)
    for record in inflight:
        record.wait()
    return phase

"""Concurrent micro-batching server around a hybrid pipeline.

The deployment gap this closes: the batched engines (vectorized
reliable conv, batched qualifier, batch-invariant CNN forward) make
``infer_batch`` several times cheaper per image than ``infer``, but
real traffic arrives one image per request.  :class:`PipelineServer`
accepts single-image submissions from any number of client threads and
transparently coalesces them into ``infer_batch`` calls -- flushing on
whichever comes first, ``max_batch`` requests or ``max_wait_ms``
elapsed since the batcher took the forming batch's first request off
the queue (time a request spent queued behind a busy batcher does not
count against the wait).

The load-bearing guarantee is **parity, not just speed**: every
per-request result is bitwise identical to what a serial
``pipeline.infer()`` call would have produced, *regardless of how
requests interleave into micro-batches*.  This is exactly what the
batched engines' per-image bitwise stability buys (each stage's
arithmetic for image ``i`` is independent of which other images share
its batch); the serving tests and throughput benchmark assert it
rather than assume it.

Threading model: one batcher thread owns the pipeline and makes every
``infer_batch`` call.  The pipeline is deliberately *not* shared
between concurrent ``infer_batch`` calls -- the qualifier's rollback
machinery is stateful.  Within one call the parallel hybrid may run
its CNN branch on a worker thread beside the qualifier (see
:class:`~repro.core.hybrid.ParallelHybridCNN`); that is the pipeline's
business, and the call still returns only once both branches have
finished.  Micro-batching is where most of the throughput comes from.
The lifecycle state, the pending-request queue
and the batcher thread handle sit behind one condition variable, so a
submission and a state change can never interleave.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from collections.abc import Callable

import numpy as np

from repro.api.config import ServingConfig
from repro.serving.cache import ResponseCache
from repro.serving.stats import ServerStats, StatsRecorder


class ServerError(RuntimeError):
    """Base class for serving-layer errors."""


class ServerClosed(ServerError):
    """Submission attempted on a server that is not accepting work."""


class ServerOverloaded(ServerError):
    """Backpressure refused a submission (bounded queue at capacity)."""


class BatcherCrash(BaseException):
    """Kills the batcher thread from inside a flush -- the crash seam
    the chaos layer's BATCHER_CRASH fault injects (see
    :mod:`repro.chaos`).

    Deliberately derives from ``BaseException``: ``_flush`` absorbs
    ``Exception``-level pipeline failures into per-request errors, but
    a crash must escape that demux so it exercises the serve loop's
    death handler -- which fails every in-flight and queued request
    with full accounting, the behaviour a real batcher death (OOM,
    interpreter shutdown) gets.  Anything that raises this from a
    pipeline receives the same accounted-crash semantics.
    """


class PendingResult:
    """Future-like handle for one submitted request.

    The batcher completes it exactly once -- with a
    :class:`~repro.core.hybrid.HybridResult`, or with the exception the
    pipeline raised, or with :class:`ServerClosed` if the server was
    stopped without draining, or with :class:`ServerError` if the
    batcher died.
    """

    __slots__ = ("_event", "_result", "_error", "_submitted_at",
                 "_latency_s")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._submitted_at = time.perf_counter()
        self._latency_s: float | None = None

    # -- batcher side ----------------------------------------------------
    def _complete(self, result) -> None:
        self._result = result
        self._latency_s = time.perf_counter() - self._submitted_at
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._latency_s = time.perf_counter() - self._submitted_at
        self._event.set()

    # -- client side -----------------------------------------------------
    def done(self) -> bool:
        """True once a result or an error is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the result; re-raises the pipeline's exception if
        the batch failed, raises ``TimeoutError`` on timeout."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no result within {timeout} s (server busy or stopped?)"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block like :meth:`result` but return the error (or None)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"no result within {timeout} s")
        return self._error

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-completion latency; None while pending."""
        return self._latency_s


class _Request:
    __slots__ = ("image", "qualifier_view", "pending", "cache_key")

    def __init__(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None,
        pending: PendingResult,
    ) -> None:
        self.image = image
        self.qualifier_view = qualifier_view
        self.pending = pending
        #: Set only on a cache *leader*: the key whose single flight
        #: this request carries.  The flight is closed exactly where
        #: the request settles -- published by a successful flush,
        #: aborted by :meth:`PipelineServer._fail` -- so joined
        #: followers never hang.
        self.cache_key: tuple[str, str] | None = None


class _State(str, enum.Enum):
    """Lifecycle of a :class:`PipelineServer`.

    ``RUNNING -> DRAINING | STOPPING -> STOPPED``, plus ``DEAD`` when
    the batcher thread dies; ``start()`` leaves STOPPED or DEAD for
    RUNNING.  Only RUNNING accepts submissions.
    """

    RUNNING = "running"
    DRAINING = "draining"
    STOPPING = "stopping"
    STOPPED = "stopped"
    DEAD = "dead"


class PipelineServer:
    """Micro-batching front-end for a :class:`~repro.api.pipeline.
    HybridPipeline`.

    Parameters
    ----------
    pipeline:
        The pipeline to serve.  Anything with the facade's
        ``infer_batch(images, qualifier_views=None)`` shape works; the
        batcher thread becomes its sole user while the server runs.
    config:
        Batching and backpressure knobs
        (:class:`~repro.api.config.ServingConfig`); defaults apply
        when omitted.
    on_degraded:
        Optional graceful-degradation hook: called from the batcher
        thread with each completed :class:`~repro.core.hybrid.
        HybridResult` whose decision is qualifier-flagged (rejected by
        the qualifier, shape without class, or qualifier unavailable
        -- see ``HybridResult.flagged``).  This is *routing*, not
        replacement: the submitting client still receives the result;
        the hook feeds whatever supervisory layer watches the fleet.
        Exceptions it raises are swallowed (counted as served).

    Use as a context manager for exception-safe draining::

        with PipelineServer(pipeline, ServingConfig(max_batch=32)) as srv:
            pending = [srv.submit(image) for image in images]
            results = [p.result() for p in pending]
    """

    #: Thread-safety contract, machine-checked by the LOCK-GUARD lint
    #: rule: the lifecycle state, the pending-request queue and the
    #: batcher thread handle are read and written only under ``_cond``.
    _guarded_by = {"_cond": ("_state", "_pending", "_thread")}

    #: Helpers that run inside a ``with self._cond`` block (or as its
    #: ``wait_for`` predicate).  The lexical LOCK-GUARD rule checks them
    #: as if the lock were held, and the project pass (LOCK-CALL)
    #: verifies every call site actually holds it.
    _requires_lock = {
        "_has_work": ("_cond",),
        "_has_room_or_closed": ("_cond",),
        "_enqueue": ("_cond",),
    }

    def __init__(
        self,
        pipeline,
        config: ServingConfig | None = None,
        on_degraded: Callable | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.on_degraded = on_degraded
        self._recorder = StatsRecorder(self.config.latency_window)
        #: Content-addressed response cache (None under cache="off").
        #: Safe because served results are bitwise-deterministic per
        #: (input digest, pipeline content hash) -- see
        #: repro.serving.cache.  Duck-typed pipelines without a
        #: PipelineConfig hash as "" (the cache is private to this
        #: server instance, so an empty hash cannot collide across
        #: differently-wired pipelines).
        self._cache: ResponseCache | None = None
        if self.config.cache == "lru":
            pipeline_config = getattr(pipeline, "config", None)
            content_hash = (
                pipeline_config.content_hash()
                if hasattr(pipeline_config, "content_hash")
                else ""
            )
            self._cache = ResponseCache(
                self.config.cache_max_entries, config_hash=content_hash
            )
        self._cond = threading.Condition()
        self._state = _State.STOPPED
        #: Accepted requests the batcher has not taken yet, bounded by
        #: ``queue_capacity``.
        self._pending: deque[_Request] = deque()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        """True from ``start()`` until the batcher exits (after
        ``stop()``, or when it dies)."""
        with self._cond:
            return self._state not in (_State.STOPPED, _State.DEAD)

    def start(self) -> PipelineServer:
        """Launch the batcher thread; idempotence is an error (a
        second ``start`` on a running server raises)."""
        with self._cond:
            if self._state not in (_State.STOPPED, _State.DEAD):
                raise ServerError("server already running")
            self._state = _State.RUNNING
            self._thread = threading.Thread(
                target=self._serve_loop,
                name="pipeline-server-batcher",
                daemon=True,
            )
            self._recorder.mark_started()
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut the batcher down.

        ``drain=True`` (default) serves every already-queued request
        before returning; ``drain=False`` fails queued requests with
        :class:`ServerClosed`.  Either way a ``submit`` still waiting
        for queue room raises :class:`ServerClosed` and is never
        counted as submitted.  Calling stop on a stopped server is a
        no-op.
        """
        with self._cond:
            thread = self._thread
            if thread is None:
                return
            if self._state is _State.RUNNING:
                self._state = _State.DRAINING if drain else _State.STOPPING
                self._cond.notify_all()
        thread.join(timeout)
        if thread.is_alive():
            raise ServerError(
                f"batcher did not stop within {timeout} s"
            )
        with self._cond:
            if self._thread is thread:  # not restarted meanwhile
                self._thread = None
                self._state = _State.STOPPED

    def __enter__(self) -> PipelineServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        qualifier_view: np.ndarray | None = None,
        use_cache: bool = True,
    ) -> PendingResult:
        """Enqueue one image; returns immediately with the pending
        handle (unless backpressure applies -- see below).

        ``qualifier_view`` optionally gives the dependable block a
        different rendering of the same scene, exactly as
        ``pipeline.infer(image, qualifier_view=...)`` would; requests
        with and without views may be freely mixed (the batcher groups
        compatible requests, see :meth:`_flush`).

        Response cache (``config.cache="lru"``): the request's inputs
        are digested (:func:`~repro.serving.cache.response_digest`)
        before any dtype cast, and the cache resolves the key -- a
        stored result completes the handle immediately (in the
        submitting thread, degradation routing included), a duplicate
        of an in-flight request coalesces onto that single flight, and
        only a genuinely new key enters the batch queue.
        ``use_cache=False`` opts this one submission out entirely: it
        is neither answered from, nor joined to, nor published into
        the cache.

        Backpressure (``config.overflow``): with ``"block"`` a full
        queue blocks the caller up to ``submit_timeout_s`` (forever
        when None) and then raises :class:`ServerOverloaded`; with
        ``"reject"`` a full queue raises immediately.  Either way the
        rejection is counted in :meth:`stats`.  A blocked caller whose
        server stops (or dies) meanwhile raises :class:`ServerClosed`.
        """
        raw_image = np.asarray(image)
        raw_view = (
            None if qualifier_view is None else np.asarray(qualifier_view)
        )
        request = _Request(
            np.asarray(raw_image, dtype=np.float32),
            None
            if raw_view is None
            else np.asarray(raw_view, dtype=np.float32),
            PendingResult(),
        )
        # Key over the *submitted* storage words (pre-cast): any bit
        # difference in what the caller handed us keys distinctly, so
        # the cache can only under-share.
        key = (
            self._cache.key_for(raw_image, raw_view)
            if self._cache is not None and use_cache
            else None
        )
        with self._cond:
            if self._state is not _State.RUNNING:
                raise ServerClosed("server is not accepting submissions")
            outcome, cached = "uncached", None
            if key is not None:
                outcome, cached = self._cache.lookup_or_join(
                    key, request.pending
                )
                if outcome == "lead":
                    request.cache_key = key
                    self._recorder.record_cache_miss()
            if outcome in ("lead", "uncached"):
                self._enqueue(request)
            self._recorder.record_submitted()
        if outcome == "joined":
            self._recorder.record_coalesced_join()
        elif outcome == "hit":
            flagged = bool(getattr(cached, "flagged", False))
            if flagged:
                self._route_degraded(cached)
            request.pending._complete(cached)
            self._recorder.record_cache_hit(
                request.pending.latency_seconds, degraded=flagged
            )
        return request.pending

    def _enqueue(self, request: _Request) -> None:
        """Append ``request`` to the queue under the overflow policy,
        or raise without accepting it."""
        if self.config.overflow == "block":
            self._cond.wait_for(
                self._has_room_or_closed, self.config.submit_timeout_s
            )
        if self._state is not _State.RUNNING:
            error: ServerError = ServerClosed(
                "server stopped while the submission waited for room"
            )
        elif len(self._pending) >= self.config.queue_capacity:
            self._recorder.record_rejected()
            error = ServerOverloaded(
                f"queue at capacity ({self.config.queue_capacity}); "
                f"overflow policy {self.config.overflow!r}"
            )
        else:
            self._pending.append(request)
            self._cond.notify_all()
            return
        # The refused request itself was never accepted, but a cache
        # leader may have gathered followers while it waited for room;
        # they were, so they count as cancelled.
        followers = self._fail(request, error) - 1
        if followers:
            self._recorder.record_cancelled(followers)
        raise error

    def _has_room_or_closed(self) -> bool:
        return (
            self._state is not _State.RUNNING
            or len(self._pending) < self.config.queue_capacity
        )

    # -- metrics ---------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent snapshot of the server's counters."""
        with self._cond:
            queue_depth = len(self._pending)
        return self._recorder.snapshot(
            queue_depth,
            cache_entries=(
                len(self._cache) if self._cache is not None else 0
            ),
        )

    # -- batcher ---------------------------------------------------------
    def _serve_loop(self) -> None:
        batch: list[_Request] = []
        try:
            while batch := self._next_batch():
                self._flush(batch)
        except BaseException as error:  # noqa: BLE001 -- must not hang
            # The loop itself failed (only _flush's per-group work is
            # individually guarded -- e.g. a MemoryError while
            # stacking a batch, or the BatcherCrash seam).  A dead
            # batcher must not strand blocked clients: fail the batch
            # in hand and everything queued.
            failure = ServerError(f"batcher thread died: {error!r}")
            failure.__cause__ = error
            self._retire(_State.DEAD, failure, batch)
        else:
            closed = ServerClosed("server stopped without draining")
            self._retire(_State.STOPPED, closed, batch)

    def _next_batch(self) -> list[_Request]:
        """Take the next micro-batch off the queue; ``[]`` once the
        batcher should exit.

        RUNNING coalesces: take what is queued, then wait out the rest
        of ``max_wait_ms`` -- counted from when this batch's first
        request is taken -- for the batch to fill.  DRAINING takes
        ``max_batch``-sized chunks without the fill wait until the
        queue is empty.  STOPPING takes nothing: :meth:`_retire`
        cancels what is left.
        """
        max_batch = self.config.max_batch
        batch: list[_Request] = []
        with self._cond:
            self._cond.wait_for(self._has_work)
            deadline = time.perf_counter() + self.config.max_wait_ms / 1e3
            while self._state is not _State.STOPPING:
                while self._pending and len(batch) < max_batch:
                    batch.append(self._pending.popleft())
                remaining = deadline - time.perf_counter()
                if (
                    len(batch) == max_batch
                    or self._state is not _State.RUNNING
                    or remaining <= 0
                ):
                    break
                self._cond.wait(remaining)
            self._cond.notify_all()  # room for blocked submitters
        return batch

    def _has_work(self) -> bool:
        return bool(self._pending) or self._state is not _State.RUNNING

    def _retire(
        self, state: _State, error: BaseException, in_hand: list[_Request]
    ) -> None:
        """Leave service as ``state``: close the recorder's running
        period, then cancel whatever of ``in_hand`` is unsettled and
        everything still queued with ``error``.  The state change and
        the queue sweep share one critical section, so no submission
        can slip in behind the sweep."""
        with self._cond:
            self._state = state
            swept = [*in_hand, *self._pending]
            self._pending.clear()
            self._recorder.mark_stopped()
            self._cond.notify_all()
        cancelled = sum(self._fail(request, error) for request in swept)
        if cancelled:
            self._recorder.record_cancelled(cancelled)

    def _flush(self, batch: list[_Request]) -> None:
        """Run one micro-batch and demux results to their requests.

        Requests are grouped into ``infer_batch``-compatible runs --
        same image shape, and views either absent or present with one
        shape -- so heterogeneous traffic (mixed resolutions, mixed
        view usage) batches as far as possible and never errors
        because of *other* requests in the flush.  Parity holds within
        any grouping because every batched stage is per-image
        bitwise-stable.
        """
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            view = request.qualifier_view
            key = (
                request.image.shape,
                None if view is None else view.shape,
            )
            groups.setdefault(key, []).append(request)
        degraded = 0
        failures = 0
        completed = 0
        latencies: list[float] = []
        # The ledger entry is written in a finally so a flush that
        # dies mid-way (BatcherCrash below, MemoryError while
        # stacking) still accounts for the groups it already demuxed;
        # the serve loop's crash handler then accounts for the rest --
        # without this, completions delivered before the crash would
        # vanish from the books.
        try:
            for (image_shape, view_shape), requests in groups.items():
                try:
                    images = np.stack([r.image for r in requests])
                    views = (
                        None
                        if view_shape is None
                        else np.stack(
                            [r.qualifier_view for r in requests]
                        )
                    )
                    if views is None:
                        results = list(self.pipeline.infer_batch(images))
                    else:
                        results = list(
                            self.pipeline.infer_batch(
                                images, qualifier_views=views
                            )
                        )
                    if len(results) != len(requests):
                        raise ServerError(
                            f"pipeline returned {len(results)} results "
                            f"for {len(requests)} requests"
                        )
                except BatcherCrash:
                    # The deliberate crash seam: escape the demux so
                    # the serve loop's death handler fails this group
                    # (and everything queued) with full accounting.
                    raise
                except BaseException as error:  # noqa: BLE001 -- demuxed
                    # Errors are never cached: the flight closes so the
                    # key recomputes next time, and joiners fail too.
                    for request in requests:
                        failures += self._fail(request, error)
                    continue
                for request, result in zip(requests, results):
                    flagged = bool(getattr(result, "flagged", False))
                    if flagged:
                        degraded += 1
                        self._route_degraded(result)
                    request.pending._complete(result)
                    completed += 1
                    latency = request.pending.latency_seconds
                    if latency is not None:
                        latencies.append(latency)
                    self._publish_cached_result(request, result, flagged)
        finally:
            self._recorder.record_batch(
                len(batch), latencies, completed=completed,
                failures=failures, degraded=degraded,
            )

    def _route_degraded(self, result) -> None:
        """Fire the degradation hook for one qualifier-flagged logical
        request (delivery is unaffected; hook errors are swallowed).
        Cached and coalesced deliveries route here too -- once per
        logical request, not once per inference."""
        if self.on_degraded is not None:
            try:
                self.on_degraded(result)
            except Exception:  # noqa: BLE001 -- supervisory
                pass

    def _publish_cached_result(
        self, request: _Request, result, flagged: bool
    ) -> None:
        """Store a leader's result and complete its joined followers
        with the *same object* -- bitwise-identical delivery by
        construction."""
        if request.cache_key is None or self._cache is None:
            return
        followers, evicted = self._cache.publish(
            request.cache_key, result
        )
        if evicted:
            self._recorder.record_cache_evictions(evicted)
        if not followers:
            return
        follower_latencies: list[float] = []
        follower_degraded = 0
        for pending in followers:
            if flagged:
                follower_degraded += 1
                self._route_degraded(result)
            pending._complete(result)
            latency = pending.latency_seconds
            if latency is not None:
                follower_latencies.append(latency)
        self._recorder.record_followers_completed(
            follower_latencies, degraded=follower_degraded
        )

    def _fail(self, request: _Request, error: BaseException) -> int:
        """Fail ``request`` with ``error`` and close its cache flight,
        failing the followers that joined it.  Returns how many
        handles it failed (0 for a request that already settled); the
        caller books them in the ledger column the failure belongs
        to."""
        if request.pending.done():
            return 0
        request.pending._fail(error)
        if request.cache_key is None:
            return 1
        followers = self._cache.abort(request.cache_key)
        for pending in followers:
            pending._fail(error)
        return 1 + len(followers)

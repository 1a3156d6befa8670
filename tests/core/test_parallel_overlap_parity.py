"""The parallel hybrid's two branches run concurrently, bitwise unchanged.

``ParallelHybridCNN.infer_batch`` runs its CNN branch on a worker
thread while the calling thread qualifies (from ``_OVERLAP_FLOOR``
images on), in chunks of ``_CNN_CHUNK`` images of which the calling
thread takes any the worker has not reached once it has qualified, and
inference-mode ``Conv2D.forward`` runs im2col + GEMM in blocks of
``_INFERENCE_BLOCK`` images.  Neither may change a bit of any
result, an error in either branch must surface only once both have
finished, and the batch-invariant Dense mode must stay scoped to the
call that entered it -- also when several threads share one pipeline.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import PipelineConfig, ServingConfig, build_pipeline
from repro.core import hybrid
from repro.data import render_sign
from repro.models import small_cnn
from repro.nn.layers import conv as conv_module
from repro.nn.layers import dense as dense_module
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from tests.api.test_batch_parity import assert_bitwise_parity

FLOOR = hybrid._OVERLAP_FLOOR
CHUNK = hybrid._CNN_CHUNK
BLOCK = conv_module._INFERENCE_BLOCK
IMAGE_SIZE = 24


def _images(n: int, size: int = IMAGE_SIZE) -> np.ndarray:
    return np.stack([
        render_sign(i % 8, size=size, rotation=np.deg2rad(7 * i - 30))
        for i in range(n)
    ]).astype(np.float32)


def _pipeline():
    return build_pipeline(
        PipelineConfig(architecture="parallel"),
        small_cnn(IMAGE_SIZE, 8, conv1_filters=8),
    )


def _assert_mode_off(model) -> None:
    """The mode is off on this thread, and every Dense layer of the
    shared model runs the blocked GEMM like an untouched copy of it.
    For these layers that differs from the batch-invariant product in
    the last bits at n=32, so a mode left on in the model shows here."""
    assert dense_module._BATCH_INVARIANT.get() is False
    rng = np.random.default_rng(0)
    for layer in model:
        if isinstance(layer, Dense):
            untouched = Dense(layer.in_features, layer.out_features)
            untouched.weight.value = layer.weight.value.copy()
            untouched.bias.value = layer.bias.value.copy()
            x = rng.standard_normal((32, layer.in_features)).astype(
                np.float32
            )
            np.testing.assert_array_equal(
                layer.forward(x), untouched.forward(x)
            )


class _ThreadLog:
    """Wrappers recording which threads ran the qualifier and which
    took part in a shared CNN branch.  Which thread runs which CNN
    chunk depends on timing; that a worker took part does not."""

    def __init__(self, pipeline, monkeypatch) -> None:
        self.threads: dict[str, set[str]] = {
            "shared": set(), "qualifier": set()
        }
        qualifier = pipeline.hybrid.qualifier
        for attribute in ("check_batch", "check"):
            setattr(qualifier, attribute, self._logged(
                "qualifier", getattr(qualifier, attribute)
            ))
        monkeypatch.setattr(hybrid._SharedForward, "run", self._logged(
            "shared", hybrid._SharedForward.run
        ))

    def _logged(self, branch, function):
        def logged(*args, **kwargs):
            self.threads[branch].add(threading.current_thread().name)
            return function(*args, **kwargs)
        return logged

    def overlapped(self) -> bool:
        """A worker joined the CNN branch while the calling thread alone
        qualified."""
        return len(self.threads["qualifier"]) == 1 and bool(
            self.threads["shared"] - self.threads["qualifier"]
        )


class TestBlockedConvInference:
    """Blocked inference equals the whole-batch product (the training
    path's single im2col + GEMM) and per-image forward, bit for bit."""

    @staticmethod
    def _layers():
        model = small_cnn(32, 8, conv1_filters=8)
        strided = Conv2D(
            3, 5, 3, stride=2, padding=0, rng=np.random.default_rng(4),
            name="strided",
        )
        return [
            (model.layer("conv1"), (3, 32, 32)),
            (model.layer("conv2"), (8, 16, 16)),
            (strided, (3, 13, 11)),
        ]

    @pytest.mark.parametrize(
        "n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
    )
    def test_bitwise_equal_to_whole_batch_and_per_image(self, n):
        rng = np.random.default_rng(n)
        for layer, shape in self._layers():
            x = rng.standard_normal((n, *shape)).astype(np.float32)
            blocked = layer.forward(x)
            whole = layer.forward(x, training=True)
            per_image = np.concatenate(
                [layer.forward(x[i : i + 1]) for i in range(n)]
            )
            np.testing.assert_array_equal(blocked, whole, err_msg=layer.name)
            np.testing.assert_array_equal(
                blocked, per_image, err_msg=layer.name
            )
            assert blocked.dtype == whole.dtype
            assert blocked.shape == whole.shape


class TestOverlapParity:
    @pytest.mark.parametrize(
        "n", [FLOOR - 1, FLOOR, FLOOR + 3, 2 * CHUNK + 3]
    )
    def test_stacked_views(self, n, monkeypatch):
        pipeline = _pipeline()
        log = _ThreadLog(pipeline, monkeypatch)
        images = _images(n)
        views = _images(n, size=64)
        batch = pipeline.infer_batch(images, qualifier_views=views)
        assert log.overlapped() == (n >= FLOOR)
        assert_bitwise_parity(batch, [
            pipeline.infer(image, qualifier_view=view)
            for image, view in zip(images, views)
        ])

    @pytest.mark.parametrize("n", [FLOOR - 1, FLOOR + 1])
    def test_ragged_views(self, n, monkeypatch):
        pipeline = _pipeline()
        log = _ThreadLog(pipeline, monkeypatch)
        images = _images(n)
        views = [
            render_sign(i % 8, size=48 if i % 2 else 64) for i in range(n)
        ]
        batch = pipeline.infer_batch(images, qualifier_views=views)
        assert log.overlapped() == (n >= FLOOR)
        assert_bitwise_parity(batch, [
            pipeline.infer(image, qualifier_view=view)
            for image, view in zip(images, views)
        ])

    def test_no_views(self):
        pipeline = _pipeline()
        images = _images(FLOOR + 2)
        assert_bitwise_parity(
            pipeline.infer_batch(images),
            [pipeline.infer(image) for image in images],
        )

    def test_each_chunk_runs_once_when_both_threads_claim(self):
        """With an instant qualifier both threads claim chunks at once;
        a lost or doubled claim would drop or repeat a chunk."""
        pipeline = _pipeline()
        n = 6 * CHUNK + 5
        images = _images(n)
        serial = [pipeline.infer(image) for image in images]
        verdicts = [result.verdict for result in serial]
        pipeline.hybrid.qualifier.check_batch = lambda views: verdicts
        model = pipeline.hybrid.model
        forward = model.forward
        calls = []

        def counted(x, training=False):
            calls.append(threading.current_thread().name)
            return forward(x, training=training)

        model.forward = counted
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                calls.clear()
                batch = pipeline.infer_batch(images)
                assert len(calls) == -(-n // CHUNK)
                assert_bitwise_parity(batch, serial)
        finally:
            sys.setswitchinterval(interval)


    def test_calling_thread_takes_the_chunks_a_stalled_worker_left(self):
        """The worker stalls in its first chunk until the calling thread
        has run the rest of the branch; the results do not change."""
        pipeline = _pipeline()
        model = pipeline.hybrid.model
        forward = model.forward
        caller = threading.current_thread()
        caller_chunks = []
        caller_done = threading.Event()

        def forward_stalling_the_worker(x, training=False):
            if threading.current_thread() is caller:
                caller_chunks.append(len(x))
            else:
                # The worker waits until the calling thread has run out
                # of chunks, so it runs the first chunk at most.
                assert caller_done.wait(timeout=60)
            return forward(x, training=training)

        run = hybrid._SharedForward.run

        def run_then_release(shared):
            run(shared)
            if threading.current_thread() is caller:
                caller_done.set()

        n = 3 * CHUNK + 5
        images = _images(n)
        serial = [pipeline.infer(image) for image in images]
        model.forward = forward_stalling_the_worker
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hybrid._SharedForward, "run", run_then_release)
            batch = pipeline.infer_batch(images)
        assert sum(caller_chunks) >= n - CHUNK
        assert_bitwise_parity(batch, serial)


class TestBranchErrors:
    def test_qualifier_error_waits_for_the_cnn_branch(self):
        pipeline = _pipeline()
        model = pipeline.hybrid.model
        forward = model.forward
        finished = threading.Event()

        def slow_forward(x, training=False):
            time.sleep(0.2)
            out = forward(x, training=training)
            finished.set()
            return out

        def failing_check_batch(views):
            raise RuntimeError("qualifier failure")

        model.forward = slow_forward
        pipeline.hybrid.qualifier.check_batch = failing_check_batch
        with pytest.raises(RuntimeError, match="qualifier failure"):
            pipeline.infer_batch(_images(FLOOR))
        assert finished.is_set(), "the error outran the CNN branch"
        _assert_mode_off(model)

    def test_model_error_propagates_and_restores_the_mode(self):
        pipeline = _pipeline()
        model = pipeline.hybrid.model

        def failing_forward(x, training=False):
            assert dense_module._BATCH_INVARIANT.get() is True
            raise FloatingPointError("cnn failure")

        model.forward = failing_forward
        with pytest.raises(FloatingPointError, match="cnn failure"):
            pipeline.infer_batch(_images(FLOOR))
        _assert_mode_off(model)

    def test_server_books_a_model_error_as_failed(self, monkeypatch):
        pipeline = _pipeline()
        log = _ThreadLog(pipeline, monkeypatch)
        forward = pipeline.hybrid.model.forward

        def failing_forward(x, training=False):
            forward(x, training=training)
            raise FloatingPointError("cnn failure")

        pipeline.hybrid.model.forward = failing_forward
        config = ServingConfig(max_batch=FLOOR, max_wait_ms=2000)
        with pipeline.serve(config) as server:
            pendings = [server.submit(image) for image in _images(FLOOR)]
            for pending in pendings:
                with pytest.raises(FloatingPointError, match="cnn failure"):
                    pending.result(timeout=30)
        stats = server.stats()
        assert stats.failed == FLOOR
        assert stats.completed == 0
        assert log.overlapped()


class TestConcurrentCallsOnOnePipeline:
    """The batch-invariant mode is per thread: concurrent inferences on
    one shared pipeline neither leak it into the model nor run a batch
    through the blocked Dense GEMM."""

    def test_results_match_serial_and_flags_stay_off(self):
        pipeline = _pipeline()
        images = _images(FLOOR + 4)
        serial = [pipeline.infer(image) for image in images]

        def job(k: int):
            if k % 2:
                return [pipeline.infer(image) for image in images[:3]]
            return pipeline.infer_batch(images)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outputs = list(pool.map(job, range(16), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for k, output in enumerate(outputs):
            want = serial[:3] if k % 2 else serial
            assert_bitwise_parity(output, want)
        _assert_mode_off(pipeline.hybrid.model)

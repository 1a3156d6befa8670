"""Fully-connected layer."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.layers.base import Layer


#: Batch-invariant inference for every Dense layer, scoped to the
#: current thread (each thread starts with its own context, so a
#: worker thread never inherits the mode from the thread that handed
#: it work).
_BATCH_INVARIANT: ContextVar[bool] = ContextVar(
    "dense_batch_invariant", default=False
)


@contextmanager
def batch_invariant_inference() -> Iterator[None]:
    """Run Dense inference batch-size-invariant on this thread.

    Inside the context every :class:`Dense` forward with
    ``training=False`` uses the per-sample matmul, so a sample's output
    is bitwise independent of its batch; outside it (training,
    calibration, campaigns) Dense keeps the one blocked GEMM.  The mode
    belongs to the calling thread and ends with the context, so
    concurrent inferences on one shared model never see each other's
    mode.  At n=1 the invariant form equals the blocked GEMM bitwise,
    so entering the context never changes single-sample results.
    """
    token = _BATCH_INVARIANT.set(True)
    try:
        yield
    finally:
        _BATCH_INVARIANT.reset(token)


class Dense(Layer):
    """Affine layer ``y = x W + b`` over 2-D inputs ``(n, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self._register(
            glorot_uniform((in_features, out_features), rng), "weight"
        )
        self.bias = self._register(zeros_init((out_features,), rng), "bias")
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (n, {self.in_features}), got {x.shape}"
            )
        if training:
            self._cache = x
        if training or not _BATCH_INVARIANT.get():
            # One blocked GEMM: throughput, no invariance promise.
            return x @ self.weight.value + self.bias.value
        # Batch-invariant inference: stacked per-sample matmul instead
        # of one (n, d) @ (d, m) GEMM.  Every sample goes through an
        # identically-shaped (1, d) @ (d, m) product, so the result
        # for a given input row is bitwise independent of the batch
        # size.  BLAS dispatches different kernels for different GEMM
        # shapes, which is what makes the naive batched product differ
        # in the last bits from single-sample inference -- and the
        # hybrid pipeline's batched path promises exact agreement with
        # per-image inference.
        return (x[:, None, :] @ self.weight.value)[:, 0, :] + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before forward(training=True)"
            )
        x = self._cache
        self.weight.grad += x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        self._cache = None
        return grad @ self.weight.value.T

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(f"{self.name}: feature mismatch ({features})")
        return (self.out_features,)

    def operations_per_image(self, input_shape: tuple[int, ...]) -> int:
        """Scalar multiply-accumulates for one input vector."""
        del input_shape
        return self.in_features * self.out_features

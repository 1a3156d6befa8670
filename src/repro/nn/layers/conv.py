"""2-D convolution layer (NCHW, im2col based).

The forward pass exposes its arithmetic in two forms:

* :meth:`Conv2D.forward` -- vectorised im2col/GEMM path used for
  training and fast inference ("native execution" in the paper's
  Table 1 terminology);
* :meth:`Conv2D.input_patches` -- the patch view that
  :mod:`repro.reliable` iterates over to run the paper's Algorithm 3
  one multiply-accumulate at a time.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.layers.base import Layer


#: Images per im2col + GEMM block in inference-mode
#: :meth:`Conv2D.forward`; bounds the transient patch matrix.
_INFERENCE_BLOCK = 16


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: "
            f"size={size} kernel={kernel} stride={stride} padding={padding}"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor."""
    if padding == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(n, c, h, w)``.
    kernel:
        ``(kh, kw)`` receptive-field size.
    stride, padding:
        Convolution geometry.

    Returns
    -------
    Array of shape ``(n, out_h, out_w, c * kh * kw)`` whose last axis
    holds one flattened receptive field.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    xp = pad_nchw(x, padding)
    # Strided sliding-window view: (n, c, out_h, out_w, kh, kw).
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # -> (n, out_h, out_w, c, kh, kw) -> flatten the receptive field.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h, out_w, c * kh * kw
    )
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image.

    Used by the convolution backward pass to accumulate input
    gradients from patch gradients.

    Vectorized as ``kh * kw`` strided slice-adds (one whole-batch add
    per kernel offset) instead of an ``out_h * out_w`` Python loop.
    Iterating offsets in *descending* order keeps the result bitwise
    identical to the historical patch-by-patch loop: a padded pixel
    ``p`` receives one contribution per (patch, offset) pair with
    ``patch * stride + offset = p``, so ascending patch order -- the
    loop's accumulation order -- is exactly descending offset order,
    and within one offset the contributing patches write disjoint
    pixels.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw)
    for u in range(kh - 1, -1, -1):
        for v in range(kw - 1, -1, -1):
            xp[
                :, :,
                u : u + stride * out_h : stride,
                v : v + stride * out_w : stride,
            ] += patches[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.  Weights are shaped
        ``(out_channels, in_channels, kh, kw)`` -- the layout the
        paper's per-filter experiments (replace filter *i* with Sobel)
        index directly.
    kernel_size:
        Receptive-field side length (square kernels, like AlexNet's).
    stride, padding:
        Convolution geometry.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name=name)
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        wshape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self._register(glorot_uniform(wshape, rng), "weight")
        self.bias = self._register(zeros_init((out_channels,), rng), "bias")
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None

    # -- forward/backward ----------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (n, {self.in_channels}, h, w), "
                f"got {x.shape}"
            )
        k = (self.kernel_size, self.kernel_size)
        wmat = self.weight.value.reshape(self.out_channels, -1)
        if training:
            cols = im2col(x, k, self.stride, self.padding)
            self._cache = (cols, x.shape)
            out = cols @ wmat.T + self.bias.value
            return out.transpose(0, 3, 1, 2)
        # Inference runs im2col + GEMM over fixed blocks of images, so
        # the patch matrix never spans more than one block.  Bitwise
        # identical to the whole-batch product: the stacked matmul
        # issues one (out_w, K) @ (K, F) GEMM per image row either way.
        out_c, out_h, out_w = self.output_shape(x.shape[1:])
        out = np.empty(
            (len(x), out_h, out_w, out_c),
            np.result_type(x, wmat, self.bias.value),
        )
        for start in range(0, len(x), _INFERENCE_BLOCK):
            block = slice(start, start + _INFERENCE_BLOCK)
            # No name holds the patch matrix, so each block's is freed
            # before the next one is built.
            np.matmul(
                im2col(x[block], k, self.stride, self.padding),
                wmat.T,
                out=out[block],
            )
            out[block] += self.bias.value
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before forward(training=True)"
            )
        cols, input_shape = self._cache
        # grad: (n, out_c, out_h, out_w) -> (n, out_h, out_w, out_c)
        g = grad.transpose(0, 2, 3, 1)
        flat_g = g.reshape(-1, self.out_channels)
        flat_cols = cols.reshape(-1, cols.shape[-1])
        self.weight.grad += (flat_g.T @ flat_cols).reshape(
            self.weight.value.shape
        )
        self.bias.grad += flat_g.sum(axis=0)
        wmat = self.weight.value.reshape(self.out_channels, -1)
        grad_cols = (flat_g @ wmat).reshape(cols.shape)
        k = (self.kernel_size, self.kernel_size)
        self._cache = None
        return col2im(grad_cols, input_shape, k, self.stride, self.padding)

    # -- geometry & reliable-execution hooks -----------------------------
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: channel mismatch ({c})")
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def input_patches(self, x: np.ndarray) -> np.ndarray:
        """Patch view ``(n, out_h, out_w, c*kh*kw)`` for reliable kernels.

        The reliable convolution (paper Algorithm 3) walks this array
        one receptive field at a time, performing each multiply and
        accumulate through qualified operators.
        """
        k = (self.kernel_size, self.kernel_size)
        return im2col(
            np.asarray(x, dtype=np.float32), k, self.stride, self.padding
        )

    def set_filter(self, index: int, kernel: np.ndarray) -> None:
        """Overwrite filter ``index`` with ``kernel`` (paper Section III.B).

        ``kernel`` must be shaped ``(in_channels, kh, kw)``.
        """
        expected = self.weight.value.shape[1:]
        kernel = np.asarray(kernel, dtype=np.float32)
        if kernel.shape != expected:
            raise ValueError(
                f"filter shape {kernel.shape} != expected {expected}"
            )
        self.weight.value[index] = kernel

    def get_filter(self, index: int) -> np.ndarray:
        """Return a copy of filter ``index`` ``(in_channels, kh, kw)``."""
        return self.weight.value[index].copy()

    def operations_per_image(self, input_shape: tuple[int, ...]) -> int:
        """Number of scalar multiply-accumulates for one input image.

        Used by the hybrid cost model (DESIGN.md experiment E8).
        """
        out_c, out_h, out_w = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel_size * self.kernel_size
        return out_c * out_h * out_w * per_output

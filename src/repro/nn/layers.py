"""Core layers: 1D convolution, linear, ReLU, global average pooling.

The convolution is the performance-critical piece.  Two equivalent
implementations are provided and selected by kernel size:

* **direct** (im2col + BLAS matmul) for small kernels, where the O(N·K)
  inner product is cheap and FFT bookkeeping would dominate;
* **FFT** (zero-padded linear convolution via ``scipy.fft`` with batched
  per-frequency matmuls) for the large kernels the paper uses (size 64),
  where it is roughly two orders of magnitude faster than a naive
  contraction.

Both paths share exact semantics — stride 1, "same" zero padding
``(p_l, p_r) = ((K-1)//2, K-1-(K-1)//2)`` — and the test suite checks them
against each other and against numerical gradients.

The FFT path never pads in the time domain.  With ``L =
next_fast_len(N+K-1)`` the length-``L`` transforms hold the full linear
convolution of the ``N`` input samples with the ``K`` taps, so:

* ``y`` is the convolution with the reversed kernel, cropped at ``p_r``;
* ``dx`` is the convolution of ``dy`` with the kernel, cropped at ``p_l``;
* ``dW[o,c,k] = sum_{b,n} x[b,c,n+k-p_l] * dy[b,o,n]`` is the circular
  cross-correlation of ``x`` with ``dy``, read at lags ``-p_l..p_r`` (the
  negative lags wrap to the end of the length-``L`` result).

Spectra stay in the ``float32``/``complex64`` dtypes ``scipy.fft`` returns.
The input spectrum is copied once into frequency-major ``(F, B, C)``
layout, so every frequency is one contiguous BLAS matmul against the
``(F, C, O)`` kernel spectrum; training keeps that copy for the backward
pass.  The products are written back time-major ``(B, O, F)``, one
cache-sized block of frequencies at a time, so the inverse transform runs
along the last axis; the bias is added in the crop.  Eval-mode forwards
keep no backward state.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as spfft

from repro.nn.module import Module, Parameter

__all__ = ["Conv1d", "Linear", "ReLU", "GlobalAvgPool1d", "Flatten"]

#: Kernel sizes strictly above this use the FFT path.
_FFT_KERNEL_THRESHOLD = 12

#: Frequencies per block in :func:`_spectral_matmul`.
_FREQ_BLOCK = 32


def _he_std(fan_in: int) -> float:
    return float(np.sqrt(2.0 / fan_in))


class Conv1d(Module):
    """1D convolution with stride 1 and "same" zero padding.

    Matches the paper's convolutional layers: arbitrary kernel size, stride
    1, zero padding chosen to keep the temporal length ``N`` unchanged
    (Section III-B).  Input/output layout is ``(batch, channels, N)``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        std = _he_std(in_channels * kernel_size)
        self.weight = Parameter(rng.normal(0.0, std, (out_channels, in_channels, kernel_size)))
        self.bias = Parameter(np.zeros(out_channels))
        self.pad_left = (kernel_size - 1) // 2
        self.pad_right = kernel_size - 1 - self.pad_left
        self._cache: tuple | None = None

    # -- public interface -------------------------------------------------- #

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"Conv1d expects (B, {self.in_channels}, N), got {x.shape}")
        x = np.asarray(x, dtype=np.float32)
        if self.kernel_size > _FFT_KERNEL_THRESHOLD:
            y, cache = self._forward_fft(x)
        else:
            y, cache = self._forward_direct(x)
        self._cache = cache if self.training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        cache, self._cache = self._cache, None
        grad = np.asarray(grad, dtype=np.float32)
        self.bias.grad += grad.sum(axis=(0, 2))
        if cache[0] == "fft":
            return self._backward_fft(grad, cache)
        return self._backward_direct(grad, cache)

    # -- direct (im2col) path ---------------------------------------------- #

    def _columns(self, x: np.ndarray, left: int, right: int) -> np.ndarray:
        """``(B, C, N)`` -> ``(B, C*K, N)``; row ``c*K + k`` is channel ``c``
        of ``x`` zero-padded by ``(left, right)`` and shifted by ``k``."""
        b, c, n = x.shape
        k = self.kernel_size
        padded = np.pad(x, ((0, 0), (0, 0), (left, right)))
        cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
        return np.ascontiguousarray(cols.transpose(0, 1, 3, 2)).reshape(b, c * k, n)

    def _forward_direct(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        cols = self._columns(x, self.pad_left, self.pad_right)       # (B, C*K, N)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        y = np.matmul(w2d, cols)
        y += self.bias.data[:, None]
        return y, ("direct", cols)

    def _backward_direct(self, grad: np.ndarray, cache: tuple) -> np.ndarray:
        _, cols = cache
        self.weight.grad += np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.weight.data.shape)
        # dx: the same convolution of the output gradient, with the kernel
        # mirrored in time, its channel axes swapped and the padding mirrored.
        w_flip = self.weight.data[:, :, ::-1].transpose(1, 0, 2).reshape(self.in_channels, -1)
        return np.matmul(w_flip, self._columns(grad, self.pad_right, self.pad_left))

    # -- FFT path ------------------------------------------------------------ #

    def _forward_fft(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        n = x.shape[2]
        length = spfft.next_fast_len(n + self.kernel_size - 1, real=True)
        xf = np.ascontiguousarray(spfft.rfft(x, length, axis=2).transpose(2, 0, 1))  # (F, B, C)
        w_rev = spfft.rfft(self.weight.data.transpose(2, 1, 0)[::-1], length, axis=0)  # (F, C, O)
        y_full = spfft.irfft(_spectral_matmul(xf, w_rev), length, axis=2)
        y = y_full[:, :, self.pad_right: self.pad_right + n] + self.bias.data[:, None]
        return y, ("fft", xf, length)

    def _backward_fft(self, grad: np.ndarray, cache: tuple) -> np.ndarray:
        _, xf, length = cache
        n = grad.shape[2]
        gf = np.ascontiguousarray(spfft.rfft(grad, length, axis=2).transpose(2, 0, 1))  # (F, B, O)
        # dx: convolution of the output gradient with the kernel.
        w = spfft.rfft(self.weight.data.transpose(2, 0, 1), length, axis=0)            # (F, O, C)
        dx_full = spfft.irfft(_spectral_matmul(gf, w), length, axis=2)
        # dW: cross-correlation of the input with the output gradient.
        np.conjugate(gf, out=gf)
        dwf = np.matmul(gf.transpose(0, 2, 1), xf)                                       # (F, O, C)
        dw_full = spfft.irfft(np.ascontiguousarray(dwf.transpose(1, 2, 0)), length, axis=2)
        self.weight.grad[:, :, :self.pad_left] += dw_full[:, :, length - self.pad_left:]
        self.weight.grad[:, :, self.pad_left:] += dw_full[:, :, :self.pad_right + 1]
        return dx_full[:, :, self.pad_left: self.pad_left + n]


def _spectral_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[f] @ b[f]`` for ``(F, B, C)`` and ``(F, C, O)`` spectra, as ``(B, O, F)``.

    Each block of frequencies is multiplied and written back while its
    ``(B, O)`` products are still in cache; one whole-array transpose of
    the ``(F, B, O)`` product runs two to three times slower.
    """
    f = a.shape[0]
    out = np.empty((a.shape[1], b.shape[2], f), dtype=np.result_type(a, b))
    for lo in range(0, f, _FREQ_BLOCK):
        out[:, :, lo: lo + _FREQ_BLOCK] = np.matmul(
            a[lo: lo + _FREQ_BLOCK], b[lo: lo + _FREQ_BLOCK]).transpose(1, 2, 0)
    return out


class Linear(Module):
    """Fully connected layer ``y = x W^T + b`` on ``(batch, features)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.normal(0.0, _he_std(in_features), (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"Linear expects (B, {self.in_features}), got {x.shape}")
        x = np.asarray(x, dtype=np.float32)
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float32)
        self.weight.grad += grad.T @ self._x
        self.bias.grad += grad.sum(axis=0)
        dx = grad @ self.weight.data
        self._x = None
        return dx


class ReLU(Module):
    """Elementwise rectifier; masks the gradient where the input was <= 0."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.maximum(x, np.float32(0))
        self._mask = y > 0 if self.training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward (training mode)")
        mask, self._mask = self._mask, None
        return grad * mask


class GlobalAvgPool1d(Module):
    """Average over the temporal axis: ``(B, C, N) -> (B, C)``.

    This is the layer that makes the paper's network length-agnostic —
    training with ``N_train`` and inferring with a different ``N_inf``
    (Section IV-B) works because the pooled feature size is ``C`` only.
    """

    def __init__(self) -> None:
        super().__init__()
        self._n: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"GlobalAvgPool1d expects (B, C, N), got {x.shape}")
        self._n = x.shape[2]
        return x.mean(axis=2).astype(np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._n == 0:
            raise RuntimeError("backward called before forward")
        dx = np.repeat(grad[:, :, None] / self._n, self._n, axis=2).astype(np.float32)
        self._n = 0
        return dx


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        dx = grad.reshape(self._shape)
        self._shape = None
        return dx

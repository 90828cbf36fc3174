"""Batch normalisation for (batch, channels, N) feature maps [19]."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm1d"]


class BatchNorm1d(Module):
    """Per-channel batch normalisation with running statistics.

    In training mode the statistics come from the batch (over the batch and
    temporal axes) and exponential running estimates are updated; in eval
    mode the running estimates are used, so single-window inference is
    deterministic.

    Eval mode is one per-channel scale and shift.  Training builds the
    normalised input ``x_hat`` once and keeps it; the backward pass needs
    only the two per-channel reductions ``sum(dy)`` and ``sum(dy * x_hat)``,
    which are also the beta and gamma gradients.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.channels = channels
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ValueError(f"BatchNorm1d expects (B, {self.channels}, N), got {x.shape}")
        x = np.asarray(x, dtype=np.float32)
        if not self.training:
            self._cache = None  # a stale training cache must not leak here
            scale = self.gamma.data / np.sqrt(self.running_var + np.float32(self.eps))
            shift = self.beta.data - self.running_mean * scale
            y = x * scale[:, None]
            y += shift[:, None]
            return y
        mean = x.mean(axis=(0, 2))
        x_hat = x - mean[:, None]
        var = np.einsum("bcn,bcn->c", x_hat, x_hat) / np.float32(x.shape[0] * x.shape[2])
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(np.float32)
        self.running_var = ((1 - m) * self.running_var + m * var).astype(np.float32)
        inv_std = 1.0 / np.sqrt(var + np.float32(self.eps))
        x_hat *= inv_std[:, None]
        self._cache = (x_hat, inv_std)
        y = x_hat * self.gamma.data[:, None]
        y += self.beta.data[:, None]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        (x_hat, inv_std), self._cache = self._cache, None
        grad = np.asarray(grad, dtype=np.float32)
        m = np.float32(grad.shape[0] * grad.shape[2])
        sum_g = grad.sum(axis=(0, 2))
        sum_g_xhat = np.einsum("bcn,bcn->c", grad, x_hat)
        self.beta.grad += sum_g
        self.gamma.grad += sum_g_xhat
        # dx = gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy * x_hat))
        scale = self.gamma.data * inv_std
        dx = x_hat * (-scale * sum_g_xhat / m)[:, None]
        dx += grad * scale[:, None]
        dx -= (scale * sum_g / m)[:, None]
        return dx

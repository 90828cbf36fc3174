"""The paper's 1D CNN (Figure 2): a six-stage adapted ResNet.

Architecture, top to bottom:

1. convolutional block: Conv1d(1 -> 16) + BatchNorm + ReLU;
2. residual block with 16 filters;
3. residual block raising the filters to 32;
4. global average pooling (N x 32 -> 32), the layer that lets inference run
   with a window size different from training;
5. fully connected block: Linear(32 -> 32) + ReLU + Linear(32 -> 2);
6. softmax — fused into the loss during training, applied explicitly only
   when probabilities are requested.

Section III-C's observation is preserved: the *linear* fully-connected
output (before softmax) exposes the recurrent localisation pattern better
than the probabilities, so :meth:`LocatorCNN.scores` defaults to a linear
read-out.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BatchNorm1d,
    Conv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    ResidualBlock1d,
    Sequential,
)
from repro.nn.loss import softmax

__all__ = ["build_locator_cnn", "LocatorCNN", "INFERENCE_CHUNK"]

#: Windows per eval-mode forward pass.  The per-window cost is flat from
#: about 32 to 256 windows and rises beyond, where a layer's spectra
#: outgrow the cache; smaller chunks pay more per-call overhead.
INFERENCE_CHUNK = 128


def build_locator_cnn(
    kernel_size: int = 63,
    filters: tuple[int, int] = (16, 32),
    fc_width: int = 32,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Assemble the network of Figure 2 as a :class:`Sequential`.

    ``filters`` are the channel counts of the two residual blocks (the
    paper: 16 then 32); the first convolutional block uses ``filters[0]``.
    """
    rng = rng if rng is not None else np.random.default_rng()
    f1, f2 = filters
    return Sequential(
        Conv1d(1, f1, kernel_size, rng=rng),
        BatchNorm1d(f1),
        ReLU(),
        ResidualBlock1d(f1, f1, kernel_size, rng=rng),
        ResidualBlock1d(f1, f2, kernel_size, rng=rng),
        GlobalAvgPool1d(),
        Linear(f2, fc_width, rng=rng),
        ReLU(),
        Linear(fc_width, 2, rng=rng),
    )


class LocatorCNN:
    """Inference wrapper exposing the score read-outs of Section III-C."""

    def __init__(self, network: Sequential) -> None:
        self.network = network

    def logits(self, windows: np.ndarray) -> np.ndarray:
        """Linear FC outputs for ``(n, 1, N)`` windows, in eval mode.

        Windows go through the network :data:`INFERENCE_CHUNK` at a time;
        eval mode makes every window's output independent of its chunk.
        """
        windows = np.asarray(windows, dtype=np.float32)
        if windows.ndim != 3 or windows.shape[1] != 1:
            raise ValueError(f"expected (n, 1, N) windows, got {windows.shape}")
        self.network.eval()
        chunks = []
        for begin in range(0, windows.shape[0], INFERENCE_CHUNK):
            chunks.append(self.network.forward(windows[begin: begin + INFERENCE_CHUNK]))
        return (
            np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2), dtype=np.float32)
        )

    def scores(self, windows: np.ndarray, mode: str = "margin") -> np.ndarray:
        """Per-window localisation score.

        ``"class1"`` is the paper's choice (linear class-1 output);
        ``"margin"`` (class1 - class0) shifts the natural decision boundary
        to 0, making the segmentation threshold scale-free; ``"prob"`` is
        the softmax class-1 probability, kept for the ablation that shows
        why the paper prefers the linear output.
        """
        logits = self.logits(windows)
        return scores_from_logits(logits, mode)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Hard class decisions (argmax over the two logits)."""
        return np.argmax(self.logits(windows), axis=1)


def scores_from_logits(logits: np.ndarray, mode: str) -> np.ndarray:
    """Convert ``(n, 2)`` logits into a 1D localisation score signal."""
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ValueError(f"expected (n, 2) logits, got {logits.shape}")
    if mode == "class1":
        return logits[:, 1].astype(np.float64)
    if mode == "margin":
        return (logits[:, 1] - logits[:, 0]).astype(np.float64)
    if mode == "prob":
        return softmax(logits)[:, 1].astype(np.float64)
    raise ValueError(f"unknown score mode {mode!r}")

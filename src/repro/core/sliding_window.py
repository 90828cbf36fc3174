"""Sliding Window Classification (Section III-C).

The Slicing block cuts the inference trace into ``N_inf``-sample windows
every ``stride`` samples; the trained CNN scores each window; the resulting
signal ``swc`` (one score per window position) feeds the segmentation stage.

Two scoring engines with identical semantics are provided:

* ``windowed`` — the literal method: materialise every window, run the CNN
  on each.  Faithful but does O(N/s) redundant convolution work.
* ``dense`` (default) — exploits that every layer before global average
  pooling is translation-equivariant: run the convolutional trunk *once*
  over the whole trace (in bounded-memory chunks), then evaluate each
  window's global average with a prefix sum and push only the pooled
  32-vector through the fully-connected head.  This is about twice as
  fast (1.5 vs 3.0 s on a 62,000-sample trace, 2 vCPUs) and differs from
  ``windowed`` only at window borders (full-trace context instead of
  per-window zero padding); the test suite bounds the difference and the
  segmentation results agree.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import INFERENCE_CHUNK, LocatorCNN, scores_from_logits
from repro.nn import GlobalAvgPool1d, Sequential
from repro.nn.layers import Conv1d

__all__ = ["SlidingWindowClassifier"]


def _collect_kernel_extent(module) -> int:
    """Total (kernel-1) mass of all Conv1d layers in a subtree.

    A safe upper bound on the half receptive field of the trunk, used as
    the chunk-overlap margin of the dense engine.
    """
    extent = 0
    if isinstance(module, Conv1d):
        extent += module.kernel_size - 1
    for _, child in module.children():
        extent += _collect_kernel_extent(child)
    return extent


class SlidingWindowClassifier:
    """Scores a trace with the trained CNN at a fixed window and stride."""

    def __init__(
        self,
        cnn: LocatorCNN,
        window: int,
        stride: int,
        score_mode: str = "margin",
        method: str = "dense",
        chunk_size: int = 65_536,
    ) -> None:
        if window < 8:
            raise ValueError("window must be >= 8")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if method not in ("dense", "windowed"):
            raise ValueError(f"unknown method {method!r}")
        self.cnn = cnn
        self.window = int(window)
        self.stride = int(stride)
        self.score_mode = score_mode
        self.method = method
        self.chunk_size = int(chunk_size)
        network = cnn.network
        gap_index = next(
            (i for i, step in enumerate(network.steps) if isinstance(step, GlobalAvgPool1d)),
            None,
        )
        if gap_index is None:
            raise ValueError("locator network must contain a GlobalAvgPool1d stage")
        self._trunk = Sequential(*network.steps[:gap_index])
        self._head = Sequential(*network.steps[gap_index + 1:])
        self._margin = _collect_kernel_extent(self._trunk)

    # ------------------------------------------------------------------ #

    def num_windows(self, trace_length: int) -> int:
        """Number of window positions the slicer produces for a trace."""
        if trace_length < self.window:
            return 0
        return (trace_length - self.window) // self.stride + 1

    def window_offsets(self, trace_length: int) -> np.ndarray:
        """Sample offset of each window position."""
        return np.arange(self.num_windows(trace_length), dtype=np.int64) * self.stride

    def score_trace(self, trace: np.ndarray) -> np.ndarray:
        """The ``swc`` signal: one score per window position.

        The caller is responsible for normalisation (the locator applies
        its profiling-calibrated affine transform before scoring).
        """
        trace = np.asarray(trace, dtype=np.float32)
        if trace.ndim != 1:
            raise ValueError(f"expected a 1D trace, got shape {trace.shape}")
        if self.num_windows(trace.size) == 0:
            return np.zeros(0, dtype=np.float64)
        if self.method == "windowed":
            return self._score_windowed(trace)
        return self._score_dense(trace)

    def score_batch(self, traces) -> "list[np.ndarray]":
        """Score several traces, reusing the dense trunk across the batch.

        The batch analogue of :meth:`score_trace`: traces (which may have
        different lengths) are zero-padded to a common length and pushed
        through the convolutional trunk *together*, chunk by chunk, so the
        expensive convolutions amortise across the batch; each trace's
        window means then go through the FC head in one call per chunk.
        Zero padding is exact for the dense engine — the trunk's
        convolutions use "same" zero padding, so features inside each
        trace's valid region match the single-trace computation (up to FFT
        rounding).  With ``method="windowed"`` the traces are scored
        independently (that engine is per-window already).

        Returns one ``swc`` array per input trace.
        """
        traces = [np.asarray(t, dtype=np.float32) for t in traces]
        for trace in traces:
            if trace.ndim != 1:
                raise ValueError(f"expected 1D traces, got shape {trace.shape}")
        if not traces:
            return []
        if self.method == "windowed":
            return [self.score_trace(t) for t in traces]
        return self._score_dense_batch(traces)

    # ------------------------------------------------------------------ #

    def _score_dense_batch(self, traces: "list[np.ndarray]") -> "list[np.ndarray]":
        self.cnn.network.eval()
        counts = [self.num_windows(t.size) for t in traces]
        results = [np.empty(nw, dtype=np.float64) for nw in counts]
        max_windows = max(counts)
        if max_windows == 0:
            return results
        length = max(t.size for t in traces)
        padded = np.zeros((len(traces), length), dtype=np.float32)
        for i, trace in enumerate(traces):
            padded[i, : trace.size] = trace
        margin = self._margin
        offsets = np.arange(max_windows, dtype=np.int64) * self.stride
        chunk_windows = max(1, self.chunk_size // self.stride)
        for begin in range(0, max_windows, chunk_windows):
            batch_offsets = offsets[begin: begin + chunk_windows]
            span_start = int(batch_offsets[0])
            span_end = int(batch_offsets[-1]) + self.window
            ext_start = max(0, span_start - margin)
            ext_end = min(length, span_end + margin)
            rows = [i for i, nw in enumerate(counts) if nw > begin]
            segment = padded[rows, ext_start:ext_end]
            features = self._trunk.forward(segment[:, None, :])  # (R, C, len)
            csum = np.concatenate(
                [np.zeros((features.shape[0], features.shape[1], 1), dtype=np.float64),
                 np.cumsum(features, axis=2, dtype=np.float64)],
                axis=2,
            )
            pooled_parts = []
            spans = []
            for r, i in enumerate(rows):
                here = min(counts[i], begin + batch_offsets.size) - begin
                local = batch_offsets[:here] - ext_start
                pooled = (csum[r][:, local + self.window]
                          - csum[r][:, local]).T / self.window
                pooled_parts.append(pooled.astype(np.float32))
                spans.append((i, here))
            logits = self._head.forward(np.concatenate(pooled_parts, axis=0))
            scores = scores_from_logits(logits, self.score_mode)
            cursor = 0
            for i, here in spans:
                results[i][begin: begin + here] = scores[cursor: cursor + here]
                cursor += here
        return results

    # ------------------------------------------------------------------ #

    def _score_windowed(self, trace: np.ndarray) -> np.ndarray:
        offsets = self.window_offsets(trace.size)
        scores = np.empty(offsets.size, dtype=np.float64)
        windows_view = np.lib.stride_tricks.sliding_window_view(trace, self.window)
        for begin in range(0, offsets.size, INFERENCE_CHUNK):
            batch = windows_view[offsets[begin: begin + INFERENCE_CHUNK]][:, None, :]
            scores[begin: begin + INFERENCE_CHUNK] = scores_from_logits(
                self.cnn.logits(batch), self.score_mode
            )
        return scores

    def _score_dense(self, trace: np.ndarray) -> np.ndarray:
        self.cnn.network.eval()
        offsets = self.window_offsets(trace.size)
        length = trace.size
        margin = self._margin
        scores = np.empty(offsets.size, dtype=np.float64)
        out_pos = 0
        # Process offsets chunk by chunk; each chunk needs trunk features
        # over [chunk_start, last_window_end) plus the context margin.
        chunk_windows = max(1, self.chunk_size // self.stride)
        for begin in range(0, offsets.size, chunk_windows):
            batch_offsets = offsets[begin: begin + chunk_windows]
            span_start = int(batch_offsets[0])
            span_end = int(batch_offsets[-1]) + self.window
            ext_start = max(0, span_start - margin)
            ext_end = min(length, span_end + margin)
            segment = trace[ext_start:ext_end]
            features = self._trunk.forward(segment[None, None, :])[0]  # (C, len)
            # Prefix sums for O(1) window means.
            csum = np.concatenate(
                [np.zeros((features.shape[0], 1), dtype=np.float64),
                 np.cumsum(features, axis=1, dtype=np.float64)],
                axis=1,
            )
            local = batch_offsets - ext_start
            pooled = (csum[:, local + self.window] - csum[:, local]).T / self.window
            logits = self._head.forward(pooled.astype(np.float32))
            scores[out_pos: out_pos + batch_offsets.size] = scores_from_logits(
                logits, self.score_mode
            )
            out_pos += batch_offsets.size
        return scores

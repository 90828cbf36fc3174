"""1D filtering primitives used by the segmentation stage and the attacks.

The paper's segmentation stage (Section III-D) applies a median filter of
size ``k`` to the thresholded sliding-window-classification signal; the CPA
attack (Section IV-C) uses a "minor aggregation over time" to absorb residual
misalignment, which :func:`boxcar_aggregate` implements.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "median_filter",
    "moving_average",
    "boxcar_aggregate",
    "prepare_segments",
]


def median_filter(signal: np.ndarray, size: int) -> np.ndarray:
    """Replace each sample with the median of its ``size`` neighbours.

    The window is centred on each sample; the signal is edge-padded so the
    output has the same length as the input, matching the behaviour the
    paper's MF block needs at trace boundaries.

    Parameters
    ----------
    signal:
        One-dimensional input signal.
    size:
        Median window size ``k``.  Must be a positive odd integer so the
        window has a well-defined centre.

    Returns
    -------
    numpy.ndarray
        Filtered signal with the same shape and dtype ``float64``.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"median_filter expects a 1D signal, got shape {signal.shape}")
    if size < 1 or size % 2 == 0:
        raise ValueError(f"median filter size must be a positive odd integer, got {size}")
    if size == 1 or signal.size == 0:
        return signal.copy()
    half = size // 2
    padded = np.pad(signal, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    return np.median(windows, axis=-1)


def moving_average(signal: np.ndarray, size: int) -> np.ndarray:
    """Centred moving average with edge padding (same-length output)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"moving_average expects a 1D signal, got shape {signal.shape}")
    if size < 1:
        raise ValueError(f"moving average size must be positive, got {size}")
    if size == 1 or signal.size == 0:
        return signal.copy()
    pad_left = (size - 1) // 2
    pad_right = size - 1 - pad_left
    padded = np.pad(signal, (pad_left, pad_right), mode="edge")
    kernel = np.full(size, 1.0 / size)
    return np.convolve(padded, kernel, mode="valid")


def prepare_segments(traces: np.ndarray, aggregate: int = 1) -> np.ndarray:
    """Shared attack pre-processing: float64 segments, optional aggregation.

    The single call site for the Section IV-C boxcar aggregation that
    every distinguisher applies before its statistics — one place to
    validate the ``(n, m)`` segment shape and the aggregation width
    instead of each attack repeating it.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise ValueError(f"expected (n, m) trace segments, got {traces.shape}")
    if aggregate < 1:
        raise ValueError(f"aggregation width must be positive, got {aggregate}")
    if aggregate > 1:
        traces = boxcar_aggregate(traces, aggregate)
    return traces


def boxcar_aggregate(traces: np.ndarray, width: int) -> np.ndarray:
    """Sum consecutive samples in non-overlapping windows of ``width``.

    This is the "minor aggregation over time" of Section IV-C: summing
    ``width`` consecutive samples accumulates leakage that random delay has
    spread over neighbouring sample positions, at the cost of temporal
    resolution.  Works on a single trace (1D) or a batch of traces (2D,
    ``(n_traces, n_samples)``); trailing samples that do not fill a complete
    window are dropped.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if width < 1:
        raise ValueError(f"aggregation width must be positive, got {width}")
    if traces.ndim == 1:
        return boxcar_aggregate(traces[None, :], width)[0]
    if traces.ndim != 2:
        raise ValueError(f"boxcar_aggregate expects 1D or 2D input, got shape {traces.shape}")
    n_windows = traces.shape[1] // width
    if n_windows == 0:
        return np.zeros((traces.shape[0], 0))
    trimmed = traces[:, : n_windows * width]
    return trimmed.reshape(traces.shape[0], n_windows, width).sum(axis=2)

"""The numpy hot-loop kernels — the historical inline code, moved verbatim.

Every function here must stay **bit-identical** to the inline code it
replaced: the equivalence suites and the committed benchmark baselines pin
the exact trace streams and statistic arrays these kernels produce.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accumulate_class_stats", "gather_delayed_windows", "hw_power",
           "quantize", "synthesize_rows"]


def accumulate_class_stats(
    counts: np.ndarray,
    class_sums: np.ndarray,
    t: np.ndarray,
    pts: np.ndarray,
) -> None:
    """Scatter a centred chunk into the per-(byte, class) statistics."""
    for b in range(counts.shape[0]):
        classes = pts[:, b]
        # Stable argsort on uint8 keys is a radix sort; grouping the
        # chunk by class turns the scatter-add into one segmented
        # reduction (reduceat) — measurably faster than np.add.at.
        order = np.argsort(classes, kind="stable")
        chunk_counts = np.bincount(classes, minlength=256)
        counts[b] += chunk_counts
        present = np.flatnonzero(chunk_counts)
        offsets = np.concatenate(([0], np.cumsum(chunk_counts[present])[:-1]))
        class_sums[b][present] += np.add.reduceat(t[order], offsets, axis=0)


def hw_power(
    table: np.ndarray, alpha: float, values: np.ndarray, kinds: np.ndarray
) -> np.ndarray:
    """``pedestal[kind] + alpha * HW(value)`` over a uint64 value array."""
    return table[kinds] + alpha * np.bitwise_count(values).astype(np.float64)


def quantize(analog: np.ndarray, lsb: float, max_code: int) -> np.ndarray:
    """ADC clip + round to the code grid (``np.rint`` + in-place ops)."""
    codes = analog / lsb
    np.rint(codes, out=codes)
    np.clip(codes, 0, max_code, out=codes)
    codes *= lsb
    return codes.astype(np.float32)


def gather_delayed_windows(
    positions: np.ndarray,
    values32: np.ndarray,
    kinds32: np.ndarray,
    dummy_values: np.ndarray,
    dummy_kinds: np.ndarray,
    dummy_bounds: np.ndarray,
    los: np.ndarray,
    widths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched delayed-window gather via one concatenated ``searchsorted``.

    A delayed position ``p`` holds a real op iff the row's (sorted)
    ``new_positions`` contain ``p``; otherwise it holds dummy number
    ``p - (#real ops before p)`` — the same scatter rule as the per-trace
    reference gather, which this reproduces element for element.  The
    batch runs in three vectorized stages: a *batched bisection* finds
    each row's first in-window op (``log2(n32)`` masked halving steps over
    the stacked position matrix, replacing ``B`` per-trace searches), the
    in-window ops — at most one per window slot, since positions strictly
    increase — *scatter* into their slots, and an exclusive prefix sum of
    the real mask recovers every remaining slot's dummy number.  Query
    positions past a short row's window are clipped to its last valid
    position, replicating the tail element exactly as the per-trace
    path's placeholder padding does.
    """
    batch, n32 = positions.shape
    width = int(widths.max())
    rows = np.arange(batch, dtype=np.int64)[:, None]
    # Batched bisection: r0[b] = #positions[b] < los[b] (searchsorted-left).
    lo_idx = np.zeros(batch, dtype=np.int64)
    hi_idx = np.full(batch, n32, dtype=np.int64)
    flat_rows = rows.ravel()
    while True:
        active = lo_idx < hi_idx
        if not active.any():
            break
        mid = np.minimum((lo_idx + hi_idx) >> 1, n32 - 1)
        below = positions[flat_rows, mid] < los
        lo_idx = np.where(active & below, mid + 1, lo_idx)
        hi_idx = np.where(active & ~below, mid, hi_idx)
    r0 = lo_idx
    # Real ops land at most one per slot: op r0 + m sits at position
    # >= los + m, so the window's ops are exactly src indices < n32 whose
    # position falls in [los, los + widths).
    m = np.arange(width, dtype=np.int64)[None, :]
    src = r0[:, None] + m
    slab = positions[rows, np.minimum(src, n32 - 1)]
    slot = slab - los[:, None]
    valid = (src < n32) & (slot >= 0) & (slot < widths[:, None])
    valid_rows = np.broadcast_to(rows, (batch, width))[valid]
    valid_slots = slot[valid]
    valid_src = src[valid]
    if dummy_values.size:
        # r(p) = #real ops before p = r0 + exclusive prefix of the real
        # mask; execute() fills dummy slots positionally, so slot p holds
        # dummy p - r(p).  Fill every slot from the dummy stream (real
        # slots get a clipped placeholder index), then scatter the real
        # ops over theirs.
        is_real = np.zeros((batch, width), dtype=bool)
        is_real[valid_rows, valid_slots] = True
        r = r0[:, None] + np.cumsum(is_real, axis=1) - is_real
        pos = los[:, None] + m
        dummy_idx = np.clip(
            dummy_bounds[:batch, None] + pos - r, 0, dummy_values.size - 1
        )
        out_values = dummy_values[dummy_idx]
        out_kinds = dummy_kinds[dummy_idx]
    else:
        # No dummies anywhere: every in-window slot is real.  Placeholder
        # fill for the out-of-window tail, overwritten by the scatter and
        # the tail replication below.
        out_values = np.broadcast_to(values32[:, :1], (batch, width)).copy()
        out_kinds = np.full((batch, width), kinds32[0], dtype=np.uint8)
    out_values[valid_rows, valid_slots] = values32[valid_rows, valid_src]
    out_kinds[valid_rows, valid_slots] = kinds32[valid_src]
    if (widths != width).any():
        # Tail-replicate short rows' last valid element (placeholder only;
        # the synthesis kernel overwrites the tail at the sample level).
        tail = np.minimum(m, widths[:, None] - 1)
        out_values = np.take_along_axis(out_values, tail, axis=1)
        out_kinds = np.take_along_axis(out_kinds, tail, axis=1)
    return out_values, out_kinds


def synthesize_rows(
    power: np.ndarray,
    widths: np.ndarray,
    pulse: np.ndarray,
    kernel: np.ndarray,
    offsets: np.ndarray,
    n_out: int,
    lengths: np.ndarray,
    noise: np.ndarray | None,
    lsb: float,
    max_code: int,
) -> np.ndarray:
    """Fused pulse→edge-replicate→FIR→cut→noise→quantise window capture.

    The historical unfused chain with its intermediate materialisations
    trimmed; every floating-point operation happens in the same order on
    the same values (the FIR accumulates reversed taps ascending from
    zeros, exactly as ``np.convolve`` evaluates each output), so the
    result is bit-identical.  ``noise`` arrives pre-scaled (the caller
    owns the generator and its draw order) and may cover only the leading
    columns; columns at or past ``lengths[b]`` are zeroed.
    """
    batch, w_ops = power.shape
    spp = pulse.size
    total = w_ops * spp
    analog = np.empty((batch, total), dtype=np.float64)
    for s in range(spp):
        np.multiply(power, pulse[s], out=analog[:, s::spp])
    if (widths != w_ops).any():
        # Edge-replicate each short row's last valid *sample* so the
        # equal-width FIR sees the right-boundary padding its own-length
        # filter would.
        clipped = np.minimum(
            np.arange(total, dtype=np.int64)[None, :],
            widths[:, None] * spp - 1,
        )
        analog = np.take_along_axis(analog, clipped, axis=1)
    k_size = kernel.size
    if k_size > 1 and total:
        if total < k_size - 1:
            filtered = np.empty_like(analog)
            pad = k_size // 2
            for b in range(batch):
                padded_row = np.pad(
                    analog[b], (pad, k_size - 1 - pad), mode="edge"
                )
                filtered[b] = np.convolve(padded_row, kernel, mode="valid")
        else:
            pad_l = k_size // 2
            pad_r = k_size - 1 - pad_l
            padded = np.pad(analog, ((0, 0), (pad_l, pad_r)), mode="edge")
            filtered = np.zeros_like(analog)
            for m, tap in enumerate(kernel[::-1]):
                filtered += tap * padded[:, m: m + total]
    else:
        filtered = analog
    cols = offsets[:, None] + np.arange(n_out, dtype=np.int64)[None, :]
    np.minimum(cols, total - 1, out=cols)
    cut = np.take_along_axis(filtered, cols, axis=1)
    if noise is not None:
        cut[:, : noise.shape[1]] += noise
    segments = quantize(cut, lsb, max_code)
    segments[np.arange(n_out, dtype=np.int64)[None, :] >= lengths[:, None]] = 0.0
    return segments

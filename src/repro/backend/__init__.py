"""The array kernels under the measured hot loops.

The capture→accumulate spine spends nearly all of its time in a handful of
elementwise/scatter kernels: the Hamming-weight leakage model, the ADC
quantiser, the RD-window gather, and the fused pulse→FIR→quantise window
synthesis on the capture side, and the class-conditional scatter on the
accumulation side.  Those five kernels live in
:mod:`repro.backend.numpy_backend`, **bit-identical** to the historical
inline code they replaced, and this package collects them into one
:class:`ArrayBackend` table.

Call sites look the table up with :func:`get_backend` each time a kernel
runs, never at import time.  Replacing the module-level ``_active`` table
(for example with a ``dataclasses.replace`` copy whose kernels are
wrapped in timers) therefore reaches every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.backend import numpy_backend

__all__ = ["ArrayBackend", "get_backend"]


@dataclass(frozen=True)
class ArrayBackend:
    """The hot-loop kernel table.

    ``accumulate_class_stats(counts, class_sums, t, pts)``
        In-place scatter of a centred chunk into per-(byte, class) counts
        ``(b, 256)`` and sums ``(b, 256, m)``; ``t`` is ``(n, m)`` float64,
        ``pts`` is ``(n, b)`` uint8.
    ``hw_power(table, alpha, values, kinds)``
        ``pedestal[kind] + alpha * popcount(value)`` over uint64 values;
        returns float64 of the same shape.
    ``quantize(analog, lsb, max_code)``
        ADC clip + round to the code grid; returns float32 of the same
        shape.
    ``gather_delayed_windows(positions, values32, kinds32, dummy_values,
    dummy_kinds, dummy_bounds, los, widths)``
        Batched RD-window gather: materialise delayed-stream positions
        ``[los[b], los[b] + widths[b])`` of every trace in one pass.
        ``positions`` is the ``(B, n32)`` stack of per-trace
        ``DelayPlan.new_positions`` (each row sorted), ``values32`` the
        ``(B, n32)`` real op values with shared ``(n32,)`` kinds, and the
        ragged per-trace dummy streams travel concatenated with
        ``dummy_bounds`` ``(B+1,)`` row offsets.  Returns
        ``(win_values, win_kinds)`` of shape ``(B, max(widths))`` uint64 /
        uint8, short rows tail-padded by replicating their last element.
    ``synthesize_rows(power, widths, pulse, kernel, offsets, n_out,
    lengths, noise, lsb, max_code)``
        Fused window capture over a ``(B, W)`` power matrix: per-op pulse
        expansion, per-row sample-level edge replication past
        ``widths[b]`` ops, the band-limiting FIR (edge-padded, taps
        accumulated in ``np.convolve`` order), the ``n_out``-sample cut
        at per-row sample ``offsets``, optional pre-scaled float32
        ``noise`` addition, ADC quantisation, and zeroing beyond
        ``lengths[b]`` — one ``(B, n_out)`` float32 result, bit-identical
        to the historical unfused chain.
    """

    accumulate_class_stats: Callable
    hw_power: Callable
    quantize: Callable
    gather_delayed_windows: Callable
    synthesize_rows: Callable


_active = ArrayBackend(
    accumulate_class_stats=numpy_backend.accumulate_class_stats,
    hw_power=numpy_backend.hw_power,
    quantize=numpy_backend.quantize,
    gather_delayed_windows=numpy_backend.gather_delayed_windows,
    synthesize_rows=numpy_backend.synthesize_rows,
)


def get_backend() -> ArrayBackend:
    """The kernel table every hot-loop call site runs on."""
    return _active

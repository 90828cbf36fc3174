"""Operation-stream to power-trace synthesis with ground-truth tracking.

This is the glue of the measurement chain: it takes the operation stream a
cipher (plus surrounding workloads) recorded, compiles 64-bit operations
down to the 32-bit datapath, applies the random-delay countermeasure, runs
the leakage model, and captures the result through the oscilloscope — all
while tracking where caller-designated *marker* operations (CO starts) end
up in the final sample stream.

Two synthesis entry points share one implementation of the chain:

* :func:`synthesize_trace` — one operation stream, one trace;
* :func:`synthesize_traces` — a :class:`BatchOpStream` of ``B`` parallel
  streams sharing one width/kind structure.  Datapath compilation, leakage
  modelling, pulse shaping, and quantisation run vectorized over the whole
  batch; the per-trace random decisions (delay plans, acquisition noise)
  are consumed in batch order, which makes the batched result *bit
  identical* to calling :func:`synthesize_trace` per row with the same
  generators — a property the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import get_backend
from repro.ciphers.base import BatchLeakageRecorder, LeakageRecorder
from repro.soc.leakage import HammingWeightLeakage
from repro.soc.oscilloscope import Oscilloscope
from repro.soc.random_delay import (
    BatchDelayPlans,
    DelayPlan,
    RandomDelayCountermeasure,
)

__all__ = [
    "OpStream",
    "BatchOpStream",
    "synthesize_trace",
    "synthesize_traces",
    "synthesize_trace_windows",
]

_M32 = np.uint64(0xFFFFFFFF)


def _expand_datapath(values: np.ndarray, widths: np.ndarray,
                     kinds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compile (values, widths, kinds) to the 32-bit datapath.

    ``values`` may be ``(N,)`` or batched ``(B, N)``; widths/kinds are
    ``(N,)`` and shared.  Operations wider than 32 bits become two
    operations (low word then high word) of the same kind, as on an RV32
    core.  Returns ``(values32, kinds32, op_starts)`` where ``op_starts[i]``
    is the datapath index of original op ``i``.
    """
    widths64 = widths.astype(np.int64)
    chunks = np.where(widths64 > 32, 2, 1)
    starts = np.concatenate(([0], np.cumsum(chunks)[:-1]))
    idx = np.repeat(np.arange(widths64.size, dtype=np.int64), chunks)
    within = np.arange(idx.size, dtype=np.int64) - starts[idx]
    vals = values[..., idx]
    out = np.where(within == 0, vals & _M32, vals >> np.uint64(32))
    return out.astype(np.uint64), kinds[idx], starts


@dataclass
class OpStream:
    """A stream of executed operations: values, bit widths, and kinds."""

    values: np.ndarray  # uint64
    widths: np.ndarray  # uint8
    kinds: np.ndarray   # uint8 (OpKind)

    @classmethod
    def from_recorder(cls, recorder: LeakageRecorder) -> "OpStream":
        """Snapshot a recorder's accumulated operations."""
        values, widths, kinds = recorder.as_arrays()
        return cls(values=values, widths=widths, kinds=kinds)

    @classmethod
    def concatenate(cls, streams: list["OpStream"]) -> "OpStream":
        """Join several streams back to back."""
        if not streams:
            empty8 = np.zeros(0, dtype=np.uint8)
            return cls(np.zeros(0, dtype=np.uint64), empty8, empty8.copy())
        return cls(
            values=np.concatenate([s.values for s in streams]),
            widths=np.concatenate([s.widths for s in streams]),
            kinds=np.concatenate([s.kinds for s in streams]),
        )

    def __len__(self) -> int:
        return int(self.values.size)

    def to_datapath_ops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compile to 32-bit datapath operations.

        Operations wider than 32 bits become two operations (low word then
        high word) of the same kind, as on an RV32 core.  Returns
        ``(values32, kinds32, op_starts)`` where ``op_starts[i]`` is the
        datapath index of original op ``i``.
        """
        return _expand_datapath(self.values, self.widths, self.kinds)


@dataclass
class BatchOpStream:
    """``B`` parallel operation streams sharing one width/kind structure.

    The batch analogue of :class:`OpStream`: ``values`` is ``(B, N)`` while
    ``widths``/``kinds`` are ``(N,)`` and describe every trace (valid
    because the instrumented ciphers execute input-independent instruction
    sequences).
    """

    values: np.ndarray  # (B, N) uint64
    widths: np.ndarray  # (N,) uint8
    kinds: np.ndarray   # (N,) uint8

    @classmethod
    def from_recorder(cls, recorder: BatchLeakageRecorder) -> "BatchOpStream":
        """Snapshot a batch recorder's accumulated operations."""
        values, widths, kinds = recorder.as_batch_arrays()
        return cls(values=values, widths=widths, kinds=kinds)

    @property
    def batch_size(self) -> int:
        return int(self.values.shape[0])

    def __len__(self) -> int:
        """Operations per trace (the shared stream length N)."""
        return int(self.values.shape[1])

    def row(self, index: int) -> OpStream:
        """A single trace's stream (views into the batch arrays)."""
        return OpStream(values=self.values[index], widths=self.widths,
                        kinds=self.kinds)

    def to_datapath_ops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched 32-bit datapath compilation: ``values32`` is ``(B, N32)``."""
        return _expand_datapath(self.values, self.widths, self.kinds)


def synthesize_trace(
    stream: OpStream,
    markers: np.ndarray,
    countermeasure: RandomDelayCountermeasure,
    leakage: HammingWeightLeakage,
    oscilloscope: Oscilloscope,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesise the power trace for an operation stream.

    Parameters
    ----------
    stream:
        The recorded operation stream (any widths up to 64 bits).
    markers:
        Indices *into the stream* whose final sample positions the caller
        needs (e.g. the first operation of every CO).
    countermeasure:
        Random-delay configuration to apply (RD-0 disables it).
    leakage, oscilloscope, rng:
        The measurement chain.

    Returns
    -------
    (trace, marker_samples):
        The captured trace (float32) and, for each marker, the index of the
        first trace sample of the marked operation.
    """
    markers = np.asarray(markers, dtype=np.int64)
    if markers.size and (markers.min() < 0 or markers.max() >= len(stream)):
        raise IndexError("marker index outside the operation stream")
    values32, kinds32, op_starts = stream.to_datapath_ops()
    delayed = countermeasure.apply(values32, kinds32)
    power = leakage.power(delayed.values, delayed.kinds)
    trace = oscilloscope.capture(power, rng)
    marker_ops = delayed.new_positions[op_starts[markers]] if markers.size else markers
    marker_samples = oscilloscope.op_to_sample(marker_ops)
    return trace, np.asarray(marker_samples, dtype=np.int64)


def synthesize_traces(
    stream: BatchOpStream,
    markers: np.ndarray | Sequence[np.ndarray],
    countermeasure: RandomDelayCountermeasure,
    leakage: HammingWeightLeakage,
    oscilloscope: Oscilloscope,
    rng: np.random.Generator,
    plans: Sequence[DelayPlan] | None = None,
    noise: Sequence[np.ndarray | None] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Synthesise one power trace per row of a batched operation stream.

    Parameters
    ----------
    stream:
        ``B`` parallel operation streams with shared width/kind structure.
    markers:
        Either one ``(M,)`` marker array applied to every trace, or a
        sequence of ``B`` per-trace marker arrays (indices into the shared
        op stream).
    countermeasure, leakage, oscilloscope, rng:
        The measurement chain, as in :func:`synthesize_trace`.
    plans:
        Optional pre-drawn per-trace :class:`DelayPlan` list.  When absent,
        plans are drawn here trace by trace (the same TRNG consumption
        order as ``B`` sequential :func:`synthesize_trace` calls).
    noise:
        Optional pre-drawn per-trace acquisition noise (see
        :meth:`Oscilloscope.capture_batch`).

    Returns
    -------
    (traces, marker_samples):
        ``B`` captured traces (float32, per-trace lengths vary with the
        inserted delays) and ``B`` per-trace marker sample arrays.

    Every random draw is consumed in the scalar path's order, making the
    result bit-identical to calling :func:`synthesize_trace` per row with
    the same generators, while the work itself is batched (datapath
    compilation once, leakage/pulse/ADC over the concatenated batch).
    With the random-delay countermeasure off the per-trace plan/execute
    step disappears entirely — the batch already *is* the flat stream.
    """
    batch = stream.batch_size
    n_ops = len(stream)
    if isinstance(markers, np.ndarray):
        per_trace_markers = [np.asarray(markers, dtype=np.int64)] * batch
    else:
        items = list(markers)
        if items and not np.isscalar(items[0]):
            per_trace_markers = [np.asarray(m, dtype=np.int64) for m in items]
            if len(per_trace_markers) != batch:
                raise ValueError(
                    f"{len(per_trace_markers)} marker arrays for batch of {batch}"
                )
        else:
            per_trace_markers = [np.asarray(items, dtype=np.int64)] * batch
    for marks in per_trace_markers:
        if marks.size and (marks.min() < 0 or marks.max() >= n_ops):
            raise IndexError("marker index outside the operation stream")

    values32, kinds32, op_starts = stream.to_datapath_ops()
    n32 = values32.shape[-1]
    delay_free = (
        countermeasure.max_delay == 0 if plans is None
        else all(plan.total == plan.n_ops for plan in plans)
    )
    if plans is not None and len(plans) != batch:
        raise ValueError(f"{len(plans)} delay plans for batch of {batch}")
    if delay_free:
        # No inserted ops: every trace keeps the shared structure, so the
        # flat stream is just the batch matrix read row by row — no plan
        # objects, no per-trace scatter copies, no list concatenation.
        # Bit-identical to the general path (execute() degenerates to a
        # copy when a plan inserts nothing).
        flat_values = values32.reshape(-1)
        flat_kinds = np.tile(kinds32, batch)
        lengths = [n32] * batch
        positions = None      # identity op mapping
    else:
        if plans is None:
            plans = [countermeasure.plan(n32) for _ in range(batch)]
        delayed_values: list[np.ndarray] = []
        delayed_kinds: list[np.ndarray] = []
        for b in range(batch):
            delayed = countermeasure.execute(plans[b], values32[b], kinds32)
            delayed_values.append(delayed.values)
            delayed_kinds.append(delayed.kinds)
        flat_values = np.concatenate(delayed_values) if batch > 1 else delayed_values[0]
        flat_kinds = np.concatenate(delayed_kinds) if batch > 1 else delayed_kinds[0]
        lengths = [v.size for v in delayed_values]
        positions = [plan.new_positions for plan in plans]
    flat_power = leakage.power(flat_values, flat_kinds)
    splits = np.cumsum(lengths)[:-1]
    powers = np.split(flat_power, splits)
    traces = oscilloscope.capture_batch(powers, rng, noise=noise)

    marker_samples: list[np.ndarray] = []
    for b, marks in enumerate(per_trace_markers):
        if marks.size:
            marker_ops = op_starts[marks]
            if positions is not None:
                marker_ops = positions[b][marker_ops]
        else:
            marker_ops = marks
        marker_samples.append(
            np.asarray(oscilloscope.op_to_sample(marker_ops), dtype=np.int64)
        )
    return traces, marker_samples


def synthesize_trace_windows(
    stream: BatchOpStream,
    start_op: int,
    n_samples: int,
    leakage: HammingWeightLeakage,
    oscilloscope: Oscilloscope,
    rng: np.random.Generator,
    countermeasure: RandomDelayCountermeasure | None = None,
    plans: Sequence[DelayPlan] | BatchDelayPlans | None = None,
) -> np.ndarray:
    """Fast-mode synthesis of one sample window per trace (any RD config).

    A hardware rig triggered on a known event captures a short window, not
    the whole execution; this is the simulator's equivalent.  With the
    random-delay countermeasure off the window position is deterministic.
    With it on, every inserted delay is decided by the :class:`DelayPlan`
    *before* synthesis, so each trace's shifted window start is computable
    up front (``plan.new_positions`` maps the marker op into the delayed
    stream) and only the per-trace window — real ops and the dummies that
    landed inside it — runs through the measurement chain.  Either way the
    capture cost scales with the window, not the trace.

    Plans come from ``plans`` (pre-drawn, e.g. for equivalence testing) or
    are drawn here via ``countermeasure.plan_batch_stacked`` — one bulk TRNG
    request per batch, the fast capture mode's plan source.  Leave both
    ``None`` (or pass a delay-free countermeasure) for the RD-0 path.

    Sample values inside the window are identical to the full-trace
    chain's except where a window edge falls strictly inside the trace:
    there the band-limiting filter sees edge padding instead of the
    out-of-window neighbour sample, a sub-LSB boundary effect confined to
    the halo (which is synthesised and discarded).  Noiseless windows are
    therefore bit-identical cuts of the exact full trace under the same
    plans — the property suite enforces this for RD-0 and RD>0 alike.
    The acquisition noise is one bulk float32 draw over the window batch,
    so noisy fast captures are statistically indistinguishable from the
    exact path's, not bit-identical.

    Returns a ``(B, n_samples)`` float32 matrix, zero-padded where the
    window extends past the end of the trace — the exact shape (and
    padding convention) attack-segment consumers expect.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0 <= start_op < len(stream):
        raise IndexError("start_op outside the operation stream")
    values32, kinds32, op_starts = stream.to_datapath_ops()
    batch, n32 = values32.shape
    spp = oscilloscope.samples_per_op
    n_out = int(n_samples)
    halo = oscilloscope._kernel.size // 2 + 1
    if plans is None and countermeasure is not None and countermeasure.max_delay:
        plans = countermeasure.plan_batch_stacked(n32, batch)
    if plans is not None:
        if not isinstance(plans, BatchDelayPlans):
            if len(plans) != batch:
                raise ValueError(
                    f"{len(plans)} delay plans for batch of {batch}"
                )
            for plan in plans:
                if plan.n_ops != n32:
                    raise ValueError(
                        f"plan was drawn for {plan.n_ops} ops, stream "
                        f"compiles to {n32}"
                    )
            plans = BatchDelayPlans.from_plans(plans)
        else:
            if len(plans) != batch:
                raise ValueError(
                    f"{len(plans)} delay plans for batch of {batch}"
                )
            if plans.n_ops != n32:
                raise ValueError(
                    f"plan was drawn for {plans.n_ops} ops, stream "
                    f"compiles to {n32}"
                )
        if not plans.delay_free:
            return _synthesize_delayed_windows(
                values32, kinds32, int(op_starts[start_op]), n_out,
                plans, leakage, oscilloscope, rng,
            )
    total = n32 * spp
    start = int(op_starts[start_op]) * spp   # < total: start_op is in range
    stop = min(start + n_out, total)
    lo_op = max(0, (start - halo) // spp)
    hi_op = min(n32, -(-(stop + halo) // spp))
    width = hi_op - lo_op
    power = leakage.power(
        values32[:, lo_op:hi_op].reshape(-1), np.tile(kinds32[lo_op:hi_op], batch)
    ).reshape(batch, width)
    return oscilloscope.synthesize_windows(
        power,
        widths=np.full(batch, width, dtype=np.int64),
        offsets=np.full(batch, start - lo_op * spp, dtype=np.int64),
        n_out=n_out,
        lengths=np.full(batch, stop - start, dtype=np.int64),
        rng=rng,
        noise_cols=stop - start,
    )


def _gather_delayed_window(
    plan: DelayPlan,
    values: np.ndarray,
    kinds: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise delayed-stream positions ``[lo, hi)`` of one trace.

    Reconstructs exactly the ``execute`` scatter, but only for the window:
    a real op sits at delayed position ``p`` iff ``new_positions`` contains
    ``p`` (binary search); otherwise ``p`` holds dummy number
    ``p - (#real ops before p)``, because ``execute`` fills dummy slots in
    positional order.

    This is the scalar **reference** for the batched
    ``gather_delayed_windows`` backend kernel the capture path now runs;
    the property suite pins the kernel to it element for element.
    """
    positions = plan.new_positions
    pos = np.arange(lo, hi, dtype=np.int64)
    r = np.searchsorted(positions, pos, side="left")
    is_real = positions[np.minimum(r, positions.size - 1)] == pos
    out_values = np.empty(hi - lo, dtype=np.uint64)
    out_kinds = np.empty(hi - lo, dtype=np.uint8)
    real_src = r[is_real]
    out_values[is_real] = values[real_src]
    out_kinds[is_real] = kinds[real_src]
    dummy = ~is_real
    dummy_idx = pos[dummy] - r[dummy]
    out_values[dummy] = plan.dummy_values[dummy_idx]
    out_kinds[dummy] = plan.dummy_kinds[dummy_idx]
    return out_values, out_kinds


def _synthesize_delayed_windows(
    values32: np.ndarray,
    kinds32: np.ndarray,
    marker_op: int,
    n_samples: int,
    plans: BatchDelayPlans | Sequence[DelayPlan],
    leakage: HammingWeightLeakage,
    oscilloscope: Oscilloscope,
    rng: np.random.Generator,
) -> np.ndarray:
    """Windowed fast capture under random delay (RD > 0).

    Each trace's window starts where its plan moved the marker op to; the
    traces' (ragged) op windows are gathered into one left-aligned matrix,
    padded on the right by *sample-level* edge replication so the shared
    equal-width FIR pass reproduces each row's own edge-padding boundary
    condition bit-for-bit (rows clipped at the end of their delayed stream
    must see exactly the padding the full-trace chain sees there).

    The whole chain is batched: the per-plan window headers come off the
    stacked plan arrays in four vectorized expressions, the window gather
    and the pulse→FIR→quantise synthesis are single backend-kernel calls
    (``gather_delayed_windows`` / ``synthesize_rows``) — no per-trace
    Python loop anywhere.
    """
    if not isinstance(plans, BatchDelayPlans):
        plans = BatchDelayPlans.from_plans(plans)
    batch = values32.shape[0]
    spp = oscilloscope.samples_per_op
    halo = oscilloscope._kernel.size // 2 + 1
    starts = plans.positions[:, marker_op] * spp
    stops = np.minimum(starts + n_samples, plans.totals * spp)
    los = np.maximum(0, (starts - halo) // spp)
    his = np.minimum(plans.totals, -(-(stops + halo) // spp))
    lengths = stops - starts                    # valid samples in the cut
    widths = his - los                          # ops per gathered window
    win_values, win_kinds = get_backend().gather_delayed_windows(
        plans.positions, values32, kinds32,
        plans.dummy_values, plans.dummy_kinds, plans.dummy_bounds,
        los, widths,
    )
    power = leakage.power(
        win_values.reshape(-1), win_kinds.reshape(-1)
    ).reshape(batch, win_values.shape[1])
    return oscilloscope.synthesize_windows(
        power, widths, starts - los * spp, int(n_samples), lengths, rng,
    )

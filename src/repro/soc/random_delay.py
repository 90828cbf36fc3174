"""The random-delay desynchronisation countermeasure (RD-k).

The paper's CPU inserts, between every pair of consecutive program
instructions, a TRNG-chosen number of random instructions bounded by a
configuration constant: RD-2 inserts 0..2, RD-4 inserts 0..4.  The effect on
the power trace is a non-uniform time warp — each real instruction lands at
an unpredictable offset whose variance grows along the program — plus
random-instruction power in the gaps (the inserted instructions have both
random operand values and random instruction kinds, so they mimic genuine
code).  That combination is what defeats the pattern-matching locators of
[10] and [11].

This module applies the countermeasure to an operation stream *and reports
where every original operation ended up*, which the trace synthesiser uses
to carry ground-truth CO positions through the warp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ciphers.base import OpKind
from repro.soc.trng import TrngModel

__all__ = [
    "RandomDelayCountermeasure",
    "BatchDelayPlans",
    "DelayPlan",
    "DUMMY_KIND_POOL",
]

#: Instruction kinds the hardware inserter draws from.  A real random-delay
#: unit issues innocuous-looking arithmetic, shifts and multiplies; it does
#: not issue memory traffic (which could fault) — the same restriction the
#: paper's hardware TRNG-driven inserter has.
DUMMY_KIND_POOL = (int(OpKind.ALU), int(OpKind.SHIFT), int(OpKind.MUL))


@dataclass(frozen=True)
class _DelayedStream:
    """Result of applying random delay to an operation stream."""

    values: np.ndarray        # uint64, real + dummy operation values
    kinds: np.ndarray         # uint8, instruction kinds
    is_dummy: np.ndarray      # bool, True where an op was inserted
    new_positions: np.ndarray  # int64, index of each original op in `values`


@dataclass(frozen=True)
class DelayPlan:
    """All TRNG decisions for delaying one ``n_ops``-long stream.

    Separating the random *plan* from its *execution* lets the batched
    capture path pre-draw every trace's randomness in the exact stream
    order the scalar path consumes it, then scatter the (later-computed)
    real operation values in bulk.  ``RandomDelayCountermeasure.apply``
    is plan + execute, so the two paths are bit-identical by construction.
    """

    n_ops: int                 # original stream length
    total: int                 # delayed stream length
    new_positions: np.ndarray  # int64 (n_ops,): index of each original op
    dummy_values: np.ndarray   # uint64 (total - n_ops,)
    dummy_kinds: np.ndarray    # uint8 (total - n_ops,)

    @property
    def n_dummy(self) -> int:
        return self.total - self.n_ops


@dataclass(frozen=True)
class BatchDelayPlans:
    """A batch of delay plans held as stacked arrays, not plan objects.

    Every plan of a batch covers the same ``n_ops``-long stream, so the
    per-trace ``new_positions`` rows stack into one regular ``(B, n_ops)``
    matrix; only the dummy streams are ragged and travel concatenated with
    ``dummy_bounds`` row offsets.  This is the shape the batched window
    kernels consume directly — no per-plan Python loop, no re-stacking —
    while :meth:`plan` still exposes any row as a classic
    :class:`DelayPlan` of views for the scalar/execute paths.
    """

    n_ops: int                  # original stream length (shared)
    totals: np.ndarray          # (B,) int64 delayed stream lengths
    positions: np.ndarray       # (B, n_ops) int64 new positions per trace
    dummy_values: np.ndarray    # uint64, all traces' dummies concatenated
    dummy_kinds: np.ndarray     # uint8, same layout
    dummy_bounds: np.ndarray    # (B+1,) int64 row offsets into the dummies

    def __len__(self) -> int:
        return int(self.totals.size)

    @property
    def delay_free(self) -> bool:
        """True when no trace of the batch had any instruction inserted."""
        return bool((self.totals == self.n_ops).all())

    def plan(self, index: int) -> DelayPlan:
        """Row ``index`` as a :class:`DelayPlan` (views, no copies)."""
        lo = int(self.dummy_bounds[index])
        hi = int(self.dummy_bounds[index + 1])
        return DelayPlan(
            n_ops=self.n_ops,
            total=int(self.totals[index]),
            new_positions=self.positions[index],
            dummy_values=self.dummy_values[lo:hi],
            dummy_kinds=self.dummy_kinds[lo:hi],
        )

    def __iter__(self):
        return (self.plan(index) for index in range(len(self)))

    @classmethod
    def from_plans(cls, plans) -> "BatchDelayPlans":
        """Stack per-trace plans (all drawn for the same stream length)."""
        plans = list(plans)
        if not plans:
            raise ValueError("need at least one plan")
        n_ops = plans[0].n_ops
        for plan in plans:
            if plan.n_ops != n_ops:
                raise ValueError("plans disagree on n_ops; cannot stack")
        bounds = np.zeros(len(plans) + 1, dtype=np.int64)
        np.cumsum([plan.n_dummy for plan in plans], out=bounds[1:])
        return cls(
            n_ops=int(n_ops),
            totals=np.fromiter(
                (plan.total for plan in plans), dtype=np.int64,
                count=len(plans),
            ),
            positions=np.stack([plan.new_positions for plan in plans]),
            dummy_values=np.concatenate(
                [plan.dummy_values for plan in plans]
            ),
            dummy_kinds=np.concatenate([plan.dummy_kinds for plan in plans]),
            dummy_bounds=bounds,
        )


class RandomDelayCountermeasure:
    """Insert 0..max_delay random instructions between consecutive ops.

    ``max_delay = 0`` disables the countermeasure (the RD-0 sanity
    configuration used to validate the baselines).
    """

    def __init__(self, max_delay: int, trng: TrngModel | None = None) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.max_delay = int(max_delay)
        self.trng = trng if trng is not None else TrngModel()

    @property
    def config_name(self) -> str:
        """The paper's name for this configuration (RD-0 / RD-2 / RD-4)."""
        return f"RD-{self.max_delay}"

    def plan(self, n_ops: int) -> DelayPlan:
        """Draw every TRNG decision needed to delay an ``n_ops`` stream.

        Consumes the TRNG in exactly the order :meth:`apply` does (delay
        counts, then dummy operand values, then dummy kinds), so planning
        traces one by one matches the scalar path bit for bit.
        """
        if n_ops < 0:
            raise ValueError("n_ops must be non-negative")
        empty_positions = np.arange(n_ops, dtype=np.int64)
        if n_ops == 0 or self.max_delay == 0:
            return DelayPlan(
                n_ops=n_ops,
                total=n_ops,
                new_positions=empty_positions,
                dummy_values=np.zeros(0, dtype=np.uint64),
                dummy_kinds=np.zeros(0, dtype=np.uint8),
            )
        # One gap before each op except the first.
        counts = self.trng.uniform_ints(0, self.max_delay, n_ops - 1)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        new_positions = empty_positions + offsets
        total = n_ops + int(counts.sum())
        n_dummy = total - n_ops
        if n_dummy:
            dummy_values = self.trng.random_words(n_dummy, width=32)
            pool = np.asarray(DUMMY_KIND_POOL, dtype=np.uint8)
            picks = self.trng.uniform_ints(0, len(pool) - 1, n_dummy)
            dummy_kinds = pool[picks]
        else:
            dummy_values = np.zeros(0, dtype=np.uint64)
            dummy_kinds = np.zeros(0, dtype=np.uint8)
        return DelayPlan(
            n_ops=n_ops,
            total=total,
            new_positions=new_positions,
            dummy_values=dummy_values,
            dummy_kinds=dummy_kinds,
        )

    def plan_batch_stacked(self, n_ops: int, batch: int) -> BatchDelayPlans:
        """Draw ``batch`` delay plans as one :class:`BatchDelayPlans`.

        The fast capture mode's plan source: all delay counts come from
        one TRNG call, then all dummy operand values, then all dummy
        kinds.  Each resulting plan is distributed identically to one
        drawn by :meth:`plan`, but the TRNG is consumed in batch order
        rather than trace order, so the streams differ from ``batch``
        sequential :meth:`plan` calls — which is why the exact capture
        mode keeps the per-trace path.  The stacked representation is
        what the batched window-synthesis kernels consume without any
        per-plan loop.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        base = np.arange(n_ops, dtype=np.int64)
        if n_ops == 0 or self.max_delay == 0:
            return BatchDelayPlans(
                n_ops=int(n_ops),
                totals=np.full(batch, n_ops, dtype=np.int64),
                positions=np.tile(base, (batch, 1)),
                dummy_values=np.zeros(0, dtype=np.uint64),
                dummy_kinds=np.zeros(0, dtype=np.uint8),
                dummy_bounds=np.zeros(batch + 1, dtype=np.int64),
            )
        counts = self.trng.uniform_ints(0, self.max_delay, (batch, n_ops - 1))
        per_trace = counts.sum(axis=1)
        n_dummy = int(per_trace.sum())
        dummy_values = self.trng.random_words(n_dummy, width=32)
        pool = np.asarray(DUMMY_KIND_POOL, dtype=np.uint8)
        dummy_kinds = pool[self.trng.uniform_ints(0, len(pool) - 1, n_dummy)]
        bounds = np.concatenate(([0], np.cumsum(per_trace)))
        offsets = np.concatenate(
            (np.zeros((batch, 1), dtype=np.int64), np.cumsum(counts, axis=1)),
            axis=1,
        )
        return BatchDelayPlans(
            n_ops=int(n_ops),
            totals=n_ops + per_trace.astype(np.int64),
            positions=base[None, :] + offsets,
            dummy_values=dummy_values,
            dummy_kinds=dummy_kinds,
            dummy_bounds=bounds.astype(np.int64),
        )

    def execute(self, plan: DelayPlan, values: np.ndarray,
                kinds: np.ndarray) -> _DelayedStream:
        """Scatter real (value, kind) operations through a drawn plan."""
        values = np.asarray(values, dtype=np.uint64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if values.shape != kinds.shape:
            raise ValueError("values and kinds must have the same length")
        if values.size != plan.n_ops:
            raise ValueError(
                f"plan was drawn for {plan.n_ops} ops, got {values.size}"
            )
        if plan.total == plan.n_ops:
            return _DelayedStream(
                values=values.copy(),
                kinds=kinds.copy(),
                is_dummy=np.zeros(plan.n_ops, dtype=bool),
                new_positions=plan.new_positions,
            )
        out_values = np.empty(plan.total, dtype=np.uint64)
        out_kinds = np.empty(plan.total, dtype=np.uint8)
        is_dummy = np.ones(plan.total, dtype=bool)
        out_values[plan.new_positions] = values
        out_kinds[plan.new_positions] = kinds
        is_dummy[plan.new_positions] = False
        out_values[is_dummy] = plan.dummy_values
        out_kinds[is_dummy] = plan.dummy_kinds
        return _DelayedStream(
            values=out_values,
            kinds=out_kinds,
            is_dummy=is_dummy,
            new_positions=plan.new_positions,
        )

    def apply(self, values: np.ndarray, kinds: np.ndarray) -> _DelayedStream:
        """Apply the countermeasure to a stream of (value, kind) operations.

        Returns the expanded stream together with the mapping from original
        op index to its position in the expanded stream.  Equivalent to
        :meth:`plan` followed by :meth:`execute`.
        """
        values = np.asarray(values, dtype=np.uint64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if values.shape != kinds.shape:
            raise ValueError("values and kinds must have the same length")
        return self.execute(self.plan(values.size), values, kinds)

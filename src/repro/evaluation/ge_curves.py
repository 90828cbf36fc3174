"""Averaged guessing-entropy curves over independent campaign repetitions.

A single campaign's guessing-entropy curve
(:func:`repro.evaluation.convergence.guessing_entropy_curve`) is one
noisy realisation: where it crosses zero depends on the particular key,
capture noise, and countermeasure randomness drawn.  The standard
evaluation metric averages the curve over **independent repetitions**
(fresh seeds, same configuration), which is what
:class:`GuessingEntropyAccumulator` computes — per checkpoint trace
count it keeps the count, sum, and sum of squares of the per-repetition
guessing entropies, so mean curves (and their spread) fall out at any
point, repetitions merge exactly across accumulators (parallel sweeps),
and the state persists to ``.npz`` like the other sufficient-statistic
accumulators in this repository.

Repetitions must share a checkpoint ladder for their bins to align;
:meth:`ExperimentEngine.run_ge_curve
<repro.runtime.engine.ExperimentEngine.run_ge_curve>` arranges that by
passing every repetition the same explicit ladder, and runs the
repetitions through :func:`~repro.runtime.parallel.run_shards` (retry,
worker termination) at any worker count, folding each repetition's
records in repetition order.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import load_npz, require_compatible
from repro.evaluation.convergence import guessing_entropy

__all__ = ["GuessingEntropyAccumulator"]


class GuessingEntropyAccumulator:
    """Per-checkpoint moments of guessing entropy over repetitions."""

    _KIND = "ge_curve.v1"

    def __init__(self) -> None:
        self.n_repetitions = 0
        # checkpoint trace count -> [count, sum, sumsq] of per-rep GE.
        self._bins: dict[int, list[float]] = {}

    # -- accumulation --------------------------------------------------- #

    def update(self, records) -> int:
        """Fold one repetition's checkpoint records in; returns the total.

        ``records`` is a campaign's :class:`CheckpointRecord
        <repro.runtime.campaign.CheckpointRecord>` list (or any objects
        with ``n_traces`` and ``ranks``); checkpoints without ranks
        (unknown true key) are rejected — an averaged curve needs the
        ground truth.
        """
        records = list(records)
        if not records:
            raise ValueError("a repetition needs at least one checkpoint")
        entries = []
        for record in records:
            if record.ranks is None:
                raise ValueError(
                    "checkpoint carries no ranks (true key unknown?); "
                    "guessing-entropy curves need ground truth"
                )
            entries.append((int(record.n_traces), guessing_entropy(record.ranks)))
        for n_traces, value in entries:
            moments = self._bins.setdefault(n_traces, [0.0, 0.0, 0.0])
            moments[0] += 1.0
            moments[1] += value
            moments[2] += value * value
        self.n_repetitions += 1
        return self.n_repetitions

    def merge(self, other: "GuessingEntropyAccumulator") -> "GuessingEntropyAccumulator":
        """Fold another accumulator's repetitions into this one."""
        if not isinstance(other, GuessingEntropyAccumulator):
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"GuessingEntropyAccumulator"
            )
        for n_traces, moments in other._bins.items():
            mine = self._bins.setdefault(n_traces, [0.0, 0.0, 0.0])
            for i in range(3):
                mine[i] += moments[i]
        self.n_repetitions += other.n_repetitions
        return self

    # -- derived statistics --------------------------------------------- #

    def curve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(trace_counts, mean_ge, std_ge, repetition_counts)``.

        One entry per checkpoint bin, sorted by trace count.  ``std_ge``
        is the population standard deviation of the per-repetition
        values in the bin (0 for single-repetition bins).
        """
        if not self._bins:
            raise ValueError("no repetitions accumulated yet")
        counts = np.array(sorted(self._bins), dtype=np.int64)
        reps = np.array([self._bins[n][0] for n in counts])
        sums = np.array([self._bins[n][1] for n in counts])
        sumsq = np.array([self._bins[n][2] for n in counts])
        means = sums / reps
        variances = np.clip(sumsq / reps - means * means, 0.0, None)
        return counts, means, np.sqrt(variances), reps.astype(np.int64)

    def traces_to_entropy(self, bits: float = 0.0) -> int | None:
        """First checkpoint whose *mean* GE is at or below ``bits``.

        ``None`` when no bin reaches it — the budget was too small.
        """
        counts, means, _, _ = self.curve()
        below = np.flatnonzero(means <= bits + 1e-9)
        return None if below.size == 0 else int(counts[below[0]])

    # -- persistence ----------------------------------------------------- #

    def save(self, path) -> None:
        """Persist the accumulator as an ``.npz`` checkpoint."""
        if not self._bins:
            raise ValueError("no repetitions accumulated yet")
        counts = np.array(sorted(self._bins), dtype=np.int64)
        np.savez_compressed(
            path,
            kind=np.array(self._KIND),
            config=np.array(json.dumps(
                {"n_repetitions": self.n_repetitions}
            )),
            checkpoints=counts,
            moments=np.array([self._bins[n] for n in counts]),
        )

    @classmethod
    def load(cls, path) -> "GuessingEntropyAccumulator":
        """Restore an accumulator saved by :meth:`save`."""
        state = load_npz(path)
        require_compatible(path, {"kind": str(state.get("kind"))},
                           kind=cls._KIND)
        config = json.loads(str(state["config"]))
        accumulator = cls()
        accumulator.n_repetitions = int(config["n_repetitions"])
        for n_traces, moments in zip(state["checkpoints"], state["moments"]):
            accumulator._bins[int(n_traces)] = [float(m) for m in moments]
        return accumulator

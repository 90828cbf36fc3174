"""The clock-jitter countermeasure (CJ).

A jittery sampling/system clock makes the scope's sample grid drift
against the device's instruction stream: some device-clock periods are
sampled twice, some fall between two scope samples and are lost.  The
model is a per-sample repeat count drawn from the TRNG — each captured
sample is kept once (probability ``1 - strength/100``), dropped, or
duplicated (each ``strength/200``) — so a marker's position performs a
random walk whose spread grows with its depth into the trace.  Per-sample
alignment degrades accordingly while windowed integration largely
recovers, and first-order leakage (smeared, not masked) stays
TVLA-detectable.

As with random delay and shuffling, the TRNG decisions live in a *plan*
(:class:`JitterPlan`) separated from execution; every capture draws one
plan per trace in the scalar order (jitter resamples whole traces, so
the windowed fast capture mode refuses it).  The jitter resamples the
*captured* trace (a sample-and-hold ADC view: a doubled sample repeats
its quantised value), composing with any upstream countermeasure;
ground-truth markers are mapped through the plan's cumulative repeat
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.soc.trng import TrngModel

__all__ = ["ClockJitterCountermeasure", "JitterPlan"]


@dataclass(frozen=True)
class JitterPlan:
    """Per-sample repeat counts (0 = dropped, 1 = kept, 2 = doubled)."""

    repeats: np.ndarray   # uint8 (n_in,)

    @property
    def n_in(self) -> int:
        return int(self.repeats.size)

    @property
    def n_out(self) -> int:
        return int(self.repeats.sum())

    def map_positions(self, samples: np.ndarray) -> np.ndarray:
        """Map input-sample indices to their jittered output positions.

        A dropped sample maps to the position of the next surviving one
        (what a marker aligned there would observe).
        """
        samples = np.asarray(samples, dtype=np.int64)
        if samples.size and (
            samples.min() < 0 or samples.max() >= self.n_in
        ):
            raise IndexError("sample index outside the jitter plan")
        starts = np.concatenate(
            ([0], np.cumsum(self.repeats.astype(np.int64))[:-1])
        )
        return np.minimum(starts[samples], max(self.n_out - 1, 0))


class ClockJitterCountermeasure:
    """Resample captured traces under a TRNG-driven jittery clock.

    ``strength`` is the jitter rate in percent: each sample is dropped
    with probability ``strength/200`` and doubled with the same
    probability, so the expected trace length is unchanged and the
    marker drift variance grows linearly along the trace.
    """

    def __init__(self, strength: int, trng: TrngModel | None = None) -> None:
        if not 1 <= int(strength) <= 99:
            raise ValueError(
                f"jitter strength must be in [1, 99] percent, got {strength}"
            )
        self.strength = int(strength)
        self.trng = trng if trng is not None else TrngModel()

    @property
    def config_name(self) -> str:
        """Configuration label, e.g. ``CJ-10``."""
        return f"CJ-{self.strength}"

    def plan(self, n_samples: int) -> JitterPlan:
        """Draw the repeat counts for one ``n_samples``-long trace."""
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        return JitterPlan(repeats=self._repeats(
            self.trng.uniform_ints(0, 199, n_samples)
        ))

    def _repeats(self, draws: np.ndarray) -> np.ndarray:
        s = self.strength
        return np.where(
            draws < s, 0, np.where(draws < 2 * s, 2, 1)
        ).astype(np.uint8)

    def execute(self, plan: JitterPlan, trace: np.ndarray) -> np.ndarray:
        """Resample one captured trace through a drawn plan."""
        if trace.shape[-1] != plan.n_in:
            raise ValueError(
                f"plan was drawn for {plan.n_in} samples, trace has "
                f"{trace.shape[-1]}"
            )
        idx = np.repeat(
            np.arange(plan.n_in, dtype=np.int64),
            plan.repeats.astype(np.int64),
        )
        return trace[..., idx]

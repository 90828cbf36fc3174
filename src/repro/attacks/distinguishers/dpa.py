"""Difference-of-means DPA (Kocher et al. [1]) on the class-conditional store.

Partitions every trace by a single-bit leakage model of the hypothesised
S-box output (the MSB by default).  The selection bit is a fixed function
of the plaintext byte per guess, so the partition statistics are a
scoring-time projection of the shared class-conditional store: with bit
table ``B[v, k]`` and per-class counts/sums ``c[v]``/``S[v, :]``, the
ones-partition count is ``c @ B`` and its sum ``Bᵀ @ S``.
:meth:`DpaDistinguisher.difference` then recovers the same differential
traces the closed-form partition means give in one batch, for any
chunking, and the store is purely additive so shard merges are exact.
Like CPA, the selection bit is swappable after accumulation via
:meth:`DpaDistinguisher.with_model`.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.distinguishers.class_conditional import (
    ClassConditionalDistinguisher,
)
from repro.attacks.leakage_models import LeakageModel, get_leakage_model

__all__ = ["DpaDistinguisher"]


def _binary_model(model: str | LeakageModel) -> LeakageModel:
    model = get_leakage_model(model) if isinstance(model, str) else model
    if not model.binary:
        raise ValueError(
            f"DPA needs a single-bit leakage model, {model.name!r} is not "
            f"binary"
        )
    return model


class DpaDistinguisher(ClassConditionalDistinguisher):
    """Streaming difference-of-means DPA with a pluggable selection bit.

    Parameters
    ----------
    model:
        A **binary** leakage model providing the partition bit per
        (plaintext byte, guess) — ``"msb"`` (default) or ``"lsb"``.
        Only consulted at scoring time.
    aggregate:
        Boxcar aggregation width applied per chunk before accumulation.
    """

    name = "dpa"
    _KIND = "dpa.cc1"
    min_traces = 1

    def __init__(self, model: str | LeakageModel = "msb", aggregate: int = 1) -> None:
        super().__init__(aggregate=aggregate)
        self.model = _binary_model(model)

    def _config(self) -> dict:
        return {"model": self.model.name, "aggregate": self.aggregate}

    def with_model(self, model: str | LeakageModel) -> "DpaDistinguisher":
        """The same statistics re-partitioned by another selection bit."""
        swapped = self.copy()
        swapped.model = _binary_model(model)
        return swapped

    def difference(self, byte_index: int) -> np.ndarray:
        """Recovered ``(256, m)`` difference-of-means matrix for one byte.

        Rows whose hypothesis puts every trace in one partition are zero.
        """
        n, counts, class_sums = self._projection_inputs(byte_index, 1)
        bits = self.model.table                         # (256 values, 256 guesses)
        ones = (counts @ bits)[:, None]                 # (256, 1)
        ones_sum = bits.T @ class_sums                  # (256, m)
        zeros = n - ones
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = ones_sum / ones - (self._s_t[None, :] - ones_sum) / zeros
        valid = (ones > 0) & (zeros > 0)
        return np.where(valid, diff, 0.0)

    score_matrix = difference

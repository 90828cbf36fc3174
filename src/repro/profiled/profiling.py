"""The profiling phase: known-key capture into a store + streaming stats.

A :class:`ProfilingCampaign` is the profiling-phase sibling of
:class:`~repro.runtime.campaign.AttackCampaign`: it drives the same
:class:`~repro.runtime.campaign.SegmentSource` machinery (so every
platform, capture mode and batch path works unchanged), **requires** an
on-disk :class:`~repro.campaign.store.TraceStore` — profile fitting
replays the store, and profiling runs must be durable — and folds every
batch into streaming :class:`~repro.profiled.stats.ClassStats` for
SNR/t-test POI ranking.  Re-running over the same store resumes exactly
like an attack campaign: persisted chunks are replayed into the
statistics and the source is fast-forwarded past them, so an
interrupted-and-resumed profiling run accumulates exactly the traces an
uninterrupted one would.  A damaged store is recovered first (corrupt
tail and orphans quarantined), through the same
:func:`~repro.runtime.campaign.resume_store` the attack campaign uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign import TraceStore
from repro.profiled.stats import ClassStats, select_pois
from repro.runtime.campaign import SegmentSource, capture_into, resume_store

__all__ = ["ProfilingCampaign", "ProfilingResult"]


@dataclass
class ProfilingResult:
    """Everything a finished profiling run hands to the fitting step."""

    stats: ClassStats
    store: TraceStore
    n_traces: int
    resumed_from: int
    capture_seconds: float

    def snr(self) -> np.ndarray:
        """Per-byte, per-sample SNR map of the accumulated statistics."""
        return self.stats.snr()

    def select_pois(self, count: int, min_spacing: int = 1) -> np.ndarray:
        """Top-SNR POIs per byte over the accumulated statistics."""
        return select_pois(self.snr(), count, min_spacing=min_spacing)


class ProfilingCampaign:
    """Known-key capture → store → streaming class statistics.

    Parameters
    ----------
    source:
        A :class:`SegmentSource` whose ``true_key`` is known — profiling
        labels every trace with the class of its key-dependent
        intermediate, so an unkeyed source cannot be profiled.
    store:
        The trace store profiling captures persist to (required: the
        fitting step replays it, and profile provenance lives in its
        metadata).  Existing content is replayed and resumed.
    model:
        Leakage model defining the class labels (``hw`` for unmasked
        first-order targets, ``hd`` for the masked-AES pair).
    """

    def __init__(
        self,
        source: SegmentSource,
        store: TraceStore,
        model: str = "hw",
        batch_size: int = 256,
    ) -> None:
        if store is None:
            raise ValueError(
                "profiling needs a trace store: profile fitting replays it"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        key = getattr(source, "true_key", None)
        if key is None:
            raise ValueError("profiling needs a source with a known true_key")
        store.require(n_samples=source.n_samples,
                      block_size=source.block_size, key=key)
        self.source = source
        self.store = store
        self.batch_size = int(batch_size)
        self.stats = ClassStats(key, model=model)
        self.resumed_from, self.store_quarantined = resume_store(
            store, self.stats.update, self.batch_size, source
        )

    def run(self, n_traces: int, verbose: bool = False) -> ProfilingResult:
        """Capture until the store holds ``n_traces`` traces.

        Resumed traces count toward the budget, mirroring
        :meth:`AttackCampaign.run <repro.runtime.campaign.AttackCampaign.run>`.
        """
        if n_traces < 1:
            raise ValueError("n_traces must be >= 1")

        def fold(traces, plaintexts):
            n = self.stats.update(traces, plaintexts)
            if verbose:
                print(f"[profiling] {n:>8d}/{n_traces} traces")

        capture_seconds = capture_into(
            self.source, fold, n_traces - self.stats.n_traces,
            self.batch_size, self.store,
        )
        return ProfilingResult(
            stats=self.stats,
            store=self.store,
            n_traces=self.stats.n_traces,
            resumed_from=self.resumed_from,
            capture_seconds=capture_seconds,
        )

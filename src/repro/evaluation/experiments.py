"""Scenario runners shared by the benchmarks and the examples.

Each runner encapsulates one experimental condition of Section IV:
train a locator (or a baseline) against a clone platform, capture an
attack session on the target platform, locate, score hits, and optionally
mount the CPA.  Seeds are explicit everywhere so every benchmark row is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks import traces_to_rank1
from repro.config import PipelineConfig, default_config
from repro.core.locator import CryptoLocator
from repro.evaluation.hits import HitStats, match_hits
from repro.soc.platform import SessionTrace, SimulatedPlatform

__all__ = [
    "SegmentationOutcome",
    "train_locator",
    "run_segmentation_scenario",
    "run_baseline_scenario",
    "aligned_attack_set",
    "run_cpa_scenario",
    "default_tolerance",
]


def default_tolerance(config: PipelineConfig) -> int:
    """Hit tolerance used across experiments.

    The paper's segmentation resolves CO starts to one stride (s = 1000
    samples on a 220 k-sample AES, i.e. ~0.5 % of the CO); a located start
    is "correct" when it identifies the CO well enough for alignment plus
    the CPA's time aggregation to absorb the residual offset.  Half an
    inference window (and never less than three strides) matches that
    regime at this reproduction's scale.
    """
    return max(3 * config.stride, config.n_inf // 2)


@dataclass
class SegmentationOutcome:
    """Everything a segmentation scenario produced."""

    stats: HitStats
    session: SessionTrace
    located: np.ndarray
    config: PipelineConfig


def train_locator(
    cipher: str,
    max_delay: int,
    seed: int = 0,
    dataset_scale: float = 1 / 64,
    config: PipelineConfig | None = None,
    noise_ops: int = 60_000,
    verbose: bool = False,
    batch_size: int | None = None,
) -> tuple[CryptoLocator, SimulatedPlatform]:
    """Profile a clone platform and train a locator for one condition.

    Returns the fitted locator and the clone platform (whose seed differs
    from any attack platform derived later).  ``batch_size`` bounds the
    profiling-capture batches (results are chunking-invariant).
    """
    config = config if config is not None else default_config(cipher, dataset_scale)
    clone = SimulatedPlatform(cipher, max_delay=max_delay, seed=seed)
    locator = CryptoLocator(config, seed=seed + 1)
    locator.fit_from_platform(clone, noise_ops=noise_ops, verbose=verbose,
                              batch_size=batch_size)
    return locator, clone


def run_segmentation_scenario(
    locator: CryptoLocator,
    cipher: str,
    max_delay: int,
    noise_interleaved: bool,
    n_cos: int = 64,
    seed: int = 1000,
    tolerance: int | None = None,
) -> SegmentationOutcome:
    """Capture an attack session and score the locator's hits."""
    target = SimulatedPlatform(cipher, max_delay=max_delay, seed=seed)
    session = target.capture_session_trace(n_cos, noise_interleaved=noise_interleaved)
    located = locator.locate(session.trace)
    tol = tolerance if tolerance is not None else default_tolerance(locator.config)
    stats = match_hits(located, session.true_starts, tol)
    return SegmentationOutcome(
        stats=stats, session=session, located=located, config=locator.config
    )


def run_baseline_scenario(
    baseline,
    cipher: str,
    max_delay: int,
    noise_interleaved: bool,
    tolerance: int,
    n_cos: int = 64,
    seed: int = 1000,
) -> tuple[HitStats, SessionTrace, np.ndarray]:
    """Score a fitted baseline locator on an attack session.

    ``baseline`` is any object with ``locate(trace) -> starts`` (the
    matched-filter or semi-automatic locator, already fitted on profiling
    captures).
    """
    target = SimulatedPlatform(cipher, max_delay=max_delay, seed=seed)
    session = target.capture_session_trace(n_cos, noise_interleaved=noise_interleaved)
    located = baseline.locate(session.trace)
    stats = match_hits(located, session.true_starts, tolerance)
    return stats, session, located


def aligned_attack_set(
    locator: CryptoLocator,
    session: SessionTrace,
    located: np.ndarray,
    segment_length: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned segments of the located COs, each with its plaintext.

    Associates each kept detection with the plaintext of the nearest true
    CO (the attacker knows the I/O order, so in practice the association
    is positional; using the nearest true start keeps the bookkeeping
    honest when there are false positives).  Returns ``(segments,
    plaintexts)`` with one ``(16,)`` plaintext row per segment.
    """
    segments, kept = locator.align(
        session.trace, starts=located, length=segment_length
    )
    located_kept = np.asarray(located)[kept]
    nearest = np.abs(
        located_kept[:, None] - session.true_starts[None, :]
    ).argmin(axis=1)
    plaintexts = np.frombuffer(
        b"".join(session.plaintexts[i] for i in nearest), dtype=np.uint8
    ).reshape(-1, 16)
    return segments, plaintexts


def run_cpa_scenario(
    locator: CryptoLocator,
    session: SessionTrace,
    located: np.ndarray,
    aggregate: int = 64,
    segment_length: int | None = None,
    checkpoints: list[int] | None = None,
    distinguisher=None,
) -> int | None:
    """Mount the CPA of Section IV-C on the located-and-aligned COs.

    Returns the traces-to-rank-1 count over the
    :func:`aligned_attack_set`, or ``None`` on failure — Table II's CPA
    column.  ``distinguisher`` swaps the default HW CPA for any registered
    distinguisher (see :func:`repro.attacks.traces_to_rank1`).
    """
    if located.size < 8:
        return None
    segments, plaintexts = aligned_attack_set(
        locator, session, located, segment_length
    )
    if segments.shape[0] < 8:
        return None
    return traces_to_rank1(
        segments,
        plaintexts,
        session.key,
        checkpoints=checkpoints,
        aggregate=aggregate,
        distinguisher=distinguisher,
    )

"""Key-rank evaluation: the "N. COs to reach rank 1" metric of Table II."""

from __future__ import annotations

import numpy as np

__all__ = [
    "key_byte_rank",
    "full_key_ranks",
    "traces_to_rank1",
    "geometric_checkpoints",
    "next_checkpoint",
    "MIN_CPA_TRACES",
]

#: Smallest trace count a CPA correlation is defined for.
MIN_CPA_TRACES = 3


def key_byte_rank(guess_scores: np.ndarray, true_byte: int) -> int:
    """Rank of the true byte among the guesses (1 = best, 256 = worst).

    Ties are pessimistic: guesses scoring equal to the true byte count
    against it, so rank 1 means *strictly* no better-or-equal competitor.
    """
    guess_scores = np.asarray(guess_scores, dtype=np.float64)
    if guess_scores.shape != (256,):
        raise ValueError(f"expected 256 guess scores, got {guess_scores.shape}")
    if not 0 <= true_byte <= 255:
        raise ValueError("true_byte must be a byte value")
    better = int((guess_scores > guess_scores[true_byte]).sum())
    ties = int((guess_scores == guess_scores[true_byte]).sum()) - 1
    return better + ties + 1


def full_key_ranks(
    traces: np.ndarray,
    plaintexts: np.ndarray,
    true_key: bytes,
    aggregate: int = 1,
) -> list[int]:
    """Per-byte ranks of the true key after a one-shot HW CPA over the set.

    The key width is derived from the plaintext matrix, so any block size
    the CPA's per-byte S-box model covers works here.
    """
    from repro.attacks.distinguishers import CpaDistinguisher

    attack = CpaDistinguisher(aggregate=aggregate).batch(traces, plaintexts)
    return attack.key_ranks(true_key)


def traces_to_rank1(
    traces: np.ndarray,
    plaintexts: np.ndarray,
    true_key: bytes,
    checkpoints: list[int] | None = None,
    aggregate: int = 1,
    distinguisher=None,
) -> int | None:
    """Smallest checkpoint at which *every* key byte reaches rank 1.

    This is the paper's Table II metric: the number of CO executions needed
    before the CPA ranks the correct value first for all 16 key bytes.
    Returns ``None`` when no checkpoint succeeds (the paper's "✗").

    Caller-supplied checkpoints are deduplicated and filtered below the CPA
    minimum (:data:`MIN_CPA_TRACES`), so irregular ladders are accepted
    as-is.

    The ladder is walked with one incremental accumulator: each trace is
    folded in exactly once, and ranks are read at every checkpoint.
    ``distinguisher`` picks the statistic — ``None`` for the Hamming-weight
    CPA with the given ``aggregate``, or a registry name, a
    :class:`~repro.attacks.distinguishers.DistinguisherSpec` or a fresh
    accumulator.
    """
    from repro.attacks.distinguishers import resolve_distinguisher

    traces = np.asarray(traces)
    n = traces.shape[0]
    if checkpoints is None:
        points = geometric_checkpoints(n)
    else:
        points = sorted(
            {int(c) for c in checkpoints if int(c) >= MIN_CPA_TRACES}
        )
    _, accumulator = resolve_distinguisher(distinguisher, aggregate=aggregate)
    done = 0
    for count in points:
        if count > n:
            break
        accumulator.update(traces[done:count], plaintexts[done:count])
        done = count
        if done < accumulator.min_traces:
            continue
        if all(rank == 1 for rank in accumulator.key_ranks(true_key)):
            return count
    return None


def geometric_checkpoints(
    n: int, first: int = 25, growth: float = 1.5
) -> list[int]:
    """Geometric checkpoint ladder over ``[max(first, 3), n]``.

    Strictly increasing (no duplicates), never below the CPA minimum of
    :data:`MIN_CPA_TRACES` traces, and always ending at ``n`` when ``n``
    itself is attackable.  Shared by :func:`traces_to_rank1` and the
    streaming campaign's checkpoint schedule.
    """
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    n = int(n)
    points: list[int] = []
    value = max(int(first), MIN_CPA_TRACES)
    while value < n:
        points.append(value)
        value = _step(value, growth)
    if n >= MIN_CPA_TRACES:
        points.append(n)
    return points


def next_checkpoint(n: int, first: int = 25, growth: float = 1.5) -> int:
    """First :func:`geometric_checkpoints` ladder value strictly above ``n``.

    The open-ended form of the ladder, for callers (the streaming
    campaign) that do not know their final trace count up front.
    """
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    value = max(int(first), MIN_CPA_TRACES)
    while value <= n:
        value = _step(value, growth)
    return value


def _step(value: int, growth: float) -> int:
    """One ladder step: geometric, but always strictly increasing."""
    return max(int(value * growth), value + 1)

"""The shard body of the sharded TVLA campaign.

:class:`~repro.evaluation.tvla.TvlaCampaign` cuts the per-population
budget into fixed shards and dispatches :func:`run_tvla_shard` once per
shard through :func:`~repro.runtime.parallel.run_shards`.  A shard is
self-contained: it rebuilds its two platforms from the shard's spawned
child seed, resumes its own ``shard-NNNNNN`` trace store through
:func:`~repro.runtime.campaign.resume_store` (quarantining corrupt
tails, replaying at most ``shard.count`` traces per population), and
captures the remainder through :func:`~repro.runtime.campaign.capture_into`
in interleaved fixed/random rounds.  The campaign-wide key, fixed
plaintext and segment length arrive pre-derived, so shards cannot drift
apart on derived configuration.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.assessment import TVLA_THRESHOLD
from repro.campaign import TraceStore
from repro.evaluation.tvla import TvlaCampaign, WelchTAccumulator, tvla_store_meta
from repro.runtime.campaign import (
    PlatformSegmentSource,
    capture_into,
    resume_store,
)
from repro.runtime.parallel import ShardResult, ShardSpec, recover_shard_store
from repro.soc.platform import PlatformSpec

__all__ = ["ParallelTvlaCampaign", "run_tvla_shard"]

#: The campaign's former sharded-only name.  perfbench's probes wrap this
#: name's ``__init__`` and ``run``; drop it with them.
ParallelTvlaCampaign = TvlaCampaign


def run_tvla_shard(
    spec: PlatformSpec,
    shard: ShardSpec,
    fixed_plaintext: bytes,
    key: bytes,
    segment_length: int,
    store_root=None,
    batch_size: int = 256,
    nop_header: int = 96,
    threshold: float = TVLA_THRESHOLD,
    fault_plan=None,
) -> ShardResult:
    """Capture (or resume) one shard's fixed and random populations.

    The two populations are captured on platforms seeded with the first
    two children of the shard's seed sequence, in alternating
    ``batch_size`` rounds (the interleaved acquisition the TVLA
    methodology prescribes to decorrelate environmental drift — inert in
    simulation but kept for fidelity).  ``fault_plan`` is the chaos-test
    hook, fired before every capture batch.
    """
    accumulator = WelchTAccumulator(threshold=threshold)
    fixed_row = np.frombuffer(fixed_plaintext, dtype=np.uint8)

    def fold(traces, plaintexts) -> None:
        # File traces by plaintext, each population capped at the shard's
        # quota: a store captured under a larger budget replays only this
        # shard's prefix (the stream is interleaved in capture order).
        is_fixed = np.all(np.asarray(plaintexts) == fixed_row, axis=1)
        for group, mask, have in (("fixed", is_fixed, accumulator.n_fixed),
                                  ("random", ~is_fixed, accumulator.n_random)):
            room = shard.count - have
            if room > 0 and mask.any():
                chunk = traces if mask.all() else np.asarray(traces)[mask]
                accumulator.update(group, chunk[:room])

    store = None
    quarantined = 0
    if store_root is not None:
        store_dir, quarantined = recover_shard_store(store_root, shard.index)
        sequence = shard.seed_sequence
        store = TraceStore.open_or_create(
            store_dir,
            n_samples=segment_length,
            block_size=len(fixed_plaintext),
            key=key,
            meta={
                **tvla_store_meta(spec, fixed_plaintext),
                "seed": {"entropy": int(sequence.entropy),
                         "spawn_key": [int(w) for w in sequence.spawn_key]},
            },
        )
        quarantined += resume_store(store, fold, batch_size)[1]
    replayed = accumulator.n_traces
    capture_seconds = 0.0
    if accumulator.n_fixed < shard.count or accumulator.n_random < shard.count:
        sources = {}
        for group, seed in zip(("fixed", "random"),
                               shard.seed_sequence.spawn(3)[:2]):
            sources[group] = PlatformSegmentSource(
                spec.build(seed), key=key, segment_length=segment_length,
                nop_header=nop_header, batch_size=batch_size,
                plaintext=fixed_plaintext if group == "fixed" else None,
            )
        # Each platform's randomness is one seeded stream in capture
        # order; skipping re-draws the replayed captures to continue it.
        sources["fixed"].skip(accumulator.n_fixed)
        sources["random"].skip(accumulator.n_random)

        def before_batch() -> None:
            if fault_plan is not None:
                fault_plan.maybe_fire(
                    shard.index, done=accumulator.n_traces, store=store
                )

        while (accumulator.n_fixed < shard.count
               or accumulator.n_random < shard.count):
            for group, have in (("fixed", accumulator.n_fixed),
                                ("random", accumulator.n_random)):
                capture_seconds += capture_into(
                    sources[group], fold, min(batch_size, shard.count - have),
                    batch_size, store, before_batch,
                )
    return ShardResult(
        index=shard.index,
        accumulator=accumulator,
        replayed=replayed,
        capture_seconds=capture_seconds,
        quarantined=quarantined,
    )

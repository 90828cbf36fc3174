#!/usr/bin/env python
"""Parallel sharded campaign: spawn-seeded shards, mergeable accumulators.

Demonstrates the process-parallel campaign layer end to end:

1. a campaign's trace budget is cut into deterministically seeded shards
   (:func:`~repro.runtime.parallel.plan_shards`) and fanned out over a
   process pool; each worker captures its shard on its own platform,
   accumulates it into a
   :class:`~repro.attacks.distinguishers.CpaDistinguisher`, and persists
   it to its own trace-store shard directory;
2. the parent merges the workers' sufficient statistics at every
   shard-aligned checkpoint — ``merge`` is exact algebra, so the merged
   campaign reports the *same key ranks* as a serial campaign over the
   same sharded stream, which the example verifies;
3. the run is then interrupted and *resumed* over the same store root:
   finished shards replay from disk, unfinished ones fast-forward and
   keep capturing, and the final statistics match an uninterrupted run.

The trace multiset depends only on (seed, shard size), never on the
worker count — add cores, not uncertainty.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.evaluation import format_campaign
from repro.runtime import (
    AttackCampaign,
    ParallelCampaign,
    PlatformCampaignSpec,
)
from repro.soc import SimulatedPlatform
from repro.soc.platform import PlatformSpec


def build_spec(seed: int) -> PlatformCampaignSpec:
    """Resolve the campaign-wide key and segment length once."""
    probe = SimulatedPlatform("aes", max_delay=0, seed=seed)
    return PlatformCampaignSpec(
        platform=PlatformSpec(cipher_name="aes", max_delay=0),
        key=probe.random_key(),
        segment_length=1600,
        batch_size=128,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=768)
    parser.add_argument("--interrupt-at", type=int, default=256,
                        help="budget of the interrupted first run")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shard-size", type=int, default=128)
    parser.add_argument("--aggregate", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    spec = build_spec(args.seed)
    kwargs = dict(
        shard_size=args.shard_size, aggregate=args.aggregate,
        first_checkpoint=128, rank1_patience=2, batch_size=128,
    )

    with tempfile.TemporaryDirectory() as root:
        store_root = Path(root) / "shards"

        print(f"[1/3] parallel campaign ({args.workers} workers), "
              f"interrupted at {args.interrupt_at} traces ...")
        first = ParallelCampaign(
            spec, seed=args.seed, workers=args.workers,
            store_root=store_root, **kwargs,
        )
        partial = first.run(args.interrupt_at)
        print(f"      {partial.summary()}")
        shard_dirs = sorted(store_root.glob("shard-*"))
        print(f"      {len(shard_dirs)} shard stores on disk: "
              f"{[d.name for d in shard_dirs]}")

        print("[2/3] resuming over the same store root ...")
        resumed = ParallelCampaign(
            spec, seed=args.seed, workers=args.workers,
            store_root=store_root, **kwargs,
        )
        result = resumed.run(args.traces, verbose=True)
        print()
        print(format_campaign(result))
        print()
        print(f"true key      : {result.true_key.hex()}")
        print(f"recovered key : {result.recovered_key.hex()}")
        assert result.key_recovered, "campaign should recover the key at RD-0"

        print("[3/3] cross-checking against a serial campaign over the "
              "identical sharded stream ...")
        serial = AttackCampaign(
            resumed.sharded_source(),
            checkpoints=resumed.checkpoints(args.traces),
            aggregate=args.aggregate, rank1_patience=2, batch_size=128,
        )
        reference = serial.run(args.traces)
        shared = min(len(result.records), len(reference.records))
        for mine, theirs in zip(result.records[:shared],
                                reference.records[:shared]):
            assert mine.ranks == theirs.ranks, (mine, theirs)
        print(f"      per-byte ranks identical at all {shared} shared "
              f"checkpoints — merging loses nothing")


if __name__ == "__main__":
    main()

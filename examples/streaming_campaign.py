#!/usr/bin/env python
"""Streaming attack campaign: capture → store → online CPA → early stop.

Demonstrates the campaign subsystem end to end on the simulated platform:

1. a fixed-key campaign streams capture batches into a constant-memory
   :class:`~repro.attacks.distinguishers.CpaDistinguisher` and an on-disk
   :class:`~repro.campaign.store.TraceStore`, evaluating key ranks at
   geometric checkpoints and stopping early once every byte holds rank 1;
2. the process then "crashes" (we simply build a new campaign object) and
   *resumes* from the half-written store — the persisted chunks are
   replayed into a fresh accumulator and capture continues where the
   store left off;
3. the recovered key is compared against a one-shot CPA over the store's
   full contents, showing the streamed statistics match a single batch.

Memory never grows with the trace count: a million-trace campaign holds
the same sufficient statistics as this small one.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.attacks.distinguishers import CpaDistinguisher
from repro.campaign import TraceStore
from repro.evaluation import format_campaign
from repro.runtime import AttackCampaign, PlatformSegmentSource
from repro.soc import SimulatedPlatform


def build_campaign(store_dir: Path, seed: int, aggregate: int) -> AttackCampaign:
    """A fresh campaign over (possibly pre-existing) durable storage."""
    platform = SimulatedPlatform("aes", max_delay=0, seed=seed)
    source = PlatformSegmentSource(platform, segment_length=1600)
    store = TraceStore.open_or_create(
        store_dir, n_samples=source.n_samples,
        block_size=source.block_size, key=source.true_key,
    )
    return AttackCampaign(
        source, store=store, aggregate=aggregate, rank1_patience=2
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=600,
                        help="total trace budget")
    parser.add_argument("--interrupt-at", type=int, default=120,
                        help="traces captured before the simulated crash")
    parser.add_argument("--aggregate", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root) / "campaign_store"

        print(f"[1/3] campaign interrupted after {args.interrupt_at} traces ...")
        first = build_campaign(store_dir, args.seed, args.aggregate)
        partial = first.run(args.interrupt_at)
        print(f"      {partial.summary()}")
        del first  # the "crash": only the on-disk store survives

        print(f"[2/3] resuming from the store and finishing the attack ...")
        resumed = build_campaign(store_dir, args.seed, args.aggregate)
        print(f"      replayed {resumed.resumed_from} stored traces")
        result = resumed.run(args.traces, verbose=True)
        print()
        print(format_campaign(result))
        print()
        print(f"true key      : {result.true_key.hex()}")
        print(f"recovered key : {result.recovered_key.hex()}")
        assert result.key_recovered, "campaign should recover the key at RD-0"

        print("[3/3] cross-checking the streaming statistics against the "
              "batch CPA ...")
        store = TraceStore.open(store_dir)
        traces, plaintexts = store.load()
        batch_key = CpaDistinguisher(aggregate=args.aggregate).batch(
            traces, plaintexts
        ).recovered_key()
        assert batch_key == result.recovered_key
        print(f"      batch CPA over all {len(store)} stored traces agrees: "
              f"{batch_key.hex()}")


if __name__ == "__main__":
    main()

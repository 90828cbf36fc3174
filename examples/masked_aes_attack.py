#!/usr/bin/env python
"""Breaking masked AES: first-order CPA fails, second-order CPA wins.

The repository ships a first-order boolean-masked AES
(:mod:`repro.ciphers.masked_aes`): every sensitive intermediate is split
into two shares under fresh per-encryption masks, so **no single trace
sample** correlates with unmasked data and the classic CPA/DPA stay at
chance level forever.

This example mounts both sides of that story on the simulated platform:

1. a first-order Hamming-weight CPA over a healthy trace budget —
   recovering (essentially) zero key bytes;
2. the second-order **centred-product CPA**
   (:class:`~repro.attacks.distinguishers.SecondOrderCpa`): the
   AddRoundKey-0 output ``pt ^ k ^ m_out`` and the round-1 SubBytes
   output ``SBOX[pt ^ k] ^ m_out`` are masked by the *same* ``m_out``,
   so the product of their centred leakages co-varies with
   ``HW((pt ^ k) ^ SBOX[pt ^ k])`` — the ``hd`` leakage model — and the
   full 16-byte key falls out of a streaming campaign;
3. the same attack fanned over a sharded parallel campaign, reporting
   identical checkpoint ranks (merge exactness is distinguisher-agnostic).

The two sample windows are derived from the masked cipher's deterministic
RD-0 operation layout by
:func:`~repro.attacks.distinguishers.masked_aes_windows`.
"""

from __future__ import annotations

import argparse

from repro.attacks.distinguishers import (
    CpaDistinguisher,
    DistinguisherSpec,
    masked_aes_windows,
)
from repro.evaluation import format_campaign
from repro.runtime import AttackCampaign, ParallelCampaign, PlatformCampaignSpec, PlatformSegmentSource
from repro.soc import SimulatedPlatform
from repro.soc.platform import PlatformSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=2400,
                        help="trace budget for every attack")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--workers", type=int, default=2,
                        help="workers for the parallel rerun")
    args = parser.parse_args()

    window1, window2 = masked_aes_windows()
    segment_length = window2[1] + 16
    spec = DistinguisherSpec(name="cpa2", window1=window1, window2=window2)

    platform = SimulatedPlatform("aes_masked", max_delay=0, seed=args.seed)
    key = platform.random_key()
    print(f"masked AES target, key {key.hex()}")
    print(f"second-order windows: {window1} x {window2} "
          f"(AddRoundKey-0 x SubBytes-1)\n")

    # -- 1. first-order CPA: chance level ------------------------------- #
    traces, pts = platform.capture_attack_segments(
        args.traces, key=key, segment_length=segment_length
    )
    recovered = CpaDistinguisher().batch(traces, pts).recovered_key()
    correct = sum(a == b for a, b in zip(recovered, key))
    print(f"first-order CPA over {args.traces} traces: "
          f"{correct}/16 key bytes (masking holds)")

    # -- 2. streaming second-order campaign ----------------------------- #
    source = PlatformSegmentSource(
        SimulatedPlatform("aes_masked", max_delay=0, seed=args.seed + 1),
        key=key, segment_length=segment_length,
    )
    campaign = AttackCampaign(
        source, first_checkpoint=600, rank1_patience=1, distinguisher=spec,
    )
    result = campaign.run(args.traces)
    print()
    print(format_campaign(result))
    print(f"second-order CPA: recovered {result.recovered_key.hex()} "
          f"({'full key' if result.key_recovered else 'incomplete'})")

    # -- 3. the same attack, sharded over a process pool ---------------- #
    parallel = ParallelCampaign(
        PlatformCampaignSpec(
            platform=PlatformSpec(cipher_name="aes_masked", max_delay=0),
            key=key, segment_length=segment_length,
        ),
        seed=args.seed + 2, workers=args.workers, shard_size=600,
        rank1_patience=1, distinguisher=spec,
    )
    p_result = parallel.run(args.traces)
    print(f"\nparallel x{args.workers}: rank 1 at "
          f"{p_result.traces_to_rank1} traces, recovered "
          f"{p_result.recovered_key.hex()}")
    return 0 if result.key_recovered and p_result.key_recovered else 1


if __name__ == "__main__":
    raise SystemExit(main())

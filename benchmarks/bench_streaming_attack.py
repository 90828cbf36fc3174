#!/usr/bin/env python
"""Streaming attack throughput: rank evaluation, store, capture modes.

The Table-II metric ("N. COs to reach rank 1") needs key ranks at a ladder
of trace-count checkpoints.  :func:`repro.attacks.key_rank.traces_to_rank1`
walks that ladder with one streaming
:class:`~repro.attacks.distinguishers.CpaDistinguisher`, folding each trace
in once and recovering the correlation matrix from sufficient statistics
at every checkpoint.  This benchmark measures that ladder's throughput,
verifies its final ranks against a one-shot CPA over all traces, and also
reports TraceStore append / replay throughput.

It additionally measures the **capture modes** end to end: one seeded
RD-0 platform campaign run twice — ``exact`` (bit-identical per-trace
randomness) vs ``fast`` (bulk randomness + windowed segment synthesis) —
verifying both recover the true key and reporting the wall-clock ratio.
A second capture-mode case repeats the comparison under **random delays**
(RD-2, reduced two-byte key): since the windowed fast path maps the
attacked window through each trace's delay plan, it synthesises only the
shifted window instead of the whole countermeasure-stretched trace, and
the benchmark verifies both modes still recover the identical (true)
reduced key.

Besides the printed tables the benchmark writes
``BENCH_streaming_attack.json`` (override with ``--output``) so CI can
track the perf trajectory machine-readably against the committed
baseline.

Run directly (CI runs ``--quick``):

    PYTHONPATH=src python benchmarks/bench_streaming_attack.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.attacks import full_key_ranks, geometric_checkpoints
from repro.attacks.distinguishers import CpaDistinguisher
from repro.attacks.leakage_models import hw_byte
from repro.campaign import TraceStore
from repro.ciphers.aes import SBOX
from repro.evaluation import format_table

_SBOX = np.asarray(SBOX, dtype=np.uint8)


def synthetic_traces(
    rng: np.random.Generator, n: int, samples: int, key: bytes, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """HW(SBOX[pt ^ k]) leakage at one sample position per key byte."""
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    traces = rng.normal(0.0, noise, (n, samples))
    for b in range(16):
        traces[:, (2 * b) % samples] += hw_byte(_SBOX[pts[:, b] ^ key[b]])
    return traces, pts


def bench_capture_modes(
    budget: int, segment_length: int = 600
) -> tuple[list[list[str]], dict]:
    """One seeded RD-0 campaign in each capture mode: wall clock + keys.

    The campaign captures the attacked window (the prologue through the
    first-round S-box, where the windowed fast path pays off exactly like
    a triggered scope) and ranks once at the full budget, so the measured
    wall clock isolates the capture + accumulate pipeline the modes
    differ in rather than the mode-independent checkpoint evaluations
    (reported separately by ``bench_distinguishers``).
    """
    from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
    from repro.soc.platform import SimulatedPlatform

    key = bytes(range(16))
    measured = {}
    for mode in ("exact", "fast"):
        platform = SimulatedPlatform(
            "aes", max_delay=0, seed=42, capture_mode=mode
        )
        source = PlatformSegmentSource(
            platform, key=key, segment_length=segment_length
        )
        campaign = AttackCampaign(
            source, aggregate=8, batch_size=256, checkpoints=[budget],
        )
        begin = time.perf_counter()
        result = campaign.run(budget)
        seconds = time.perf_counter() - begin
        if result.recovered_key != key:
            raise AssertionError(f"{mode} campaign failed to recover the key")
        measured[mode] = {
            "seconds": seconds,
            "traces_per_s": budget / seconds,
            "capture_seconds": result.capture_seconds,
            "attack_seconds": result.attack_seconds,
            "recovered": True,
        }
    speedup = measured["exact"]["seconds"] / measured["fast"]["seconds"]
    measured["speedup"] = speedup
    measured["traces"] = budget
    rows = [
        [f"campaign {mode} mode", "-", f"{budget}",
         f"{measured[mode]['seconds']:7.3f}",
         f"{measured[mode]['traces_per_s']:6.0f}/s"]
        for mode in ("exact", "fast")
    ]
    return rows, measured


def bench_capture_modes_rd2(
    budget: int,
    max_delay: int = 2,
    attack_bytes: int = 2,
    segment_length: int = 1200,
) -> tuple[list[list[str]], dict]:
    """The capture-mode comparison under random delays (reduced key).

    RD>0 is where the windowed fast path earns its keep: the exact mode
    must synthesise every countermeasure-stretched trace in full, while
    the fast mode maps the attacked window through each trace's delay
    plan and synthesises only the shifted window.  Random delays smear
    the S-box leakage across neighbouring samples, so convergence needs a
    heavier aggregate, a window long enough to keep the delayed first
    round in view, and more traces than the RD-0 case; the reduced
    two-byte key bounds the rank-evaluation cost so wall clock stays
    capture-dominated.  Both modes must recover the identical true
    reduced key.
    """
    from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
    from repro.runtime.parallel import ReducedKeySource
    from repro.soc.platform import SimulatedPlatform

    key = bytes(range(16))
    measured = {}
    for mode in ("exact", "fast"):
        platform = SimulatedPlatform(
            "aes", max_delay=max_delay, seed=42, capture_mode=mode
        )
        source = ReducedKeySource(
            PlatformSegmentSource(
                platform, key=key, segment_length=segment_length
            ),
            attack_bytes,
        )
        campaign = AttackCampaign(
            source, aggregate=64, batch_size=256, checkpoints=[budget],
        )
        begin = time.perf_counter()
        result = campaign.run(budget)
        seconds = time.perf_counter() - begin
        if result.recovered_key != key[:attack_bytes]:
            raise AssertionError(
                f"RD-{max_delay} {mode} campaign recovered "
                f"{result.recovered_key.hex()} instead of the true reduced "
                f"key {key[:attack_bytes].hex()}"
            )
        measured[mode] = {
            "seconds": seconds,
            "traces_per_s": budget / seconds,
            "capture_seconds": result.capture_seconds,
            "attack_seconds": result.attack_seconds,
            "recovered": True,
        }
    measured["speedup"] = (
        measured["exact"]["seconds"] / measured["fast"]["seconds"]
    )
    measured["traces"] = budget
    measured["max_delay"] = max_delay
    measured["attack_bytes"] = attack_bytes
    measured["segment_length"] = segment_length
    rows = [
        [f"RD-{max_delay} campaign {mode} mode", "-", f"{budget}",
         f"{measured[mode]['seconds']:7.3f}",
         f"{measured[mode]['traces_per_s']:6.0f}/s"]
        for mode in ("exact", "fast")
    ]
    return rows, measured


def bench_fault_tolerance(
    budget: int, shard_size: int | None = None
) -> tuple[list[list[str]], dict]:
    """What the fault-tolerance layer costs a fault-free run.

    The fault-tolerant :class:`~repro.runtime.parallel.ParallelCampaign`
    at ``workers=1`` (inline ShardExecutor dispatch, retry accounting, no
    journal) races a bare loop over the identical shard plan — direct
    ``run_shard`` calls merged and rank-evaluated at the same
    shard-aligned ladder.  Both paths produce bit-identical checkpoint
    ranks (verified), so the ratio isolates the retry layer's overhead;
    the campaign gate is that it stays within a few percent.
    """
    from repro.runtime import ParallelCampaign, PlatformCampaignSpec
    from repro.runtime.campaign import evaluate_checkpoint
    from repro.runtime.parallel import plan_shards, run_shard
    from repro.soc.platform import PlatformSpec, SimulatedPlatform

    if shard_size is None:
        shard_size = max(256, budget // 8)
    probe = SimulatedPlatform("aes", max_delay=0, seed=7)
    spec = PlatformCampaignSpec(
        platform=PlatformSpec(cipher_name="aes", max_delay=0),
        key=probe.random_key(),
        segment_length=probe.mean_co_samples(),
        batch_size=256,
        attack_bytes=2,
    )
    campaign = ParallelCampaign(
        spec, seed=7, workers=1, shard_size=shard_size,
        aggregate=8, rank1_patience=1000, batch_size=256,
    )
    ladder = campaign.checkpoints(budget)
    shards = plan_shards(7, budget, shard_size)
    dist_spec = campaign.distinguisher_spec

    # Warm the synthesis caches once so neither timed path pays them.
    run_shard(spec, shards[0], None, 8, 256, dist_spec)

    begin = time.perf_counter()
    accumulator = dist_spec.build()
    bare_records = []
    merged = 0
    for target in ladder:
        needed = -(-target // shard_size)            # ceil
        for shard in shards[merged:needed]:
            result = run_shard(spec, shard, None, 8, 256, dist_spec)
            accumulator.merge(result.accumulator)
        merged = max(merged, needed)
        bare_records.append(
            evaluate_checkpoint(
                accumulator, spec.true_key, accumulator.n_traces
            )
        )
    bare_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    layered = campaign.run(budget)
    layered_seconds = time.perf_counter() - begin

    for mine, theirs in zip(layered.records, bare_records):
        if mine.n_traces != theirs.n_traces or mine.ranks != theirs.ranks:
            raise AssertionError(
                f"fault-tolerant dispatch diverged at {mine.n_traces} "
                f"traces: {mine.ranks} != {theirs.ranks}"
            )
    if layered.retries or layered.partial:
        raise AssertionError("fault-free run reported retries or partial")

    overhead = layered_seconds / max(bare_seconds, 1e-9)
    rows = [
        ["bare shard loop", f"{len(ladder)}", f"{budget}",
         f"{bare_seconds:7.3f}", f"{budget / bare_seconds:6.0f}/s"],
        ["fault-tolerant campaign", f"{len(ladder)}", f"{budget}",
         f"{layered_seconds:7.3f}", f"{budget / layered_seconds:6.0f}/s"],
    ]
    stats = {
        "bare_seconds": bare_seconds,
        "layered_seconds": layered_seconds,
        "overhead_ratio": overhead,
        "bare_traces_per_s": budget / max(bare_seconds, 1e-9),
        "layered_traces_per_s": budget / max(layered_seconds, 1e-9),
        "traces": budget,
        "shards": len(shards),
    }
    return rows, stats


def _rank_ladder(
    traces: np.ndarray, pts: np.ndarray, key: bytes, checkpoints: list[int]
) -> list[int]:
    """Fold each rung's new traces into one accumulator; final ranks."""
    acc = CpaDistinguisher()
    done = 0
    for c in checkpoints:
        acc.update(traces[done:c], pts[done:c])
        done = c
        ranks = acc.key_ranks(key)
    return ranks


def bench_rank_evaluation(
    traces: np.ndarray, pts: np.ndarray, key: bytes
) -> tuple[list[list[str]], dict]:
    """Time the streaming rank ladder; check it against a one-shot CPA."""
    n = traces.shape[0]
    checkpoints = geometric_checkpoints(n)
    _rank_ladder(traces, pts, key, checkpoints)     # untimed warm-up pass

    begin = time.perf_counter()
    ranks = _rank_ladder(traces, pts, key, checkpoints)
    t_stream = time.perf_counter() - begin

    if ranks != full_key_ranks(traces, pts, key):
        raise AssertionError(
            f"streamed ranks {ranks} differ from a one-shot CPA over all "
            f"{n} traces"
        )
    rate = n / max(t_stream, 1e-9)
    rows = [
        ["streaming rank ladder", f"{len(checkpoints)}", f"{n}",
         f"{t_stream:7.3f}", f"{rate:6.0f}/s"],
    ]
    stats = {
        "streaming_seconds": t_stream,
        "streaming_traces_per_s": rate,
        "checkpoints": len(checkpoints),
    }
    return rows, stats


def bench_store(traces: np.ndarray, pts: np.ndarray) -> tuple[list[list[str]], dict]:
    """TraceStore append + memory-mapped replay throughput."""
    n = traces.shape[0]
    chunk = 512
    with tempfile.TemporaryDirectory() as root:
        store = TraceStore.create(
            root, n_samples=traces.shape[1], block_size=16
        )
        begin = time.perf_counter()
        for i in range(0, n, chunk):
            store.append(traces[i:i + chunk], pts[i:i + chunk])
        t_append = time.perf_counter() - begin
        begin = time.perf_counter()
        acc = CpaDistinguisher()
        for t, p in TraceStore.open(root).iter_chunks(chunk):
            acc.update(t, p)
        t_replay = time.perf_counter() - begin
        assert acc.n_traces == n
        mb = store.nbytes() / 1e6
    rows = [
        ["store append", "-", f"{n}", f"{t_append:7.3f}",
         f"{n / t_append:6.0f}/s"],
        [f"store replay ({mb:.0f} MB)", "-", f"{n}", f"{t_replay:7.3f}",
         f"{n / t_replay:6.0f}/s"],
    ]
    stats = {
        "append_traces_per_s": n / max(t_append, 1e-9),
        "replay_traces_per_s": n / max(t_replay, 1e-9),
        "megabytes": mb,
    }
    return rows, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--traces", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--min-capture-speedup", type=float, default=None,
                        help="fail below this fast-vs-exact campaign "
                             "speedup (default: 2.0, relaxed to 1.3 with "
                             "--quick for noisy CI runners)")
    parser.add_argument("--campaign-traces", type=int, default=None,
                        help="trace budget of the RD-0 capture-mode campaigns")
    parser.add_argument("--rd2-traces", type=int, default=16_384,
                        help="trace budget of the RD-2 capture-mode "
                             "campaigns (the default is the smallest "
                             "power-of-two budget at which both modes "
                             "converge to the true reduced key)")
    parser.add_argument("--min-rd2-speedup", type=float, default=None,
                        help="fail below this fast-vs-exact RD-2 campaign "
                             "speedup (default: 2.0, relaxed to 1.5 with "
                             "--quick for noisy CI runners)")
    parser.add_argument("--ft-traces", type=int, default=None,
                        help="trace budget of the fault-tolerance overhead "
                             "comparison (default 8192, 2048 with --quick)")
    parser.add_argument("--max-ft-overhead", type=float, default=None,
                        help="fail above this fault-tolerance overhead "
                             "ratio (default: 1.05, relaxed to 1.25 with "
                             "--quick for noisy CI runners)")
    parser.add_argument("--output", default="fresh_BENCH_streaming_attack.json",
                        help="JSON trajectory path; the default is "
                             "gitignored — pass BENCH_streaming_attack.json "
                             "to refresh the committed baseline")
    args = parser.parse_args(argv)

    n = args.traces if args.traces else (4_000 if args.quick else 24_000)
    samples = args.samples if args.samples else (48 if args.quick else 160)
    capture_floor = (
        args.min_capture_speedup if args.min_capture_speedup is not None
        else (1.3 if args.quick else 2.0)
    )
    campaign_traces = args.campaign_traces if args.campaign_traces else (
        1_536 if args.quick else 2_048
    )
    rd2_floor = (
        args.min_rd2_speedup if args.min_rd2_speedup is not None
        else (1.5 if args.quick else 2.0)
    )
    ft_traces = args.ft_traces if args.ft_traces else (
        2_048 if args.quick else 8_192
    )
    ft_ceiling = (
        args.max_ft_overhead if args.max_ft_overhead is not None
        else (1.25 if args.quick else 1.05)
    )

    rng = np.random.default_rng(0xBEEF)
    key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
    traces, pts = synthetic_traces(rng, n, samples, key, noise=2.0)

    rows, rank_stats = bench_rank_evaluation(traces, pts, key)
    store_rows, store_stats = bench_store(traces, pts)
    mode_rows, mode_stats = bench_capture_modes(campaign_traces)
    rd2_rows, rd2_stats = bench_capture_modes_rd2(args.rd2_traces)
    ft_rows, ft_stats = bench_fault_tolerance(ft_traces)
    rows += store_rows + mode_rows + rd2_rows + ft_rows
    print(format_table(
        ["evaluator", "checkpoints", "traces processed", "seconds", "rate"],
        rows,
        title=(f"Streaming attack throughput "
               f"({n} traces x {samples} samples)"),
    ))
    print(f"\nstreamed ladder ranks match a one-shot CPA over all {n} traces")
    print(f"RD-0 campaign fast vs exact capture mode: "
          f"{mode_stats['speedup']:.1f}x wall clock over {campaign_traces} "
          f"traces (floor {capture_floor:.1f}x); identical recovered keys")
    print(f"RD-2 campaign fast vs exact capture mode: "
          f"{rd2_stats['speedup']:.1f}x wall clock over {args.rd2_traces} "
          f"traces (floor {rd2_floor:.1f}x); identical recovered reduced "
          f"keys")
    print(f"fault-tolerance layer overhead on a fault-free run: "
          f"{ft_stats['overhead_ratio']:.2f}x over {ft_traces} traces "
          f"(ceiling {ft_ceiling:.2f}x); checkpoint ranks identical to "
          f"the bare shard loop")

    payload = {
        "benchmark": "streaming_attack",
        "quick": bool(args.quick),
        "traces": n,
        "samples": samples,
        "rank_evaluation": rank_stats,
        "store": store_stats,
        "capture_modes": mode_stats,
        "capture_modes_rd2": rd2_stats,
        "fault_tolerance": ft_stats,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nwrote {args.output}")

    if mode_stats["speedup"] < capture_floor:
        print("FAIL: fast capture mode below the campaign speedup floor",
              file=sys.stderr)
        return 1
    if rd2_stats["speedup"] < rd2_floor:
        print("FAIL: RD-2 fast capture mode below the campaign speedup floor",
              file=sys.stderr)
        return 1
    if ft_stats["overhead_ratio"] > ft_ceiling:
        print("FAIL: fault-tolerance layer overhead above the ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

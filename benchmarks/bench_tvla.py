#!/usr/bin/env python
"""Countermeasure-matrix evaluation benchmark: TVLA verdicts + GE curves.

Two halves, mirroring the evaluation subsystem:

* **TVLA grid** — runs the built-in fixed-vs-random matrix (unprotected,
  shuffled, clock-jittered, order-1 and order-2 masked AES) through
  :class:`~repro.evaluation.TvlaCampaign` at its defaults (one inline
  worker) and records, per configuration, the capture+update
  throughput and the verdict
  (``max |t|``, leak or pass).  The hiding rows must LEAK and the
  masking rows must PASS at the benchmark budget — a verdict flip is a
  correctness regression, not just a perf one.
* **guessing-entropy curve** — averages an attack GE curve over
  repetitions via :meth:`ExperimentEngine.run_ge_curve` on the
  unprotected target and records the traces-to-<0.5-bit budget.

A third section measures the **sharded TVLA** path over smaller shards:
the same budget run inline (``workers=1``) and over a process pool,
verifying the merged
t-maps are bit-identical (a mismatch is a correctness failure) and
recording the wall-clock ratio.  The ratio is reported as
``pool_vs_inline_ratio`` — deliberately *not* a ``speedup`` field, so
the baseline gate never punishes a runner with fewer cores than the
baseline host.

Besides the printed table the benchmark writes ``BENCH_tvla.json``
(override with ``--output``) so CI can track the trajectory
machine-readably.

Run directly (CI-sized with ``--quick``):

    PYTHONPATH=src python benchmarks/bench_tvla.py --quick
"""

from __future__ import annotations

import argparse
import json
import time

from repro.evaluation import TvlaCampaign, format_table
from repro.runtime import ExperimentEngine, ScenarioSpec
from repro.soc.platform import PlatformSpec

#: (label, cipher, shuffle, jitter, masking order, must leak).  Random
#: delay is left out of the hiding rows: its cumulative drift de-aligns
#: the naive sample grid, which is the attack pipeline's problem (CO
#: relocation), not TVLA's.
GRID = (
    ("unprotected", "aes", False, 0, 1, True),
    ("shuffled", "aes", True, 0, 1, True),
    ("jittered", "aes", False, 10, 1, True),
    ("masked-o1", "aes_masked", False, 0, 1, False),
    ("masked-o2", "aes_masked", False, 0, 2, False),
)


def bench_tvla(label, cipher, shuffle, jitter, order, n_per_group, seed):
    spec = PlatformSpec(
        cipher_name=cipher, max_delay=0, noise_std=1.0,
        # Jitter resamples whole traces; only the exact path supports it.
        capture_mode="exact" if jitter else "fast",
        shuffle=shuffle, jitter=jitter, masking_order=order,
    )
    campaign = TvlaCampaign(spec, seed=seed, batch_size=256)
    begin = time.perf_counter()
    result = campaign.run(n_per_group)
    seconds = time.perf_counter() - begin
    return {
        "countermeasure": campaign.countermeasure_name,
        "n_per_group": n_per_group,
        "segment_length": campaign.segment_length,
        "max_abs_t": result.max_abs_t,
        "leakage_detected": result.leakage_detected,
        "seconds": seconds,
        "traces_per_s": 2 * n_per_group / seconds,
    }


def bench_parallel_tvla(n_per_group, shard_size, workers, seed):
    """Inline vs pooled sharded TVLA: bit-identical t-maps, wall ratio."""
    import numpy as np

    spec = PlatformSpec(
        cipher_name="aes", max_delay=0, noise_std=1.0, capture_mode="fast"
    )

    def run(n_workers):
        campaign = TvlaCampaign(
            spec, seed=seed, workers=n_workers, shard_size=shard_size,
            batch_size=256,
        )
        begin = time.perf_counter()
        result = campaign.run(n_per_group)
        return result, time.perf_counter() - begin

    inline, inline_s = run(1)
    pooled, pooled_s = run(workers)
    if not np.array_equal(inline.t, pooled.t):
        raise AssertionError(
            f"workers={workers} t-map differs from the inline reference"
        )
    return {
        "n_per_group": n_per_group,
        "shard_size": shard_size,
        "workers": workers,
        "inline_traces_per_s": 2 * n_per_group / inline_s,
        "pool_vs_inline_ratio": inline_s / pooled_s,
        "t_maps_identical": True,
    }


def bench_ge(repetitions, max_traces, seed):
    engine = ExperimentEngine(seed=seed, capture_mode="fast")
    begin = time.perf_counter()
    ge = engine.run_ge_curve(
        ScenarioSpec(cipher="aes", max_delay=0, seed=seed),
        max_traces=max_traces, repetitions=repetitions,
        aggregate=8, batch_size=256,
    )
    seconds = time.perf_counter() - begin
    counts, means, stds, _ = ge.curve()
    return {
        "repetitions": repetitions,
        "max_traces": max_traces,
        "final_entropy_bits": float(means[-1]),
        "final_entropy_std": float(stds[-1]),
        "traces_to_half_bit": ge.traces_to_entropy(0.5),
        "seconds": seconds,
        "rep_traces_per_s": repetitions * max_traces / seconds,
        "curve": {
            "n_traces": [int(v) for v in counts],
            "mean_bits": [round(float(v), 4) for v in means],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized budgets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="fresh_BENCH_tvla.json",
                        help="JSON trajectory path; the default is "
                             "gitignored — pass BENCH_tvla.json to "
                             "refresh the committed baseline")
    args = parser.parse_args()

    n_per_group = 128 if args.quick else 512
    repetitions = 5
    max_traces = 200 if args.quick else 400

    rows = []
    grid = {}
    for label, cipher, shuffle, jitter, order, must_leak in GRID:
        measured = bench_tvla(
            label, cipher, shuffle, jitter, order, n_per_group, args.seed
        )
        measured["expected_leak"] = must_leak
        grid[label] = measured
        verdict = "LEAKS" if measured["leakage_detected"] else "passes"
        flag = "" if measured["leakage_detected"] == must_leak else "  <-- FLIP"
        rows.append([
            label, measured["countermeasure"],
            f"{measured['max_abs_t']:.1f}", verdict,
            f"{measured['traces_per_s']:.0f}",
        ])
        print(f"[bench] {label} ({measured['countermeasure']}): "
              f"max |t| = {measured['max_abs_t']:.1f}, {verdict}, "
              f"{measured['traces_per_s']:.0f} traces/s{flag}")

    ge = bench_ge(repetitions, max_traces, args.seed)
    print(f"[bench] ge curve: {ge['final_entropy_bits']:.2f} bits after "
          f"{ge['max_traces']} traces x {ge['repetitions']} reps, "
          f"<0.5 bit at {ge['traces_to_half_bit']}")

    parallel = bench_parallel_tvla(
        n_per_group=n_per_group, shard_size=max(8, n_per_group // 4),
        workers=2, seed=args.seed,
    )
    print(f"[bench] parallel tvla: {parallel['workers']} workers at "
          f"{parallel['pool_vs_inline_ratio']:.2f}x the inline wall clock "
          f"({parallel['inline_traces_per_s']:.0f} traces/s inline), "
          f"t-maps bit-identical")

    print()
    print(format_table(
        ["config", "countermeasure", "max |t|", "verdict", "traces/s"],
        rows,
        title=f"TVLA grid ({n_per_group} traces per population)",
    ))

    payload = {
        "benchmark": "tvla",
        "quick": bool(args.quick),
        "n_per_group": n_per_group,
        "grid": grid,
        "guessing_entropy": ge,
        "parallel": parallel,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nwrote {args.output}")

    flips = [
        label for label, measured in grid.items()
        if measured["leakage_detected"] != measured["expected_leak"]
    ]
    if flips:
        print(f"verdict flips against the expected matrix: "
              f"{', '.join(flips)}")
        return 1
    if ge["traces_to_half_bit"] is None:
        print("guessing entropy never dropped below 0.5 bits")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Fused RD-window synthesis kernel microbenchmarks.

The fast capture path runs two backend kernels per batch —
``gather_delayed_windows`` (the batched delayed-window gather that
replaced a per-trace Python loop over
:func:`repro.soc.trace_synth._gather_delayed_window`) and
``synthesize_rows`` (pulse expansion → FIR band-limit → window cut →
noise → ADC quantisation fused into one pass, replacing a chain of five
whole-matrix numpy stages).  This benchmark measures both kernels in
isolation at capture-shaped workloads, and also times the scalar /
unfused references they replaced so the win is recorded next to the
absolute throughput.

Each kernel result is verified element-for-element against its reference
before timing — a bit-identity failure fails the benchmark, mirroring
the property suite in ``tests/soc/test_fused_synthesis.py``.

Besides the printed table the benchmark writes ``BENCH_synthesis.json``
(override with ``--output``) so CI can track the trajectory
machine-readably against the committed baseline.

Run directly (CI runs ``--quick``):

    PYTHONPATH=src python benchmarks/bench_synthesis_kernels.py --quick
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.backend import get_backend
from repro.evaluation import format_table
from repro.soc import RandomDelayCountermeasure, TrngModel
from repro.soc.random_delay import BatchDelayPlans
from repro.soc.trace_synth import _gather_delayed_window


def _gather_workload(seed, batch, n32, max_delay):
    """A stacked delay-plan batch plus per-row op windows."""
    cm = RandomDelayCountermeasure(max_delay, TrngModel(seed))
    plans = [cm.plan(n32) for _ in range(batch)]
    stacked = BatchDelayPlans.from_plans(plans)
    rng = np.random.default_rng(seed + 1)
    values32 = rng.integers(
        0, 1 << 32, size=(batch, n32), dtype=np.uint64, endpoint=False
    )
    kinds32 = rng.integers(0, 6, size=n32, dtype=np.int64).astype(np.uint8)
    los = rng.integers(0, n32 // 4 + 1, size=batch).astype(np.int64)
    widths = np.minimum(
        stacked.totals - los,
        rng.integers(n32 // 2, n32, size=batch),
    ).astype(np.int64)
    return plans, stacked, values32, kinds32, los, widths


def _scalar_gather(plans, values32, kinds32, los, widths):
    width = int(widths.max())
    out_values = np.empty((len(plans), width), dtype=np.uint64)
    out_kinds = np.empty((len(plans), width), dtype=np.uint8)
    for b, plan in enumerate(plans):
        lo, w = int(los[b]), int(widths[b])
        row_v, row_k = _gather_delayed_window(
            plan, values32[b], kinds32, lo, lo + w
        )
        out_values[b, :w] = row_v
        out_kinds[b, :w] = row_k
        out_values[b, w:] = row_v[-1] if w else 0
        out_kinds[b, w:] = row_k[-1] if w else 0
    return out_values, out_kinds


def bench_gather(backend, seed, batch, n32, max_delay, repeats):
    plans, stacked, values32, kinds32, los, widths = _gather_workload(
        seed, batch, n32, max_delay
    )
    args = (
        stacked.positions, values32, kinds32, stacked.dummy_values,
        stacked.dummy_kinds, stacked.dummy_bounds, los, widths,
    )
    got = backend.gather_delayed_windows(*args)
    want = _scalar_gather(plans, values32, kinds32, los, widths)
    if not (np.array_equal(got[0], want[0])
            and np.array_equal(got[1], want[1])):
        raise AssertionError(
            "gather_delayed_windows disagrees with the scalar reference"
        )
    begin = time.perf_counter()
    for _ in range(repeats):
        backend.gather_delayed_windows(*args)
    kernel_s = (time.perf_counter() - begin) / repeats
    scalar_reps = max(1, repeats // 8)
    begin = time.perf_counter()
    for _ in range(scalar_reps):
        _scalar_gather(plans, values32, kinds32, los, widths)
    scalar_s = (time.perf_counter() - begin) / scalar_reps
    return {
        "batch": batch,
        "n32": n32,
        "max_delay": max_delay,
        "windows_per_s": batch / kernel_s,
        "scalar_windows_per_s": batch / scalar_s,
        "kernel_vs_scalar_ratio": scalar_s / kernel_s,
    }


def _synthesis_workload(seed, batch, w_ops, spp, n_out):
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.0, 40.0, size=(batch, w_ops))
    widths = rng.integers(max(1, w_ops - 4), w_ops + 1, size=batch)
    offsets = rng.integers(0, spp * 3, size=batch)
    lengths = np.full(batch, n_out, dtype=np.int64)
    lengths[::7] = max(1, n_out - 5)
    noise = rng.standard_normal((batch, n_out)).astype(np.float32)
    pulse = np.linspace(1.0, 0.55, spp)
    kernel = np.asarray([0.1, 0.2, 0.4, 0.2, 0.1])
    return (power, widths.astype(np.int64), pulse, kernel,
            offsets.astype(np.int64), n_out, lengths, noise,
            48.0 / 4095, 4095)


def _unfused_synthesize(power, widths, pulse, kernel, offsets, n_out,
                        lengths, noise, lsb, max_code):
    """The pre-fusion chain of whole-matrix stages, as a timing reference."""
    batch, w_ops = power.shape
    spp = pulse.size
    analog = (power[:, :, None] * pulse[None, None, :]).reshape(batch, -1)
    total = w_ops * spp
    replicate = np.minimum(
        np.arange(total)[None, :], widths[:, None] * spp - 1
    )
    analog = np.take_along_axis(analog, replicate, axis=1)
    pad = kernel.size // 2
    padded = np.pad(analog, ((0, 0), (pad, kernel.size - 1 - pad)),
                    mode="edge")
    smooth = np.zeros_like(analog)
    for tap in range(kernel.size):
        smooth += kernel[::-1][tap] * padded[:, tap: tap + total]
    cols = np.clip(
        offsets[:, None] + np.arange(n_out)[None, :], 0, total - 1
    )
    cut = np.take_along_axis(smooth, cols, axis=1)
    cut[:, : noise.shape[1]] += noise
    out = (np.clip(np.rint(cut / lsb), 0, max_code) * lsb).astype(np.float32)
    for b in range(batch):
        out[b, lengths[b]:] = 0.0
    return out


def bench_synthesis(backend, seed, batch, w_ops, spp, n_out, repeats):
    args = _synthesis_workload(seed, batch, w_ops, spp, n_out)
    got = backend.synthesize_rows(*args)
    want = _unfused_synthesize(*args)
    if not np.array_equal(got, want):
        raise AssertionError(
            "synthesize_rows disagrees with the unfused reference chain"
        )
    begin = time.perf_counter()
    for _ in range(repeats):
        backend.synthesize_rows(*args)
    kernel_s = (time.perf_counter() - begin) / repeats
    unfused_reps = max(1, repeats // 4)
    begin = time.perf_counter()
    for _ in range(unfused_reps):
        _unfused_synthesize(*args)
    unfused_s = (time.perf_counter() - begin) / unfused_reps
    samples = batch * n_out
    return {
        "batch": batch,
        "w_ops": w_ops,
        "spp": spp,
        "n_out": n_out,
        "samples_per_s": samples / kernel_s,
        "unfused_samples_per_s": samples / unfused_s,
        "kernel_vs_unfused_ratio": unfused_s / kernel_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized budgets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="fresh_BENCH_synthesis.json",
                        help="JSON trajectory path; the default is "
                             "gitignored — pass BENCH_synthesis.json to "
                             "refresh the committed baseline")
    args = parser.parse_args()

    batch = 128 if args.quick else 512
    repeats = 30 if args.quick else 120

    backend = get_backend()
    gather = bench_gather(
        backend, args.seed, batch=batch, n32=600, max_delay=2,
        repeats=repeats,
    )
    synthesis = bench_synthesis(
        backend, args.seed, batch=batch, w_ops=128, spp=3, n_out=320,
        repeats=repeats,
    )
    rows = [
        ["gather",
         f"{gather['windows_per_s']:.0f} win/s",
         f"{gather['kernel_vs_scalar_ratio']:.1f}x vs scalar"],
        ["synthesize_rows",
         f"{synthesis['samples_per_s'] / 1e6:.1f} Msample/s",
         f"{synthesis['kernel_vs_unfused_ratio']:.1f}x vs unfused"],
    ]
    print(f"[bench] gather {gather['windows_per_s']:.0f} windows/s "
          f"({gather['kernel_vs_scalar_ratio']:.1f}x vs the scalar loop), "
          f"synthesize {synthesis['samples_per_s'] / 1e6:.1f} Msample/s "
          f"({synthesis['kernel_vs_unfused_ratio']:.1f}x vs the unfused "
          f"chain)")

    print()
    print(format_table(
        ["kernel", "throughput", "vs reference"],
        rows,
        title=f"Fused synthesis kernels (batch {batch})",
    ))

    payload = {
        "benchmark": "synthesis_kernels",
        "quick": bool(args.quick),
        "batch": batch,
        # The one kernel table keeps the historical per-backend key so
        # compare_bench.py still matches the committed baseline's paths.
        "backends": {"numpy": {"gather": gather, "synthesis": synthesis}},
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Compare a fresh ``BENCH_*.json`` against the committed baseline.

The perf-smoke CI job re-runs the ``--quick`` benchmarks and hands their
JSON output here next to the baseline committed at the repo root.  Every
numeric *throughput* field — a leaf whose name ends in ``_per_s`` or is
``speedup`` (higher is better) — is compared, and any regression beyond
the threshold (default 30%) emits a warning in GitHub's ``::warning::``
annotation format.  The gate *warns* rather than
fails by default because shared CI runners are noisy; pass ``--fail`` to
turn every regression into a non-zero exit (e.g. for release branches or
a quiet benchmarking host), or ``--fail-match REGEX`` to fail only on
the machine-robust field paths (wall-clock *ratios* measured on the same
run, like the capture-mode speedups) while the absolute throughputs keep
warning.

Usage:

    python benchmarks/compare_bench.py BASELINE.json FRESH.json \
        [--threshold 0.30] [--fail] [--fail-match REGEX]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: Leaf names treated as higher-is-better throughput metrics.
_SPEEDUP_NAMES = frozenset({"speedup"})


def throughput_fields(payload, prefix: str = "") -> "dict[str, float]":
    """Flatten the higher-is-better numeric leaves of a bench payload."""
    fields: dict[str, float] = {}
    if isinstance(payload, dict):
        for name, value in payload.items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, dict):
                fields.update(throughput_fields(value, path))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                if name.endswith("_per_s") or name in _SPEEDUP_NAMES:
                    fields[path] = float(value)
    return fields


def compare(
    baseline: dict, fresh: dict, threshold: float
) -> "list[tuple[str, str]]":
    """``(path, message)`` for every throughput field below the gate."""
    base_fields = throughput_fields(baseline)
    fresh_fields = throughput_fields(fresh)
    regressions = []
    for path, base_value in sorted(base_fields.items()):
        current = fresh_fields.get(path)
        if current is None:
            regressions.append((
                path,
                f"{path}: present in the baseline but missing from the "
                f"fresh run",
            ))
            continue
        if base_value <= 0:
            continue
        change = current / base_value - 1.0
        if change < -threshold:
            regressions.append((
                path,
                f"{path}: {current:.0f} vs baseline {base_value:.0f} "
                f"({change * 100:+.1f}%, gate -{threshold * 100:.0f}%)",
            ))
    return regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly measured BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="regression fraction that triggers the gate")
    parser.add_argument("--fail", action="store_true",
                        help="exit non-zero on regression instead of warning")
    parser.add_argument("--fail-match", default=None, metavar="REGEX",
                        help="exit non-zero only when a regressed field "
                             "path matches (re.search); other regressions "
                             "still warn")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    if baseline.get("benchmark") != fresh.get("benchmark"):
        print(f"::warning::comparing different benchmarks: "
              f"{baseline.get('benchmark')} vs {fresh.get('benchmark')}")

    regressions = compare(baseline, fresh, args.threshold)
    watched = len(throughput_fields(baseline))
    name = baseline.get("benchmark", args.baseline)
    if not regressions:
        print(f"[compare] {name}: {watched} throughput fields within "
              f"{args.threshold * 100:.0f}% of the committed baseline")
        return 0
    failing = 0
    for path, message in regressions:
        if args.fail_match is not None and re.search(args.fail_match, path):
            failing += 1
            print(f"::error::perf regression in {name}: {message}")
        else:
            print(f"::warning::perf regression in {name}: {message}")
    print(f"[compare] {name}: {len(regressions)}/{watched} fields regressed "
          f"beyond {args.threshold * 100:.0f}%", file=sys.stderr)
    return 1 if (args.fail or failing) else 0


if __name__ == "__main__":
    raise SystemExit(main())

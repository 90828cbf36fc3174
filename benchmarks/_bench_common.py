"""Shared knobs for the reproduction benchmarks.

Environment overrides:

* ``REPRO_BENCH_SCALE`` — dataset scale, a positive decimal or fraction
  (default ``1/32`` of Table I);
* ``REPRO_BENCH_EPOCHS`` — training epochs (default: config default);
* ``REPRO_BENCH_COS`` — COs per attack session (default 32).
"""

from __future__ import annotations

import os
from dataclasses import replace
from fractions import Fraction

from repro.config import default_config


def parse_scale(text: str) -> float:
    """A ``REPRO_BENCH_SCALE`` value such as ``1/32`` or ``0.05`` as a float."""
    try:
        scale = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be a decimal or fraction such as 1/32 "
            f"or 0.05, got {text!r}"
        ) from None
    if scale <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be > 0, got {text!r}")
    return float(scale)


BENCH_SCALE = parse_scale(os.environ.get("REPRO_BENCH_SCALE", "1/32"))
BENCH_COS = int(os.environ.get("REPRO_BENCH_COS", "32"))
_EPOCHS = os.environ.get("REPRO_BENCH_EPOCHS")


def bench_config(cipher: str):
    """The benchmark pipeline configuration for one cipher."""
    config = default_config(cipher, dataset_scale=BENCH_SCALE)
    if _EPOCHS is not None:
        config = replace(config, epochs=int(_EPOCHS))
    return config

"""Experiment harness: hit scoring, scenario runners, table rendering.

Everything the benchmarks (and the examples) need to turn a locator + a
simulated platform into the numbers of the paper's evaluation section.
"""

from repro.evaluation.hits import HitStats, match_hits
from repro.evaluation.reporting import format_table
from repro.evaluation.convergence import (
    format_campaign,
    guessing_entropy,
    guessing_entropy_curve,
    rank_convergence_curve,
)
from repro.evaluation.experiments import (
    SegmentationOutcome,
    default_tolerance,
    train_locator,
    run_segmentation_scenario,
    run_baseline_scenario,
    run_cpa_scenario,
)
from repro.evaluation.ge_curves import GuessingEntropyAccumulator
from repro.evaluation.tvla import (
    DEFAULT_FIXED_PLAINTEXT,
    TvlaCampaign,
    TvlaResult,
    WelchTAccumulator,
)
from repro.evaluation.parallel_tvla import ParallelTvlaCampaign, run_tvla_shard

__all__ = [
    "HitStats",
    "match_hits",
    "format_table",
    "format_campaign",
    "guessing_entropy",
    "guessing_entropy_curve",
    "rank_convergence_curve",
    "SegmentationOutcome",
    "default_tolerance",
    "train_locator",
    "run_segmentation_scenario",
    "run_baseline_scenario",
    "run_cpa_scenario",
    "GuessingEntropyAccumulator",
    "DEFAULT_FIXED_PLAINTEXT",
    "TvlaCampaign",
    "TvlaResult",
    "WelchTAccumulator",
    "ParallelTvlaCampaign",
    "run_tvla_shard",
]

"""Side-channel attacks mounted on the aligned CO segments.

The paper validates its locator by mounting a Correlation Power Analysis
(CPA [2]) on the sub-bytes intermediate of AES-128 after alignment
(Section IV-C), with "a minor aggregation over time" to absorb residual
misalignment and the random delay.  This subpackage provides that attack
and its alternatives (difference-of-means DPA [1], second-order CPA, LRA)
as streaming, mergeable distinguishers, the leakage hypothesis models, and
the key-rank bookkeeping used to report the "number of COs to reach rank
1" column of Table II.
"""

from repro.attacks.leakage_models import (
    LeakageModel,
    available_leakage_models,
    get_leakage_model,
    hw_byte,
)
from repro.attacks.key_rank import (
    key_byte_rank,
    full_key_ranks,
    geometric_checkpoints,
    traces_to_rank1,
)
from repro.attacks.assessment import (
    TVLA_THRESHOLD,
    snr_by_sample,
    welch_t_by_sample,
)
from repro.attacks.distinguishers import (
    CpaDistinguisher,
    Distinguisher,
    DistinguisherSpec,
    DpaDistinguisher,
    LinearRegressionAnalysis,
    SecondOrderCpa,
    available_distinguishers,
    available_lra_bases,
    get_distinguisher,
    masked_aes_windows,
    resolve_distinguisher,
)

__all__ = [
    "LeakageModel",
    "available_leakage_models",
    "get_leakage_model",
    "hw_byte",
    "key_byte_rank",
    "full_key_ranks",
    "geometric_checkpoints",
    "traces_to_rank1",
    "TVLA_THRESHOLD",
    "snr_by_sample",
    "welch_t_by_sample",
    "CpaDistinguisher",
    "Distinguisher",
    "DistinguisherSpec",
    "DpaDistinguisher",
    "LinearRegressionAnalysis",
    "SecondOrderCpa",
    "available_distinguishers",
    "available_lra_bases",
    "get_distinguisher",
    "masked_aes_windows",
    "resolve_distinguisher",
]

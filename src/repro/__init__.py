"""repro — reproduction of "A Deep-Learning Technique to Locate
Cryptographic Operations in Side-Channel Traces" (DATE 2024).

The package is organised in layers:

* :mod:`repro.ciphers` — instrumented software ciphers (the workloads);
* :mod:`repro.soc` — the simulated RISC-V platform: leakage model, random
  delay countermeasure, oscilloscope, trace synthesis;
* :mod:`repro.nn` — a from-scratch numpy deep-learning framework;
* :mod:`repro.core` — the paper's contribution: dataset creation, the 1D
  ResNet classifier, sliding-window classification, segmentation, alignment,
  and the end-to-end :class:`~repro.core.locator.CryptoLocator`;
* :mod:`repro.attacks` — streaming, mergeable distinguishers (CPA, DPA,
  second-order CPA, LRA) and key-rank evaluation;
* :mod:`repro.campaign` — the on-disk
  :class:`~repro.campaign.store.TraceStore` campaigns stream into;
* :mod:`repro.baselines` — the state-of-the-art locators the paper compares
  against (matched filter [10], semi-automatic [11]);
* :mod:`repro.evaluation` — hit-rate scoring and experiment harnesses;
* :mod:`repro.runtime` — the batch-first scenario-sweep engine
  (:class:`~repro.runtime.ExperimentEngine` + :class:`~repro.runtime.BatchPlan`)
  driving capture→locate→attack through the batched primitives, plus the
  resumable streaming :class:`~repro.runtime.AttackCampaign`;
* :mod:`repro.config` — per-cipher pipeline parameters mirroring Table I.
"""

__version__ = "1.0.0"

from repro.config import PipelineConfig, default_config, derive_config  # noqa: E402
from repro.core.locator import CryptoLocator, LocatorResult  # noqa: E402
from repro.soc.platform import SimulatedPlatform  # noqa: E402
from repro.runtime import BatchPlan, ExperimentEngine, ScenarioSpec  # noqa: E402

__all__ = [
    "PipelineConfig",
    "default_config",
    "derive_config",
    "CryptoLocator",
    "LocatorResult",
    "SimulatedPlatform",
    "BatchPlan",
    "ExperimentEngine",
    "ScenarioSpec",
]

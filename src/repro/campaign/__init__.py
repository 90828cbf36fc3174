"""Durable trace storage for streaming attack campaigns.

:class:`~repro.campaign.store.TraceStore` is an append-only, sharded
on-disk store (``.npy`` segments + JSON manifest, memory-mapped reads), so
captured traces survive the process and campaigns can resume.  The
:class:`~repro.runtime.campaign.AttackCampaign` orchestrator in
:mod:`repro.runtime` drives capture → store → accumulate → checkpoint on
top of it, accumulating into any :mod:`repro.attacks.distinguishers`
statistic.
"""

from repro.campaign.store import (
    CorruptManifestError,
    StoreVerification,
    TraceStore,
    atomic_write_json,
)

__all__ = [
    "CorruptManifestError",
    "StoreVerification",
    "TraceStore",
    "atomic_write_json",
]

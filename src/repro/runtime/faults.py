"""Deterministic fault injection for chaos-testing campaign execution.

A :class:`FaultPlan` names the shard indices of a campaign that should
fail, and how.  It is a frozen, picklable value, so it crosses the
process-pool boundary exactly like a
:class:`~repro.runtime.parallel.ShardSpec` does; ``run_shard`` /
``run_tvla_shard`` call :meth:`FaultPlan.maybe_fire` before every capture
batch and the plan decides — deterministically — whether this attempt
dies.  "Attempts so far" is tracked as marker files under ``state_dir``
(one per firing), because a fault that kills its worker process cannot
carry a counter back in memory: the retry runs in a *fresh* process and
must observe that the fault already fired its ``times`` quota.

Fault kinds:

``crash``
    Raise :class:`InjectedFault` — a transient worker exception.
``hang``
    Sleep ``delay`` seconds, then continue.  Paired with a per-shard
    watchdog ``timeout`` shorter than ``delay`` this is an effectively
    hung shard the parent must cancel and requeue.
``exit``
    ``os._exit(exit_code)`` — the worker dies without unwinding, which
    the parent observes as a ``BrokenProcessPool``.  Only meaningful
    under a process pool: fired inline it kills the caller.
``partial_append``
    Write orphan payload files at the shard store's next index *without*
    updating the manifest, then raise — a crash in the window between
    payload write and manifest replace.  The retry's
    :meth:`~repro.campaign.store.TraceStore.recover` must quarantine the
    orphans and re-capture deterministically.

:func:`corrupt_store` is the post-hoc half of the harness: it damages an
already-durable shard payload (bit flip or truncation) so tests can pin
the quarantine-and-recapture path of a *resumed* campaign.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "corrupt_store",
]

FAULT_KINDS = ("crash", "hang", "exit", "partial_append")


class InjectedFault(RuntimeError):
    """A deliberate, plan-scheduled failure (never a real defect)."""


@dataclass(frozen=True)
class FaultSpec:
    """How one shard misbehaves.

    ``times`` bounds the firings (attempt ``times + 1`` succeeds);
    ``after`` delays the fault until the shard has captured that many
    traces, so mid-shard failures leave a durable prefix behind.
    """

    kind: str
    times: int = 1
    after: int = 0
    delay: float = 30.0
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay <= 0:
            raise ValueError("delay must be > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable schedule of per-shard faults with durable firing state."""

    state_dir: str
    faults: tuple[tuple[int, FaultSpec], ...] = ()

    @classmethod
    def single(cls, state_dir, index: int, kind: str, **kwargs) -> "FaultPlan":
        """One fault on one shard — the common chaos-test shape."""
        return cls(
            state_dir=str(state_dir),
            faults=((int(index), FaultSpec(kind=kind, **kwargs)),),
        )

    @classmethod
    def seeded(
        cls, state_dir, seed: int, n_shards: int, kind: str,
        rate: float = 0.25, **kwargs,
    ) -> "FaultPlan":
        """Fault a deterministic pseudo-random subset of the shards."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        spec = FaultSpec(kind=kind, **kwargs)
        draws = np.random.default_rng(int(seed)).random(int(n_shards))
        return cls(
            state_dir=str(state_dir),
            faults=tuple(
                (int(index), spec) for index in np.flatnonzero(draws < rate)
            ),
        )

    def spec_for(self, index: int) -> FaultSpec | None:
        for shard_index, spec in self.faults:
            if shard_index == int(index):
                return spec
        return None

    def fired(self, index: int) -> int:
        """How many times shard ``index``'s fault has fired, ever."""
        root = Path(self.state_dir)
        if not root.exists():
            return 0
        return len(list(root.glob(f"shard-{int(index):06d}.fired-*")))

    def _mark(self, index: int) -> None:
        root = Path(self.state_dir)
        root.mkdir(parents=True, exist_ok=True)
        (root / f"shard-{int(index):06d}.fired-{self.fired(index)}").touch()

    def maybe_fire(self, index: int, done: int = 0, store=None) -> None:
        """Fire shard ``index``'s fault if it is armed for this attempt.

        ``done`` is the shard's current captured-trace count (gates
        ``after``); ``store`` is the shard's open
        :class:`~repro.campaign.store.TraceStore` when one exists (the
        ``partial_append`` kind needs it; without a store it degrades to
        ``crash``).
        """
        spec = self.spec_for(index)
        if spec is None or done < spec.after:
            return
        if self.fired(index) >= spec.times:
            return
        self._mark(index)
        if spec.kind == "hang":
            time.sleep(spec.delay)
            return
        if spec.kind == "exit":
            os._exit(spec.exit_code)
        if spec.kind == "partial_append" and store is not None:
            _write_orphan_payload(store)
        raise InjectedFault(
            f"injected {spec.kind} fault in shard {int(index)}"
        )


def _write_orphan_payload(store) -> None:
    """Emulate a crash between payload write and manifest replace."""
    index = store.n_shards
    np.save(
        store.path / f"traces-{index:06d}.npy",
        np.zeros((3, store.n_samples), dtype=store.dtype),
    )
    np.save(
        store.path / f"plaintexts-{index:06d}.npy",
        np.zeros((3, store.block_size), dtype=np.uint8),
    )


def corrupt_store(path, mode: str = "bitflip", shard: int = -1) -> Path:
    """Damage one durable shard payload of the store at ``path``.

    ``bitflip`` inverts one byte mid-payload (only a recorded digest can
    catch it); ``truncate`` cuts the file in half (the structural check
    catches it).  Returns the damaged file's path.
    """
    manifest = json.loads((Path(path) / "manifest.json").read_text())
    entry = manifest["shards"][shard]
    target = Path(path) / entry["traces"]
    data = bytearray(target.read_bytes())
    if mode == "bitflip":
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
    elif mode == "truncate":
        target.write_bytes(bytes(data[: len(data) // 2]))
    else:
        raise ValueError(f"mode must be 'bitflip' or 'truncate', got {mode!r}")
    return target

"""Streaming fixed-vs-random TVLA campaigns.

Test Vector Leakage Assessment (Goodwill et al.) is the standard
*non-specific* leakage test: capture one population of traces under a
**fixed** plaintext and one under **random** plaintexts (same key), and
compute Welch's t-statistic per sample between the two.  Any sample with
``|t|`` above the customary 4.5 threshold shows a statistically
significant data dependence — first-order leakage an attack could target
— without needing to know *how* to exploit it.  That makes TVLA the
right verdict statistic for a countermeasure matrix: hiding
countermeasures (random delay, shuffling, clock jitter) smear leakage
but leave it first-order detectable, while masking removes the
first-order dependence entirely and passes.

:class:`WelchTAccumulator` keeps the two populations' per-sample counts,
sums and sums of squares — additive sufficient statistics, so it is
**order- and chunking-invariant**, merges exactly across accumulators
(parallel or resumed campaigns), and persists to ``.npz`` checkpoints
like :class:`~repro.profiled.stats.ClassStats`.  Its :meth:`t` matches
:func:`repro.attacks.assessment.welch_t_by_sample` on the same trace
matrices to float precision.

:class:`TvlaCampaign` drives the interleaved capture through the
existing platform machinery, sharded like the attack campaigns
(:mod:`repro.runtime.parallel`): the per-population budget is cut into
fixed shards, shard ``i`` captures both populations on two platforms
built from one :class:`~repro.soc.platform.PlatformSpec` and seeded from
the ``i``-th spawned child of the campaign seed, and the parent merges
the shards' statistics in shard order through
:func:`~repro.runtime.parallel.run_shards`.  Welch-t statistics merge
exactly, so the verdict is independent of the worker count, and
``workers=1`` runs the same shard plan inline.  With a ``store_root``
each shard persists to its own trace store; stored traces are classified
on resume by comparing their plaintext to the fixed vector, so an
interrupted campaign replays, fast-forwards both platform streams, and
continues to exactly the verdict an uninterrupted run reaches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.attacks.assessment import TVLA_THRESHOLD
from repro.errors import load_npz, require_compatible
from repro.runtime.parallel import open_store_root, plan_shards, run_shards
from repro.runtime.retry import RetryPolicy
from repro.soc.platform import PlatformSpec

__all__ = [
    "DEFAULT_FIXED_PLAINTEXT",
    "TvlaCampaign",
    "TvlaResult",
    "WelchTAccumulator",
]

_EPS = 1e-12

#: The fixed input of the CRI/Rambus TVLA specification for AES-128.
DEFAULT_FIXED_PLAINTEXT = bytes.fromhex("da39a3ee5e6b4b0d3255bfef95601890")

_GROUPS = ("fixed", "random")


class WelchTAccumulator:
    """Streaming two-population Welch-t sufficient statistics.

    Per trace sample the accumulator keeps each population's count, sum
    and sum of squares; the t-map is recovered exactly at any point of
    the stream.  All state is additive, so feeding the same traces in
    any order, chunking, or through merged accumulators yields the same
    statistic.
    """

    _KIND = "welch_t.v1"

    def __init__(self, threshold: float = TVLA_THRESHOLD) -> None:
        self.threshold = float(threshold)
        self._n = {group: 0 for group in _GROUPS}
        self._sums: dict[str, np.ndarray] | None = None
        self._sumsq: dict[str, np.ndarray] | None = None

    # -- accumulation --------------------------------------------------- #

    @property
    def n_fixed(self) -> int:
        return self._n["fixed"]

    @property
    def n_random(self) -> int:
        return self._n["random"]

    @property
    def n_traces(self) -> int:
        return self.n_fixed + self.n_random

    @property
    def n_samples(self) -> int | None:
        return None if self._sums is None else int(self._sums["fixed"].size)

    def update(self, group: str, traces: np.ndarray) -> int:
        """Fold one chunk of one population in; returns the group total."""
        if group not in _GROUPS:
            raise ValueError(f"group must be 'fixed' or 'random', got {group!r}")
        traces = np.asarray(traces, dtype=np.float64)
        if traces.ndim != 2 or traces.shape[0] == 0:
            raise ValueError(
                f"expected a non-empty (n, m) chunk, got {traces.shape}"
            )
        m = traces.shape[1]
        if self._sums is None:
            self._sums = {g: np.zeros(m) for g in _GROUPS}
            self._sumsq = {g: np.zeros(m) for g in _GROUPS}
        elif m != self.n_samples:
            raise ValueError(
                f"chunk has {m} samples, statistics hold {self.n_samples}"
            )
        self._sums[group] += traces.sum(axis=0)
        self._sumsq[group] += (traces * traces).sum(axis=0)
        self._n[group] += traces.shape[0]
        return self._n[group]

    def merge(self, other: "WelchTAccumulator") -> "WelchTAccumulator":
        """Fold another accumulator fed a disjoint stream into this one."""
        if not isinstance(other, WelchTAccumulator):
            raise TypeError(
                f"cannot merge {type(other).__name__} into WelchTAccumulator"
            )
        if other.threshold != self.threshold:
            raise ValueError(
                f"threshold mismatch: {self.threshold} vs {other.threshold}"
            )
        if other.n_traces == 0:
            return self
        if self.n_traces == 0:
            self._sums = {g: other._sums[g].copy() for g in _GROUPS}
            self._sumsq = {g: other._sumsq[g].copy() for g in _GROUPS}
            self._n = dict(other._n)
            return self
        if other.n_samples != self.n_samples:
            raise ValueError(
                f"statistics hold {self.n_samples} vs {other.n_samples} samples"
            )
        for group in _GROUPS:
            self._sums[group] += other._sums[group]
            self._sumsq[group] += other._sumsq[group]
            self._n[group] += other._n[group]
        return self

    # -- derived statistics --------------------------------------------- #

    def t(self) -> np.ndarray:
        """The per-sample Welch t-map (fixed minus random), shape ``(m,)``.

        Identical (to float noise) to
        :func:`repro.attacks.assessment.welch_t_by_sample` on the two
        full trace matrices.
        """
        n_a, n_b = self.n_fixed, self.n_random
        if n_a < 2 or n_b < 2:
            raise ValueError(
                f"Welch's t needs >= 2 traces per group, have "
                f"{n_a} fixed / {n_b} random"
            )
        mean_a = self._sums["fixed"] / n_a
        mean_b = self._sums["random"] / n_b
        var_a = (self._sumsq["fixed"] - n_a * mean_a * mean_a) / (n_a - 1) / n_a
        var_b = (self._sumsq["random"] - n_b * mean_b * mean_b) / (n_b - 1) / n_b
        denom = np.sqrt(np.clip(var_a + var_b, 0.0, None))
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                denom > _EPS, (mean_a - mean_b) / np.maximum(denom, _EPS), 0.0
            )

    def max_abs_t(self) -> float:
        """The campaign's verdict statistic: ``max_m |t|``."""
        return float(np.abs(self.t()).max())

    def leakage_detected(self) -> bool:
        """Does any sample exceed the TVLA threshold?"""
        return self.max_abs_t() > self.threshold

    # -- persistence ----------------------------------------------------- #

    def save(self, path) -> None:
        """Persist the statistics as an ``.npz`` checkpoint."""
        if self._sums is None:
            raise ValueError("no traces accumulated yet")
        np.savez_compressed(
            path,
            kind=np.array(self._KIND),
            config=np.array(json.dumps({"threshold": self.threshold})),
            n=np.array([self._n[g] for g in _GROUPS]),
            sums=np.stack([self._sums[g] for g in _GROUPS]),
            sumsq=np.stack([self._sumsq[g] for g in _GROUPS]),
        )

    @classmethod
    def load(cls, path) -> "WelchTAccumulator":
        """Restore statistics saved by :meth:`save`."""
        state = load_npz(path)
        require_compatible(path, {"kind": str(state.get("kind"))},
                           kind=cls._KIND)
        config = json.loads(str(state["config"]))
        accumulator = cls(threshold=config["threshold"])
        accumulator._n = {g: int(state["n"][i]) for i, g in enumerate(_GROUPS)}
        accumulator._sums = {g: state["sums"][i] for i, g in enumerate(_GROUPS)}
        accumulator._sumsq = {
            g: state["sumsq"][i] for i, g in enumerate(_GROUPS)
        }
        return accumulator


@dataclass(frozen=True)
class TvlaResult:
    """One TVLA campaign's verdict."""

    t: np.ndarray
    max_abs_t: float
    threshold: float
    leakage_detected: bool
    n_fixed: int
    n_random: int
    countermeasure: str
    partial: bool = False           # some shards exhausted their retries
    failed_shards: tuple[int, ...] = ()

    @classmethod
    def of(
        cls, accumulator: "WelchTAccumulator", countermeasure: str, **partial
    ) -> "TvlaResult":
        """The verdict over everything ``accumulator`` holds."""
        t = accumulator.t()
        max_abs_t = float(np.abs(t).max())
        return cls(
            t=t,
            max_abs_t=max_abs_t,
            threshold=accumulator.threshold,
            leakage_detected=max_abs_t > accumulator.threshold,
            n_fixed=accumulator.n_fixed,
            n_random=accumulator.n_random,
            countermeasure=countermeasure,
            **partial,
        )

    def summary(self) -> str:
        verdict = "LEAKS" if self.leakage_detected else "passes"
        note = (
            f" [PARTIAL: shards {list(self.failed_shards)} failed]"
            if self.partial else ""
        )
        return (
            f"{self.countermeasure}: max |t| = {self.max_abs_t:.1f} "
            f"({'>' if self.leakage_detected else '<='} {self.threshold:.1f}, "
            f"{verdict}) over {self.n_fixed}+{self.n_random} traces{note}"
        )


def tvla_store_meta(spec: PlatformSpec, fixed_plaintext: bytes) -> dict:
    """The store fields every shard of one TVLA campaign shares."""
    return {"purpose": "tvla", "fixed_plaintext": fixed_plaintext.hex(),
            **spec.store_meta()}


class TvlaCampaign:
    """Sharded interleaved fixed-vs-random capture feeding a Welch-t verdict.

    Parameters
    ----------
    spec:
        The platform recipe (cipher, countermeasures, capture mode) both
        populations are captured on.
    seed:
        Campaign seed; the shards' platform seeds and the shared key are
        spawned from it, so a campaign is fully reproducible.
    workers:
        Pool width; 1 runs the shards inline.  For a fixed ``(spec,
        seed, shard_size)`` the t-map is bit-identical at any width.
    shard_size:
        Traces **per population** per shard — the unit of parallel work
        and seed derivation.
    fixed_plaintext:
        The fixed population's input; the CRI AES-128 vector by default.
    key:
        Shared key of both populations; derived from ``seed`` when
        omitted.
    segment_length:
        Samples per stored segment; by default the mean CO length of a
        platform built on the campaign seed, minus the unmasked trailer.
    store_root:
        Optional directory of per-shard trace stores.  Shard stores must
        fit the campaign's geometry, key and store fields (another
        countermeasure, capture mode or fixed vector is refused, before
        the root's journal is touched); existing content is replayed, at
        most ``shard_size`` traces per population and shard, and only
        the remainder is captured.  A serial single-store directory is
        refused.
    batch_size:
        Traces captured per population per interleaving round.
    max_retries, retry_backoff, shard_timeout, fault_plan:
        The shard retry layer (:class:`~repro.runtime.retry.RetryPolicy`)
        and the chaos-test hook.  A shard that exhausts its retries
        degrades the run to a ``partial=True`` verdict over the merged
        shard prefix.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        seed: int = 0,
        workers: int = 1,
        shard_size: int = 1024,
        fixed_plaintext: bytes | None = None,
        key: bytes | None = None,
        segment_length: int | None = None,
        store_root=None,
        batch_size: int = 256,
        nop_header: int = 96,
        threshold: float = TVLA_THRESHOLD,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        shard_timeout: float | None = None,
        fault_plan=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.spec = spec
        self.seed = int(seed)
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.store_root = store_root
        self.batch_size = int(batch_size)
        self.nop_header = int(nop_header)
        self.threshold = float(threshold)
        self.retry_policy = RetryPolicy(
            max_retries=max_retries,
            backoff=retry_backoff,
            timeout=shard_timeout,
        )
        self.fault_plan = fault_plan
        # Campaign-wide inputs every shard must agree on are derived once
        # here and shipped to the shards.
        fixed_seed, _, key_seed = np.random.SeedSequence(self.seed).spawn(3)
        platform = spec.build(fixed_seed)
        block = platform.cipher.block_size
        self.fixed_plaintext = bytes(
            fixed_plaintext if fixed_plaintext is not None
            else DEFAULT_FIXED_PLAINTEXT[:block]
        )
        if len(self.fixed_plaintext) != block:
            raise ValueError(
                f"fixed plaintext must be {block} bytes, got "
                f"{len(self.fixed_plaintext)}"
            )
        self.key = bytes(
            key if key is not None
            else np.random.default_rng(key_seed).bytes(platform.cipher.key_size)
        )
        if segment_length is None:
            # The default assessment window stops before the cipher's
            # unmasked output handling: recombining the shares trivially
            # exposes the ciphertext (fixed vs random by construction),
            # which is outside any masking claim — standard TVLA practice
            # excludes input/output handling from the verdict.  The scope's
            # band-limit FIR shows the first trailer op (raw ciphertext
            # byte 0) ``right_halo`` samples early, so those go too.
            scope = platform.oscilloscope
            trailer = (platform.cipher.unmasked_trailer_ops
                       * scope.samples_per_op)
            if trailer:
                trailer += scope.right_halo
            segment_length = platform.mean_co_samples() - trailer
        self.segment_length = int(segment_length)
        self.countermeasure_name = platform.countermeasure_name
        self.accumulator = WelchTAccumulator(threshold=self.threshold)
        self.resumed_from = 0
        self.partial = False
        self.failed_shards: tuple[int, ...] = ()

    def run(self, n_per_group: int, verbose: bool = False) -> TvlaResult:
        """Capture until both merged populations hold ``n_per_group``.

        Resumed traces count toward the budget.  A shard that exhausts
        its retries degrades the run to a ``partial=True`` verdict over
        the completed shard prefix; the
        :class:`~repro.runtime.retry.ShardFailure` propagates instead when
        that prefix holds fewer than two traces per population (no
        t-statistic exists to report).
        """
        # The shard body is looked up on its module at run time, so a
        # wrapper installed there (perfbench's probes) sees every shard.
        from repro.evaluation import parallel_tvla

        if n_per_group < 2:
            raise ValueError("n_per_group must be >= 2")
        journal = None
        if self.store_root is not None:
            journal = open_store_root(
                self.store_root, "parallel_tvla",
                meta={
                    "seed": self.seed,
                    "shard_size": self.shard_size,
                    "countermeasure": self.countermeasure_name,
                },
                hint="TVLA store roots hold one store per shard; point the "
                     "campaign at a fresh directory",
                key=self.key,
                **tvla_store_meta(self.spec, self.fixed_plaintext),
                n_samples=self.segment_length,
                block_size=len(self.fixed_plaintext),
            )
        tasks = [
            (parallel_tvla.run_tvla_shard, self.spec, shard,
             self.fixed_plaintext, self.key, self.segment_length,
             self.store_root, self.batch_size, self.nop_header,
             self.threshold, self.fault_plan)
            for shard in plan_shards(self.seed, n_per_group, self.shard_size)
        ]
        accumulator = WelchTAccumulator(threshold=self.threshold)
        resumed = 0

        def merge(result) -> None:
            nonlocal resumed
            accumulator.merge(result.accumulator)
            resumed += result.replayed
            if verbose:
                print(
                    f"[tvla x{self.workers}] shard {result.index}: "
                    f"{result.accumulator.n_fixed} fixed / "
                    f"{result.accumulator.n_random} random"
                )

        _, failures, _, _ = run_shards(
            tasks, [len(tasks)], merge, self.workers, self.retry_policy,
            journal,
        )
        partial = bool(failures)
        if partial and (accumulator.n_fixed < 2 or accumulator.n_random < 2):
            if journal is not None:
                journal.set_phase("failed")
            raise failures[0]
        self.accumulator = accumulator
        self.resumed_from = resumed
        self.partial = partial
        self.failed_shards = tuple(f.index for f in failures)
        if journal is not None:
            journal.set_phase("partial" if partial else "complete")
        return self.result()

    def result(self) -> TvlaResult:
        """The verdict over everything merged so far."""
        return TvlaResult.of(
            self.accumulator, self.countermeasure_name,
            partial=self.partial, failed_shards=self.failed_shards,
        )

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
existing platform machinery: two platforms built from one
:class:`~repro.soc.platform.PlatformSpec` (one per population, with
seeds spawned from the campaign seed so the populations are independent
streams), segments cut by :meth:`capture_attack_segments`, an optional
:class:`~repro.campaign.store.TraceStore` for durability.  Stored traces
are classified on resume by comparing their plaintext to the fixed
vector, so an interrupted campaign replays, fast-forwards both platform
streams, and continues to exactly the verdict an uninterrupted run
reaches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.attacks.assessment import TVLA_THRESHOLD
from repro.campaign.store import TraceStore
from repro.errors import require_compatible
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
        with np.load(path) as state:
            require_compatible(path, {"kind": str(state.get("kind"))},
                               kind=cls._KIND)
            config = json.loads(str(state["config"]))
            accumulator = cls(threshold=config["threshold"])
            accumulator._n = {
                g: int(state["n"][i]) for i, g in enumerate(_GROUPS)
            }
            accumulator._sums = {
                g: state["sums"][i].copy() for i, g in enumerate(_GROUPS)
            }
            accumulator._sumsq = {
                g: state["sumsq"][i].copy() for i, g in enumerate(_GROUPS)
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


class TvlaCampaign:
    """Interleaved fixed-vs-random capture feeding a Welch-t verdict.

    Parameters
    ----------
    spec:
        The platform recipe (cipher, countermeasures, capture mode) both
        populations are captured on.
    seed:
        Campaign seed; the two populations' platform seeds and the shared
        key are spawned from it, so a campaign is fully reproducible.  A
        :class:`numpy.random.SeedSequence` is accepted in place of the
        integer — the sharded parallel campaign seeds each shard's
        sub-campaign with the shard's spawned child.
    fixed_plaintext:
        The fixed population's input; the CRI AES-128 vector by default.
    key:
        Shared key of both populations; derived from ``seed`` when
        omitted.
    segment_length:
        Samples per stored segment; the fixed platform's empirical mean
        CO length when omitted.
    store_dir:
        Optional durable trace-store directory, opened or created with
        the campaign's geometry, key and :meth:`store_meta` (a store
        captured under other settings is refused).  Existing content is
        classified by plaintext (fixed vector or not), replayed into the
        accumulator, and both platform streams are fast-forwarded past
        their share — resuming an interrupted campaign reaches the
        verdict of an uninterrupted one.
    batch_size:
        Traces captured per population per interleaving round.
    replay_limit:
        Per-population cap on traces replayed from the store.  A sharded
        parallel campaign resumes each shard with the shard's trace quota
        here, so a store captured under a larger budget replays only the
        shard-sized prefix instead of splicing extra traces into the
        verdict.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        seed: "int | np.random.SeedSequence" = 0,
        fixed_plaintext: bytes | None = None,
        key: bytes | None = None,
        segment_length: int | None = None,
        store_dir=None,
        batch_size: int = 256,
        nop_header: int = 96,
        threshold: float = TVLA_THRESHOLD,
        replay_limit: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if replay_limit is not None and replay_limit < 0:
            raise ValueError("replay_limit must be >= 0")
        self.spec = spec
        if isinstance(seed, np.random.SeedSequence):
            root = seed
            # store_meta must stay JSON-serializable: describe the
            # sequence by its construction instead of the object.
            entropy = seed.entropy
            self.seed = {
                "entropy": (
                    None if entropy is None
                    else int(entropy) if np.isscalar(entropy)
                    else [int(word) for word in entropy]
                ),
                "spawn_key": [int(word) for word in seed.spawn_key],
            }
        else:
            self.seed = int(seed)
            root = np.random.SeedSequence(self.seed)
        self.batch_size = int(batch_size)
        self.nop_header = int(nop_header)
        self.replay_limit = (
            None if replay_limit is None else int(replay_limit)
        )
        fixed_seed, random_seed, key_seed = root.spawn(3)
        self._platforms = {
            "fixed": spec.build(fixed_seed),
            "random": spec.build(random_seed),
        }
        block = self._platforms["fixed"].cipher.block_size
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
            else np.random.default_rng(key_seed).bytes(
                self._platforms["fixed"].cipher.key_size
            )
        )
        if segment_length is None:
            # The default assessment window stops before the cipher's
            # unmasked output handling: recombining the shares trivially
            # exposes the ciphertext (fixed vs random by construction),
            # which is outside any masking claim — standard TVLA practice
            # excludes input/output handling from the verdict.  The scope's
            # band-limit FIR shows the first trailer op (raw ciphertext
            # byte 0) ``right_halo`` samples early, so those go too.
            platform = self._platforms["fixed"]
            scope = platform.oscilloscope
            trailer = (platform.cipher.unmasked_trailer_ops
                       * scope.samples_per_op)
            if trailer:
                trailer += scope.right_halo
            segment_length = platform.mean_co_samples() - trailer
        self.segment_length = int(segment_length)
        self.accumulator = WelchTAccumulator(threshold=threshold)
        self.store = None
        self.resumed_from = 0
        self.store_quarantined = 0
        if store_dir is not None:
            store = self.store = TraceStore.open_or_create(
                store_dir,
                n_samples=self.segment_length,
                block_size=block,
                key=self.key,
                meta=self.store_meta(),
            )
            # Quarantine any corrupt/orphaned tail before replay: the
            # populations re-interleave deterministically, so the campaign
            # re-captures the dropped suffix instead of crashing here.
            self.store_quarantined = len(store.recover().quarantined)
            if len(store):
                self._replay(store)

    @property
    def countermeasure_name(self) -> str:
        return self._platforms["fixed"].countermeasure_name

    def _replay(self, store: TraceStore) -> None:
        """Classify and fold stored traces; fast-forward both streams.

        With a ``replay_limit`` each population folds at most that many
        stored traces (the stream is interleaved in capture order, so the
        kept traces are exactly the prefix the capped campaign captured).
        """
        fixed_row = np.frombuffer(self.fixed_plaintext, dtype=np.uint8)
        for traces, plaintexts in store.iter_chunks(self.batch_size):
            is_fixed = np.all(
                np.asarray(plaintexts) == fixed_row[None, :], axis=1
            )
            for group, mask in (("fixed", is_fixed), ("random", ~is_fixed)):
                if not mask.any():
                    continue
                chunk = np.asarray(traces)[mask]
                if self.replay_limit is not None:
                    room = self.replay_limit - self._n_group(group)
                    if room <= 0:
                        continue
                    chunk = chunk[:room]
                self.accumulator.update(group, chunk)
            if self.replay_limit is not None and all(
                self._n_group(group) >= self.replay_limit
                for group in ("fixed", "random")
            ):
                break
        self.resumed_from = self.accumulator.n_traces
        # Each platform's randomness is one seeded stream in capture
        # order; re-drawing the replayed captures is the only way to
        # continue it (same discipline as PlatformSegmentSource.skip).
        self._skip("fixed", self.accumulator.n_fixed)
        self._skip("random", self.accumulator.n_random)

    def _n_group(self, group: str) -> int:
        return (
            self.accumulator.n_fixed if group == "fixed"
            else self.accumulator.n_random
        )

    def _skip(self, group: str, count: int) -> None:
        remaining = count
        while remaining > 0:
            step = min(self.batch_size, remaining)
            self._capture(group, step)
            remaining -= step

    def _capture(self, group: str, count: int) -> tuple[np.ndarray, np.ndarray]:
        platform = self._platforms[group]
        return platform.capture_attack_segments(
            count,
            key=self.key,
            segment_length=self.segment_length,
            nop_header=self.nop_header,
            batch_size=self.batch_size,
            plaintext=self.fixed_plaintext if group == "fixed" else None,
        )

    def run(self, n_per_group: int, verbose: bool = False) -> TvlaResult:
        """Capture until both populations hold ``n_per_group`` traces.

        Populations are captured in alternating ``batch_size`` rounds
        (the interleaved acquisition the TVLA methodology prescribes to
        decorrelate environmental drift — inert in simulation but kept
        for fidelity).  Counts include resumed traces.
        """
        if n_per_group < 2:
            raise ValueError("n_per_group must be >= 2")
        self.capture(n_per_group, verbose=verbose)
        return self.result()

    def capture(self, n_per_group: int, verbose: bool = False) -> None:
        """The capture loop of :meth:`run`, without the verdict.

        Split out so a sharded parallel campaign can fill shard-sized
        accumulators (possibly below the two-trace minimum a verdict
        needs) and compute the statistic only after the merge.
        """
        if n_per_group < 1:
            raise ValueError("n_per_group must be >= 1")
        while (
            self.accumulator.n_fixed < n_per_group
            or self.accumulator.n_random < n_per_group
        ):
            for group, have in (
                ("fixed", self.accumulator.n_fixed),
                ("random", self.accumulator.n_random),
            ):
                want = min(self.batch_size, n_per_group - have)
                if want <= 0:
                    continue
                traces, plaintexts = self._capture(group, want)
                if self.store is not None:
                    self.store.append(traces, plaintexts)
                self.accumulator.update(group, traces)
            if verbose:
                print(
                    f"[tvla] {self.accumulator.n_fixed:>6d} fixed / "
                    f"{self.accumulator.n_random:>6d} random traces"
                )

    def result(self) -> TvlaResult:
        """The verdict over everything accumulated so far."""
        return TvlaResult.of(self.accumulator, self.countermeasure_name)

    def store_meta(self) -> dict:
        """The metadata a durable TVLA store should be created with."""
        return {
            "purpose": "tvla",
            "fixed_plaintext": self.fixed_plaintext.hex(),
            "countermeasure": self.countermeasure_name,
            "capture_mode": self.spec.capture_mode,
            "cipher": self.spec.cipher_name,
            "seed": self.seed,
        }

"""Process-parallel sharded TVLA campaigns.

The sharding discipline is the attack campaigns'
(:mod:`repro.runtime.parallel`): the per-group trace budget is cut into
fixed shards, shard ``i`` runs a complete miniature
:class:`~repro.evaluation.tvla.TvlaCampaign` seeded with the ``i``-th
spawned child of the campaign seed, and the parent merges the shards'
:class:`~repro.evaluation.tvla.WelchTAccumulator` statistics in shard
order.  Welch-t sufficient statistics merge *exactly*, so for a fixed
``(spec, seed, shard_size)`` the merged t-map and verdict are independent
of ``workers`` — parallelism is a pure wall-clock multiplier, and
``workers=1`` runs the identical shard plan inline as the like-for-like
serial reference the test suite pins against.

The campaign-wide inputs every shard must agree on — the shared key, the
fixed plaintext, and the resolved segment length — are derived **once**
by the parent (with the exact defaulting rules of the serial campaign)
and passed to every shard explicitly, so shards cannot drift apart on
derived configuration.

Durability mirrors :class:`~repro.runtime.parallel.ParallelCampaign`: each
shard persists to its own ``shard-NNNNNN`` trace-store directory under
``store_root``, resume replays each shard directory into its worker's
accumulator (capped at the shard's quota via ``replay_limit``, so stores
captured under a larger budget do not splice extra traces in), and a
serial single-store directory is refused rather than silently recaptured
next to.  Fault tolerance mirrors it too: shards retry with backoff
through :class:`~repro.runtime.retry.ShardExecutor` (bit-identical by
the deterministic-reseed property), corrupt shard stores are quarantined
and re-captured on resume, and exhausted retries degrade to a
``partial=True`` verdict over the completed shard prefix with the run
journalled under ``store_root``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.attacks.assessment import TVLA_THRESHOLD
from repro.evaluation.tvla import TvlaCampaign, TvlaResult, WelchTAccumulator
from repro.runtime.parallel import (
    ShardSpec,
    open_store_root,
    plan_shards,
    recover_shard_store,
)
from repro.runtime.retry import RetryPolicy, ShardExecutor, ShardFailure
from repro.soc.platform import PlatformSpec

__all__ = [
    "ParallelTvlaCampaign",
    "TvlaShardResult",
    "run_tvla_shard",
]


@dataclass
class TvlaShardResult:
    """What one TVLA shard worker ships back to the merging parent."""

    index: int
    accumulator: WelchTAccumulator
    replayed: int
    capture_seconds: float
    quarantined: int = 0        # corrupt files quarantined before resume


def run_tvla_shard(
    spec: PlatformSpec,
    shard: ShardSpec,
    fixed_plaintext: bytes,
    key: bytes,
    segment_length: int,
    store_root=None,
    batch_size: int = 256,
    nop_header: int = 96,
    threshold: float = TVLA_THRESHOLD,
    fault_plan=None,
) -> TvlaShardResult:
    """Capture (or resume) one shard's fixed+random populations.

    The shard is a complete :class:`TvlaCampaign` seeded with the shard's
    spawned child sequence; the campaign-wide key, fixed plaintext, and
    segment length arrive pre-derived so every shard captures the same
    configuration.  With a ``store_root`` the shard persists under its own
    ``shard-<index>`` directory — integrity-checked and quarantined as
    needed before resume — and replays at most ``shard.count`` traces per
    population.  ``fault_plan`` is the chaos-test hook.
    """
    store_dir = None
    quarantined = 0
    if store_root is not None:
        # Recover before the campaign opens the store: an unparseable
        # manifest quarantines the whole directory, which open_or_create
        # could not survive.
        store_dir, quarantined = recover_shard_store(store_root, shard.index)
    campaign = TvlaCampaign(
        spec,
        seed=shard.seed_sequence,
        fixed_plaintext=fixed_plaintext,
        key=key,
        segment_length=segment_length,
        store_dir=store_dir,
        batch_size=batch_size,
        nop_header=nop_header,
        threshold=threshold,
        replay_limit=shard.count,
    )
    if fault_plan is not None:
        fault_plan.maybe_fire(
            shard.index, done=campaign.resumed_from, store=campaign.store
        )
    begin = time.perf_counter()
    campaign.capture(shard.count)
    return TvlaShardResult(
        index=shard.index,
        accumulator=campaign.accumulator,
        replayed=campaign.resumed_from,
        capture_seconds=time.perf_counter() - begin,
        quarantined=quarantined + campaign.store_quarantined,
    )


class ParallelTvlaCampaign:
    """Fan a TVLA campaign's capture over a process pool and merge.

    Parameters mirror :class:`~repro.evaluation.tvla.TvlaCampaign` where
    they overlap; the additions are ``workers`` (pool width; 1 runs the
    shards inline — the serial reference of the same shard plan),
    ``shard_size`` (traces **per population** per shard — the unit of
    parallel work and seed derivation), and ``store_root`` (a directory of
    per-shard trace stores in place of the serial campaign's single
    store).

    For a fixed ``(spec, seed, shard_size)`` the captured populations,
    the merged t-map, and the verdict are independent of ``workers``.
    Note the sharded trace streams differ from a plain unsharded
    ``TvlaCampaign`` of the same seed (each shard captures on freshly
    seeded platforms), exactly as the sharded attack campaigns differ
    from their unsharded serial equivalents.
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
        # Derive the campaign-wide configuration exactly as the serial
        # campaign would (key spawned from the campaign seed, CRI fixed
        # vector cut to the block, segment length from the platform's
        # empirical CO length) — the probe campaign captures nothing.
        probe = TvlaCampaign(
            spec,
            seed=self.seed,
            fixed_plaintext=fixed_plaintext,
            key=key,
            segment_length=segment_length,
            batch_size=self.batch_size,
            nop_header=self.nop_header,
            threshold=self.threshold,
        )
        self.fixed_plaintext = probe.fixed_plaintext
        self.key = probe.key
        self.segment_length = probe.segment_length
        self.countermeasure_name = probe.countermeasure_name
        self.accumulator = WelchTAccumulator(threshold=self.threshold)
        self.resumed_from = 0
        self.partial = False
        self.failed_shards: tuple[int, ...] = ()

    def run(self, n_per_group: int, verbose: bool = False) -> TvlaResult:
        """Capture until both merged populations hold ``n_per_group``.

        Failed shards retry through the campaign's
        :class:`~repro.runtime.retry.RetryPolicy`; a shard that exhausts
        its retries degrades the run to a ``partial=True`` verdict over
        the completed shard prefix (the
        :class:`~repro.runtime.retry.ShardFailure` propagates instead
        when the prefix holds fewer than two traces per population — no
        t-statistic exists to report).
        """
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
            )
        shards = plan_shards(self.seed, n_per_group, self.shard_size)
        if journal is not None:
            journal.begin(len(shards))

        def on_event(index: int, state: str, retries: int) -> None:
            if journal is not None:
                journal.update_shard(index, state)
            if verbose and state in ("retrying", "failed"):
                print(
                    f"[tvla x{self.workers}] shard {index} {state} "
                    f"(retries {retries})"
                )

        executor = ShardExecutor(
            workers=self.workers, policy=self.retry_policy, on_event=on_event
        )
        accumulator = WelchTAccumulator(threshold=self.threshold)
        resumed = 0
        capture_seconds = 0.0
        failures: list[ShardFailure] = []
        try:
            for shard in shards:
                executor.submit(
                    shard.index, run_tvla_shard, self.spec, shard,
                    self.fixed_plaintext, self.key, self.segment_length,
                    self.store_root, self.batch_size, self.nop_header,
                    self.threshold, self.fault_plan,
                )
            for shard in shards:
                try:
                    result = executor.result(shard.index)
                except ShardFailure as failure:
                    failures.append(failure)
                    break
                accumulator.merge(result.accumulator)
                resumed += result.replayed
                capture_seconds += result.capture_seconds
                if journal is not None and result.quarantined:
                    journal.update_shard(shard.index, "done", quarantined=True)
                if verbose:
                    print(
                        f"[tvla x{self.workers}] shard {result.index}: "
                        f"{result.accumulator.n_fixed} fixed / "
                        f"{result.accumulator.n_random} random"
                    )
        except BaseException:
            # Interrupt / unexpected error: terminate workers outright so
            # no zombie keeps capturing after the parent unwinds.
            if journal is not None:
                journal.set_phase("interrupted")
            executor.close(force=True)
            raise
        executor.close(force=bool(failures))
        partial = bool(failures)
        if partial and (accumulator.n_fixed < 2 or accumulator.n_random < 2):
            if journal is not None:
                journal.set_phase("failed")
            raise failures[0]
        self.accumulator = accumulator
        self.resumed_from = resumed
        self.capture_seconds = capture_seconds
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

"""Sharded process-parallel TVLA: worker-count invariance and durability.

The contract under test is the one the module docstring promises: for a
fixed ``(spec, seed, shard_size)`` the merged Welch-t statistics are
*bit-identical* for any worker count (``workers=1`` runs the same shard
plan inline), the shard plan handles a partial final shard, per-shard
stores resume to exactly the uninterrupted verdict, ``replay_limit``
keeps over-full shard stores from splicing extra traces in, and a serial
single-store directory is refused rather than silently recaptured over.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import TraceStore
from repro.evaluation import (
    ParallelTvlaCampaign,
    TvlaCampaign,
    WelchTAccumulator,
    run_tvla_shard,
)
from repro.runtime.parallel import plan_shards
from repro.soc.platform import PlatformSpec


def _spec(**kwargs):
    defaults = dict(
        cipher_name="aes", max_delay=0, noise_std=1.0, capture_mode="fast"
    )
    defaults.update(kwargs)
    return PlatformSpec(**defaults)


def _campaign(workers=1, shard_size=8, store_root=None,
              capture_mode="fast", **kwargs):
    defaults = dict(seed=9, segment_length=160, batch_size=8)
    defaults.update(kwargs)
    return ParallelTvlaCampaign(
        _spec(capture_mode=capture_mode), workers=workers,
        shard_size=shard_size, store_root=store_root, **defaults,
    )


class TestWorkerInvariance:
    def test_pool_matches_inline_reference_bit_exactly(self):
        """workers=2 and workers=1 run the same shard plan: identical
        t-maps (not just close) and identical verdicts."""
        want = _campaign(workers=1).run(24)
        got = _campaign(workers=2).run(24)
        assert np.array_equal(got.t, want.t)
        assert got.leakage_detected == want.leakage_detected
        assert got.max_abs_t == want.max_abs_t
        assert (got.n_fixed, got.n_random) == (24, 24)

    def test_partial_final_shard_fills_the_budget(self):
        result = _campaign(workers=2).run(20)   # shards of 8, 8, 4
        assert result.n_fixed == result.n_random == 20

    def test_manual_shard_merge_matches_the_campaign(self):
        """run_tvla_shard + accumulator.merge is the whole campaign."""
        campaign = _campaign(workers=1)
        want = campaign.run(24)
        acc = WelchTAccumulator(threshold=campaign.threshold)
        for shard in plan_shards(campaign.seed, 24, campaign.shard_size):
            acc.merge(run_tvla_shard(
                campaign.spec, shard, campaign.fixed_plaintext,
                campaign.key, campaign.segment_length,
                batch_size=campaign.batch_size,
            ).accumulator)
        assert np.array_equal(acc.t(), want.t)

    def test_probe_derives_the_serial_configuration(self):
        """Shards inherit key/fixed vector/segment length exactly as the
        serial campaign of the same seed would derive them."""
        parallel = ParallelTvlaCampaign(_spec(), seed=5)
        serial = TvlaCampaign(_spec(), seed=5)
        assert parallel.key == serial.key
        assert parallel.fixed_plaintext == serial.fixed_plaintext
        assert parallel.segment_length == serial.segment_length
        assert parallel.countermeasure_name == serial.countermeasure_name


class TestDurability:
    """Resume/replay bit-identity needs ``exact`` capture: the fast path
    draws bulk randomness per capture call, so its stream depends on the
    call boundaries that resuming necessarily changes (the same caveat
    the serial resume contract carries)."""

    def test_per_shard_resume_equals_uninterrupted(self, tmp_path):
        exact = dict(capture_mode="exact")
        want = _campaign(workers=1, **exact).run(24)

        root = tmp_path / "shards"
        _campaign(workers=1, store_root=root, **exact).run(10)  # interrupted
        assert (root / "shard-000000" / "manifest.json").is_file()
        resumed = _campaign(workers=2, store_root=root, **exact)
        got = resumed.run(24)
        assert resumed.resumed_from > 0
        assert np.array_equal(got.t, want.t)
        assert got.n_fixed == got.n_random == 24

    def test_replay_limit_caps_an_overfull_shard_store(self, tmp_path):
        """A store captured under a larger budget replays only each
        shard's quota — shrinking the budget still gives the fresh
        small-budget statistics."""
        exact = dict(capture_mode="exact")
        want = _campaign(workers=1, **exact).run(20)

        root = tmp_path / "shards"
        _campaign(workers=1, store_root=root, **exact).run(24)
        resumed = _campaign(workers=1, store_root=root, **exact)
        got = resumed.run(20)
        # Every one of the 20+20 traces came back off disk, none fresh.
        assert resumed.resumed_from == 40
        assert got.n_fixed == got.n_random == 20
        assert np.array_equal(got.t, want.t)

    def test_serial_store_root_is_refused(self, tmp_path):
        serial_dir = tmp_path / "serial"
        TraceStore.create(serial_dir, n_samples=160)
        with pytest.raises(ValueError, match="serial TraceStore"):
            _campaign(workers=1, store_root=serial_dir).run(4)


class TestValidation:
    def test_rejects_bad_worker_and_shard_counts(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelTvlaCampaign(_spec(), workers=0)
        with pytest.raises(ValueError, match="shard_size"):
            ParallelTvlaCampaign(_spec(), shard_size=0)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError, match="n_per_group"):
            _campaign().run(1)

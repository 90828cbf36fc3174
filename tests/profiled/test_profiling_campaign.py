"""The profiling phase: known-key capture, durable stores, exact resume."""

from __future__ import annotations

import numpy as np
import pytest
from factories import KEY, SyntheticSource

from repro.campaign import TraceStore
from repro.profiled import ProfilingCampaign
from repro.runtime.faults import corrupt_store

SMALL_KEY = KEY[:4]


def _store(tmp_path, name="store", key=SMALL_KEY, n_samples=40, block_size=4):
    return TraceStore.create(
        tmp_path / name, n_samples=n_samples, block_size=block_size, key=key
    )


class TestValidation:
    def test_store_is_required(self, tmp_path):
        with pytest.raises(ValueError, match="trace store"):
            ProfilingCampaign(SyntheticSource(SMALL_KEY), None)

    def test_source_needs_a_known_key(self, tmp_path):
        source = SyntheticSource(SMALL_KEY)
        source.true_key = None
        with pytest.raises(ValueError, match="true_key"):
            ProfilingCampaign(source, _store(tmp_path))

    def test_store_schema_must_match_the_source(self, tmp_path):
        source = SyntheticSource(SMALL_KEY)  # 40 samples
        with pytest.raises(ValueError, match="sample"):
            ProfilingCampaign(source, _store(tmp_path, n_samples=24))

    def test_store_key_must_match_the_source(self, tmp_path):
        store = _store(tmp_path, key=bytes(4))
        with pytest.raises(ValueError, match="key"):
            ProfilingCampaign(SyntheticSource(SMALL_KEY), store)

    def test_run_needs_a_positive_budget(self, tmp_path):
        campaign = ProfilingCampaign(SyntheticSource(SMALL_KEY), _store(tmp_path))
        with pytest.raises(ValueError, match="n_traces"):
            campaign.run(0)


class TestRun:
    def test_run_fills_the_store_and_the_stats(self, tmp_path):
        store = _store(tmp_path)
        campaign = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=3), store, batch_size=64
        )
        result = campaign.run(200)
        assert result.n_traces == 200
        assert len(store) == 200
        assert result.resumed_from == 0
        assert result.stats.n_traces == 200
        assert result.snr().shape == (4, 40)

    def test_result_selects_the_leaky_pois(self, tmp_path):
        campaign = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=3), _store(tmp_path)
        )
        result = campaign.run(500)
        pois = result.select_pois(1)
        np.testing.assert_array_equal(pois[:, 0], [0, 2, 4, 6])

    def test_resume_matches_an_uninterrupted_run(self, tmp_path):
        interrupted = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8), _store(tmp_path, "a"),
            batch_size=64,
        )
        interrupted.run(150)
        resumed = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8),
            TraceStore.open(tmp_path / "a"),
            batch_size=64,
        )
        assert resumed.resumed_from == 150
        result = resumed.run(400)
        reference = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8), _store(tmp_path, "b"),
            batch_size=64,
        ).run(400)
        assert result.n_traces == reference.n_traces == 400
        np.testing.assert_allclose(
            result.snr(), reference.snr(), atol=1e-10
        )
        np.testing.assert_allclose(
            result.stats.welch_t(), reference.stats.welch_t(), atol=1e-10
        )

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_damaged_store_resumes_to_the_uninterrupted_result(self, tmp_path, mode):
        """A corrupt last shard is quarantined, not replayed or folded in."""
        interrupted = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8), _store(tmp_path, "a"),
            batch_size=64,
        )
        interrupted.run(256)
        corrupt_store(tmp_path / "a", mode=mode, shard=-1)
        resumed = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8),
            TraceStore.open(tmp_path / "a"),
            batch_size=64,
        )
        assert resumed.store_quarantined == 2  # the shard's traces + plaintexts
        assert resumed.resumed_from == 192
        result = resumed.run(400)
        reference = ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=8), _store(tmp_path, "b"),
            batch_size=64,
        ).run(400)
        assert result.n_traces == reference.n_traces == 400
        np.testing.assert_array_equal(result.snr(), reference.snr())
        np.testing.assert_array_equal(
            result.stats.welch_t(), reference.stats.welch_t()
        )
        assert TraceStore.open(tmp_path / "a").verify().clean

    def test_budget_already_met_captures_nothing(self, tmp_path):
        store = _store(tmp_path)
        ProfilingCampaign(
            SyntheticSource(SMALL_KEY, seed=1), store
        ).run(100)
        source = SyntheticSource(SMALL_KEY, seed=1)
        campaign = ProfilingCampaign(source, TraceStore.open(tmp_path / "store"))
        captured_before = source.captured
        result = campaign.run(100)
        assert result.n_traces == 100
        assert source.captured == captured_before
        assert len(campaign.store) == 100

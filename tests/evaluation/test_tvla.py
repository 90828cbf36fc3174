"""TVLA evaluation layer: accumulator invariances and campaign parity.

The Welch-t accumulator must be a *sufficient statistic*: any chunking,
feeding order, or merge topology over the same two trace populations
yields the identical t-map (to float noise), it matches the repo's
reference ``welch_t_by_sample``, and it survives a save/load round trip.
The campaign layer on top must resume an interrupted run to exactly the
verdict of an uninterrupted one, and refuse stores whose configuration
(countermeasure, capture mode, key, fixed vector) does not match.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.assessment import welch_t_by_sample
from repro.campaign import TraceStore
from repro.evaluation import (
    DEFAULT_FIXED_PLAINTEXT,
    TvlaCampaign,
    WelchTAccumulator,
)
from repro.soc.platform import PlatformSpec


def _populations(seed, n_fixed=40, n_random=50, samples=24):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.3, 1.0, (n_fixed, samples)),
            rng.normal(0.0, 1.0, (n_random, samples)))


def _fed(fixed, random_, chunk=7):
    acc = WelchTAccumulator()
    for begin in range(0, fixed.shape[0], chunk):
        acc.update("fixed", fixed[begin: begin + chunk])
    for begin in range(0, random_.shape[0], chunk):
        acc.update("random", random_[begin: begin + chunk])
    return acc


class TestWelchTAccumulator:
    def test_matches_reference_welch_t(self):
        fixed, random_ = _populations(0)
        acc = _fed(fixed, random_)
        np.testing.assert_allclose(
            acc.t(), welch_t_by_sample(fixed, random_), atol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), chunk=st.integers(1, 41))
    def test_chunking_invariance(self, seed, chunk):
        fixed, random_ = _populations(seed)
        np.testing.assert_allclose(
            _fed(fixed, random_, chunk).t(),
            _fed(fixed, random_, 97).t(),
            atol=1e-12,
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(2, 38))
    def test_merge_equals_single_stream(self, seed, split):
        fixed, random_ = _populations(seed)
        whole = _fed(fixed, random_)
        left = _fed(fixed[:split], random_[:split])
        right = _fed(fixed[split:], random_[split:])
        merged = left.merge(right)
        assert merged.n_fixed == whole.n_fixed
        assert merged.n_random == whole.n_random
        np.testing.assert_allclose(merged.t(), whole.t(), atol=1e-12)

    def test_merge_is_commutative(self):
        fixed, random_ = _populations(3)
        a = _fed(fixed[:20], random_[:25]).merge(
            _fed(fixed[20:], random_[25:]))
        b = _fed(fixed[20:], random_[25:]).merge(
            _fed(fixed[:20], random_[:25]))
        np.testing.assert_allclose(a.t(), b.t(), atol=1e-12)

    def test_empty_accumulator_is_merge_identity(self):
        fixed, random_ = _populations(4)
        acc = _fed(fixed, random_)
        reference = acc.t()
        acc.merge(WelchTAccumulator())
        np.testing.assert_allclose(acc.t(), reference, atol=1e-12)
        fresh = WelchTAccumulator().merge(_fed(fixed, random_))
        np.testing.assert_allclose(fresh.t(), reference, atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        fixed, random_ = _populations(5)
        acc = _fed(fixed, random_)
        acc.save(tmp_path / "welch.npz")
        loaded = WelchTAccumulator.load(tmp_path / "welch.npz")
        assert loaded.n_fixed == acc.n_fixed
        assert loaded.n_random == acc.n_random
        assert loaded.threshold == acc.threshold
        np.testing.assert_allclose(loaded.t(), acc.t(), atol=1e-15)

    def test_validation_errors(self):
        acc = WelchTAccumulator()
        with pytest.raises(ValueError):
            acc.update("fixd", np.zeros((2, 4)))
        with pytest.raises(ValueError):
            acc.update("fixed", np.zeros((0, 4)))
        acc.update("fixed", np.ones((3, 4)))
        with pytest.raises(ValueError):
            acc.update("fixed", np.ones((3, 5)))
        with pytest.raises(ValueError):
            acc.t()   # < 2 random traces
        with pytest.raises(TypeError):
            acc.merge(object())
        with pytest.raises(ValueError):
            acc.merge(WelchTAccumulator(threshold=3.0))
        with pytest.raises(ValueError):
            WelchTAccumulator().save("unused.npz")

    def test_constant_samples_give_zero_t(self):
        """Zero-variance samples (key-schedule ops) must not blow up."""
        acc = WelchTAccumulator()
        acc.update("fixed", np.full((5, 3), 2.0))
        acc.update("random", np.full((6, 3), 2.0))
        np.testing.assert_array_equal(acc.t(), np.zeros(3))


def _spec(**kwargs):
    defaults = dict(cipher_name="aes", max_delay=0, noise_std=1.0)
    defaults.update(kwargs)
    return PlatformSpec(**defaults)


class TestTvlaCampaign:
    def test_interrupted_resume_equals_uninterrupted(self, tmp_path):
        """The satellite contract: stop half way, reopen, same verdict."""
        kwargs = dict(seed=9, segment_length=160, batch_size=8)
        straight = TvlaCampaign(_spec(), **kwargs)
        want = straight.run(24)

        interrupted = TvlaCampaign(
            _spec(), store_root=tmp_path / "tvla", **kwargs)
        interrupted.run(10)
        resumed = TvlaCampaign(
            _spec(), store_root=tmp_path / "tvla", **kwargs)
        got = resumed.run(24)
        assert resumed.resumed_from > 0

        assert got.n_fixed == want.n_fixed == 24
        assert got.n_random == want.n_random == 24
        np.testing.assert_allclose(got.t, want.t, atol=1e-12)

    def test_fixed_population_uses_the_fixed_vector(self, tmp_path):
        campaign = TvlaCampaign(
            _spec(), seed=1, segment_length=96, batch_size=4,
            store_root=tmp_path / "tvla",
        )
        campaign.run(8)
        store = TraceStore.open(tmp_path / "tvla" / "shard-000000")
        fixed_row = np.frombuffer(
            DEFAULT_FIXED_PLAINTEXT, dtype=np.uint8)
        plaintexts = np.concatenate(
            [pts for _, pts in store.iter_chunks(64)])
        is_fixed = np.all(plaintexts == fixed_row[None, :], axis=1)
        assert is_fixed.sum() == 8
        assert (~is_fixed).sum() == 8

    def test_cross_countermeasure_store_refused(self, tmp_path):
        kwargs = dict(seed=2, segment_length=96, batch_size=4)
        TvlaCampaign(
            _spec(), store_root=tmp_path / "tvla", **kwargs).run(4)
        with pytest.raises(ValueError, match="countermeasure"):
            TvlaCampaign(
                _spec(shuffle=True), store_root=tmp_path / "tvla",
                **kwargs).run(4)

    def test_cross_capture_mode_store_refused(self, tmp_path):
        kwargs = dict(seed=2, segment_length=96, batch_size=4)
        TvlaCampaign(
            _spec(), store_root=tmp_path / "tvla", **kwargs).run(4)
        with pytest.raises(ValueError, match="mode"):
            TvlaCampaign(
                _spec(capture_mode="fast"),
                store_root=tmp_path / "tvla", **kwargs).run(4)

    def test_different_fixed_plaintext_refused(self, tmp_path):
        kwargs = dict(seed=2, segment_length=96, batch_size=4)
        TvlaCampaign(
            _spec(), store_root=tmp_path / "tvla", **kwargs).run(4)
        with pytest.raises(ValueError, match="plaintext"):
            TvlaCampaign(
                _spec(), fixed_plaintext=bytes(16),
                store_root=tmp_path / "tvla", **kwargs).run(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TvlaCampaign(_spec(), batch_size=0)
        with pytest.raises(ValueError):
            TvlaCampaign(_spec(), fixed_plaintext=b"short")
        with pytest.raises(ValueError):
            TvlaCampaign(_spec()).run(1)

    def test_unprotected_leaks_and_masked_passes(self):
        """The matrix's two poles, at a smoke-test budget."""
        leaky = TvlaCampaign(
            _spec(capture_mode="fast"), seed=0, batch_size=64).run(64)
        assert leaky.leakage_detected
        masked = TvlaCampaign(
            _spec(cipher_name="aes_masked", capture_mode="fast"),
            seed=0, batch_size=64,
        ).run(64)
        assert not masked.leakage_detected
        assert masked.countermeasure == "RD-0"

    def test_unmasked_default_window_is_the_whole_co(self):
        """No unmasked trailer, so no FIR halo to drop either."""
        spec = _spec()
        platform = spec.build(0)
        assert platform.cipher.unmasked_trailer_ops == 0
        assert TvlaCampaign(spec, seed=0).segment_length == (
            platform.mean_co_samples())

    def test_masked_default_window_drops_the_fir_halo(self):
        """Order-1 masking passes at 8192 traces per population.

        The first unmask XOR outputs raw ciphertext byte 0.  The scope's
        band-limit FIR spreads it one sample back, before the trailer, so
        a window that kept that sample leaked at |t| ~ 30 on this seed.
        """
        from repro.evaluation import ParallelTvlaCampaign

        spec = _spec(cipher_name="aes_masked", masking_order=1)
        campaign = ParallelTvlaCampaign(
            spec, seed=2, workers=2, shard_size=1024)
        platform = spec.build(0)
        scope = platform.oscilloscope
        assert campaign.segment_length == (
            platform.mean_co_samples()
            - platform.cipher.unmasked_trailer_ops * scope.samples_per_op
            - scope.right_halo
        )
        result = campaign.run(8192)
        assert not result.leakage_detected, result.max_abs_t

"""Streamed CPA/DPA accumulators vs the closed-form batch formulas."""

from __future__ import annotations

import numpy as np
import pytest
from factories import feed_in_chunks, leaky_traces
from oracles import boxcar, cpa_byte_correlation, dpa_difference

from repro.attacks.distinguishers import CpaDistinguisher, DpaDistinguisher


class TestCpaDistinguisherEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uneven_chunks_match_batch_correlation(self, rng_factory, seed):
        """Property: any chunking reproduces the batch matrix to <= 1e-9."""
        rng = rng_factory(seed)
        key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        traces, pts = leaky_traces(rng, 400, key, noise=0.8)
        splits = np.sort(rng.choice(np.arange(1, 400), size=7, replace=False))
        acc = feed_in_chunks(CpaDistinguisher(), traces, pts, splits)
        assert acc.n_traces == 400
        for b in range(16):
            np.testing.assert_allclose(
                acc.correlation(b),
                cpa_byte_correlation(traces, pts[:, b]),
                atol=1e-9,
            )

    def test_recovers_same_key_as_batch(self, rng):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        traces, pts = leaky_traces(rng, 600, key, noise=1.0)
        acc = feed_in_chunks(CpaDistinguisher(), traces, pts, [3, 10, 64, 500])
        assert acc.recovered_key() == (
            CpaDistinguisher().batch(traces, pts).recovered_key()
        )
        assert acc.recovered_key() == key
        assert acc.key_ranks(key) == [1] * 16

    def test_large_dc_offset_stays_exact(self, rng):
        """The fixed-reference centring keeps big DC components harmless."""
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 300, key, noise=0.5, offset=5000.0)
        acc = feed_in_chunks(CpaDistinguisher(), traces, pts, [1, 2, 150])
        for b in (0, 9, 15):
            np.testing.assert_allclose(
                acc.correlation(b),
                cpa_byte_correlation(traces, pts[:, b]),
                atol=1e-9,
            )

    def test_aggregate_matches_batch_attack(self, rng):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 500, key, noise=0.5, samples=64)
        acc = feed_in_chunks(
            CpaDistinguisher(aggregate=8), traces, pts, [123, 321]
        )
        scores = acc.guess_scores()
        aggregated = boxcar(traces, 8)
        for b in range(16):
            np.testing.assert_allclose(
                scores[b],
                np.abs(cpa_byte_correlation(aggregated, pts[:, b])).max(axis=1),
                atol=1e-9,
            )
        assert acc.n_samples == 64 // 8

    def test_zero_variance_sample_gives_zero(self, rng):
        key = bytes(16)
        traces, pts = leaky_traces(rng, 120, key)
        traces[:, 1] = 5.0
        acc = feed_in_chunks(CpaDistinguisher(), traces, pts, [40, 80])
        np.testing.assert_array_equal(acc.correlation(0)[:, 1], 0.0)

    def test_non_16_byte_blocks(self, rng):
        """The byte count follows the plaintext width (satellite check)."""
        key = bytes(range(8))
        traces, pts = leaky_traces(rng, 400, key, noise=0.5, samples=20)
        acc = feed_in_chunks(CpaDistinguisher(), traces, pts, [100])
        assert acc.n_bytes == 8
        assert acc.recovered_key() == key
        assert CpaDistinguisher().batch(traces, pts).recovered_key() == key


class TestCpaDistinguisherValidation:
    def test_needs_three_traces_for_correlation(self, rng):
        key = bytes(16)
        traces, pts = leaky_traces(rng, 2, key)
        acc = CpaDistinguisher()
        acc.update(traces, pts)
        with pytest.raises(ValueError):
            acc.correlation(0)

    def test_rejects_mismatched_chunk_shapes(self, rng):
        key = bytes(16)
        traces, pts = leaky_traces(rng, 10, key)
        acc = CpaDistinguisher()
        acc.update(traces, pts)
        with pytest.raises(ValueError):
            acc.update(traces[:, :20], pts)
        with pytest.raises(ValueError):
            acc.update(traces, pts[:, :8])
        with pytest.raises(ValueError):
            acc.update(traces[:4], pts)

    def test_rejects_empty_chunk(self, rng):
        acc = CpaDistinguisher()
        with pytest.raises(ValueError):
            acc.update(np.zeros((0, 10)), np.zeros((0, 16), dtype=np.uint8))

    def test_rejects_bad_aggregate(self):
        with pytest.raises(ValueError):
            CpaDistinguisher(aggregate=0)

    def test_rejects_bad_byte_index(self, rng):
        key = bytes(16)
        traces, pts = leaky_traces(rng, 10, key)
        acc = CpaDistinguisher()
        acc.update(traces, pts)
        with pytest.raises(ValueError):
            acc.correlation(16)


class TestCpaDistinguisherPersistence:
    def test_save_load_roundtrip(self, rng, tmp_path):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 200, key, noise=0.5)
        acc = feed_in_chunks(CpaDistinguisher(aggregate=2), traces, pts, [77])
        path = tmp_path / "cpa_state.npz"
        acc.save(path)
        restored = CpaDistinguisher.load(path)
        assert restored.n_traces == acc.n_traces
        assert restored.aggregate == acc.aggregate
        assert restored.n_bytes == acc.n_bytes
        for b in (0, 15):
            np.testing.assert_array_equal(
                restored.correlation(b), acc.correlation(b)
            )

    def test_loaded_state_keeps_accumulating(self, rng, tmp_path):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 300, key, noise=0.5)
        acc = CpaDistinguisher()
        acc.update(traces[:120], pts[:120])
        acc.save(tmp_path / "state.npz")
        restored = CpaDistinguisher.load(tmp_path / "state.npz")
        restored.update(traces[120:], pts[120:])
        for b in (3, 11):
            np.testing.assert_allclose(
                restored.correlation(b),
                cpa_byte_correlation(traces, pts[:, b]),
                atol=1e-9,
            )

    def test_load_rejects_foreign_npz(self, tmp_path):
        np.savez(tmp_path / "other.npz", kind=np.array("something"))
        with pytest.raises(ValueError):
            CpaDistinguisher.load(tmp_path / "other.npz")


class TestDpaDistinguisherEquivalence:
    def test_uneven_chunks_match_batch_difference(self, rng):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 350, key, noise=0.8)
        acc = feed_in_chunks(DpaDistinguisher(), traces, pts, [3, 50, 51, 200])
        for b in (0, 7, 15):
            diff = acc.difference(b)
            for guess in (0, key[b], 255):
                np.testing.assert_allclose(
                    diff[guess],
                    dpa_difference(traces, pts[:, b])[guess],
                    atol=1e-9,
                )

    def test_matches_batch_attack_scores(self, rng):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 400, key, noise=0.5)
        acc = feed_in_chunks(DpaDistinguisher(), traces, pts, [199])
        scores = acc.guess_scores()
        for b in (0, 8):
            batch_scores = np.abs(dpa_difference(traces, pts[:, b])).max(axis=1)
            np.testing.assert_allclose(scores[b], batch_scores, atol=1e-9)
            assert scores[b].argmax() == batch_scores.argmax()

    def test_save_load_roundtrip(self, rng, tmp_path):
        key = bytes(range(16))
        traces, pts = leaky_traces(rng, 150, key, noise=0.5)
        acc = feed_in_chunks(DpaDistinguisher(), traces, pts, [60])
        acc.save(tmp_path / "dpa.npz")
        restored = DpaDistinguisher.load(tmp_path / "dpa.npz")
        assert restored.n_traces == acc.n_traces
        for b in (0, 15):
            np.testing.assert_array_equal(
                restored.difference(b), acc.difference(b)
            )

    def test_load_rejects_cpa_checkpoint(self, rng, tmp_path):
        key = bytes(16)
        traces, pts = leaky_traces(rng, 10, key)
        cpa = CpaDistinguisher()
        cpa.update(traces, pts)
        cpa.save(tmp_path / "cpa.npz")
        with pytest.raises(ValueError):
            DpaDistinguisher.load(tmp_path / "cpa.npz")

    def test_empty_partition_gives_zero_row(self, rng):
        """A constant plaintext byte one-sides every guess's partition."""
        key = bytes(16)
        traces, pts = leaky_traces(rng, 50, key)
        pts[:, 0] = 7
        acc = DpaDistinguisher()
        acc.update(traces, pts)
        diff = acc.difference(0)
        np.testing.assert_array_equal(diff, 0.0)
        np.testing.assert_array_equal(dpa_difference(traces, pts[:, 0]), 0.0)

"""First-order CPA (the ``cpa`` distinguisher) on synthetic HW leakage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.distinguishers import CpaDistinguisher
from repro.attacks.leakage_models import hw_byte
from repro.ciphers.aes import SBOX

_SBOX = np.asarray(SBOX, dtype=np.uint8)


def synthetic_traces(rng, n, key, noise=1.0, samples=40, leak_pos=None):
    """Traces leaking HW(SBOX[pt ^ key_b]) for every byte at known positions."""
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    traces = rng.normal(0, noise, (n, samples))
    positions = leak_pos or {b: 2 * b for b in range(16)}
    for b, pos in positions.items():
        inter = _SBOX[pts[:, b] ^ key[b]]
        traces[:, pos] += hw_byte(inter)
    return traces, pts


def byte_correlation(traces, pt_bytes):
    """One-shot correlation matrix for one key byte."""
    return CpaDistinguisher().batch(traces, pt_bytes[:, None]).correlation(0)


class TestByteCorrelation:
    def test_correct_key_peaks_at_leak_sample(self, rng):
        key = bytes(range(16))
        traces, pts = synthetic_traces(rng, 400, key, noise=0.5)
        corr = byte_correlation(traces, pts[:, 3])
        best_guess = np.unravel_index(np.abs(corr).argmax(), corr.shape)[0]
        assert best_guess == key[3]
        assert np.abs(corr[key[3]]).argmax() == 6  # leak position 2*3

    def test_shape(self, rng):
        key = bytes(16)
        traces, pts = synthetic_traces(rng, 100, key)
        corr = byte_correlation(traces, pts[:, 0])
        assert corr.shape == (256, 40)

    def test_values_bounded(self, rng):
        key = bytes(16)
        traces, pts = synthetic_traces(rng, 100, key)
        corr = byte_correlation(traces, pts[:, 0])
        assert np.abs(corr).max() <= 1.0

    def test_rejects_too_few_traces(self, rng):
        with pytest.raises(ValueError):
            byte_correlation(
                np.zeros((2, 5)), np.zeros(2, dtype=np.uint8)
            )

    def test_zero_variance_sample_gives_zero(self, rng):
        key = bytes(16)
        traces, pts = synthetic_traces(rng, 100, key)
        traces[:, 0] = 5.0
        corr = byte_correlation(traces, pts[:, 0])
        np.testing.assert_array_equal(corr[:, 0], 0.0)


class TestFullAttack:
    def test_recovers_full_key(self, rng):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        traces, pts = synthetic_traces(rng, 600, key, noise=1.0)
        recovered = CpaDistinguisher().batch(traces, pts).recovered_key()
        assert recovered == key

    def test_attack_reports_peak_correlations(self, rng):
        key = bytes(range(16))
        traces, pts = synthetic_traces(rng, 500, key, noise=0.5)
        scores = CpaDistinguisher().batch(traces, pts).guess_scores()
        assert scores.shape == (16, 256)
        assert (scores.max(axis=1) > 0.5).all()

    def test_aggregation_tolerates_jitter(self, rng):
        """With per-trace jitter, aggregation rescues the attack."""
        key = bytes(range(16))
        n, samples = 2500, 64
        pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
        traces = rng.normal(0, 1.0, (n, samples))
        jitter = rng.integers(0, 16, n)
        inter = _SBOX[pts[:, 0] ^ key[0]]
        traces[np.arange(n), 8 + jitter] += 3 * hw_byte(inter)
        plain = CpaDistinguisher(aggregate=1).batch(traces, pts[:, :1])
        agg = CpaDistinguisher(aggregate=16).batch(traces, pts[:, :1])
        assert agg.recovered_key() == key[:1]
        assert agg.guess_scores().max() > plain.guess_scores().max()

    def test_rejects_bad_aggregate(self):
        with pytest.raises(ValueError):
            CpaDistinguisher(aggregate=0)

    def test_rejects_bad_byte_index(self, rng):
        key = bytes(16)
        traces, pts = synthetic_traces(rng, 100, key)
        with pytest.raises(ValueError):
            CpaDistinguisher().batch(traces, pts).correlation(16)

    def test_key_width_follows_plaintexts(self, rng):
        """8-byte blocks yield 8 per-byte results and an 8-byte key."""
        key = bytes(range(16))
        traces, pts = synthetic_traces(rng, 600, key, noise=0.5)
        attack = CpaDistinguisher().batch(traces, pts[:, :8])
        assert attack.guess_scores().shape == (8, 256)
        assert attack.recovered_key() == key[:8]

    def test_rejects_flat_plaintexts(self, rng):
        key = bytes(16)
        traces, pts = synthetic_traces(rng, 100, key)
        with pytest.raises(ValueError):
            CpaDistinguisher().batch(traces, pts.ravel())

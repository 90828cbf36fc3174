"""Difference-of-means DPA (the ``dpa`` distinguisher)."""

from __future__ import annotations

import numpy as np

from repro.attacks.distinguishers import DpaDistinguisher
from repro.attacks.leakage_models import hw_byte
from repro.ciphers.aes import SBOX

_SBOX = np.asarray(SBOX, dtype=np.uint8)


def dpa_byte_difference(traces, pt_bytes, key_guess):
    """One-shot differential trace of one key guess for one byte."""
    attack = DpaDistinguisher().batch(traces, pt_bytes[:, None])
    return attack.difference(0)[key_guess]


class TestDifference:
    def test_no_leakage_small_difference(self, rng):
        traces = rng.normal(0, 1, (500, 20))
        pts = rng.integers(0, 256, 500, dtype=np.uint8)
        diff = dpa_byte_difference(traces, pts, 0x42)
        assert np.abs(diff).max() < 0.5

    def test_leaky_trace_shows_spike(self, rng):
        key = 0x42
        n = 3000
        pts = rng.integers(0, 256, n, dtype=np.uint8)
        traces = rng.normal(0, 0.5, (n, 20))
        traces[:, 7] += hw_byte(_SBOX[pts ^ key])
        diff = dpa_byte_difference(traces, pts, key)
        assert np.abs(diff).argmax() == 7
        assert np.abs(diff[7]) > 0.5

    def test_degenerate_partition_returns_zero(self):
        traces = np.ones((4, 5))
        pts = np.zeros(4, dtype=np.uint8)  # all same partition for any guess
        diff = dpa_byte_difference(traces, pts, 0)
        np.testing.assert_array_equal(diff, np.zeros(5))


class TestAttack:
    def test_recovers_byte(self, rng):
        key = 0xA7
        n = 4000
        pts = rng.integers(0, 256, n, dtype=np.uint8)
        traces = rng.normal(0, 0.5, (n, 12))
        traces[:, 5] += hw_byte(_SBOX[pts ^ key])
        attack = DpaDistinguisher().batch(traces, pts[:, None])
        assert attack.recovered_key() == bytes([key])
        assert attack.guess_scores().shape == (1, 256)

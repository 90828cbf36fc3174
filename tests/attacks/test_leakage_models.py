"""CPA/DPA hypothesis models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    available_leakage_models,
    get_leakage_model,
    hw_byte,
)
from repro.ciphers.aes import SBOX


class TestHwByte:
    def test_known_values(self):
        np.testing.assert_array_equal(hw_byte(np.array([0, 1, 255])), [0, 1, 8])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hw_byte(np.array([256]))


class TestSboxHypotheses:
    """The ``hw`` model's hypothesis matrix: HW(SBOX[pt ^ k])."""

    model = get_leakage_model("hw")

    def test_shape(self):
        h = self.model.hypotheses(np.arange(10, dtype=np.uint8))
        assert h.shape == (10, 256)

    def test_correct_key_column(self):
        pts = np.array([0x12, 0x34, 0xAB], dtype=np.uint8)
        key = 0x5C
        h = self.model.hypotheses(pts)
        expected = [bin(SBOX[p ^ key]).count("1") for p in pts]
        np.testing.assert_array_equal(h[:, key], expected)

    def test_values_are_hamming_weights(self):
        h = self.model.hypotheses(np.arange(256, dtype=np.uint8))
        assert h.min() >= 0 and h.max() <= 8

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            self.model.hypotheses(np.zeros((2, 2), dtype=np.uint8))


class TestMsb:
    """The ``msb`` model's DPA selection bits."""

    model = get_leakage_model("msb")

    def test_values_binary(self):
        bits = self.model.selection_bits(np.arange(256, dtype=np.uint8))
        assert set(np.unique(bits[:, 0x3D])) <= {0, 1}

    def test_matches_sbox(self):
        bits = self.model.selection_bits(np.array([0x00], dtype=np.uint8))
        assert bits[0, 0x10] == SBOX[0x10] >> 7

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            self.model.selection_bits(np.zeros((2, 2), dtype=np.uint8))


class TestLeakageModelRegistry:
    def test_available_names(self):
        assert available_leakage_models() == (
            "hd", "hw", "identity", "lsb", "msb"
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="hd, hw, identity, lsb, msb"):
            get_leakage_model("hamming-cube")

    def test_models_are_cached_singletons(self):
        """Satellite: hypothesis tables are built once, not per chunk."""
        assert get_leakage_model("hw") is get_leakage_model("hw")
        assert (
            get_leakage_model("hw").table
            is get_leakage_model("hw").table
        )

    def test_hw_table_matches_direct_composition(self):
        model = get_leakage_model("hw")
        pts = np.arange(256, dtype=np.uint8)
        for guess in (0, 0x5C, 255):
            expected = [bin(SBOX[p ^ guess]).count("1") for p in pts]
            np.testing.assert_array_equal(model.table[:, guess], expected)
        assert model.reference == 4.0
        assert not model.binary

    def test_hd_table_is_input_output_distance(self):
        model = get_leakage_model("hd")
        p, k = 0x12, 0x5C
        v = p ^ k
        assert model.table[p, k] == bin(v ^ SBOX[v]).count("1")

    def test_binary_models_expose_selection_bits(self):
        msb = get_leakage_model("msb")
        assert msb.binary and msb.reference == 0.5
        bits = msb.selection_bits(np.array([0x00], dtype=np.uint8))
        assert bits[0, 0x10] == SBOX[0x10] >> 7
        with pytest.raises(ValueError, match="not binary"):
            get_leakage_model("hw").selection_bits(
                np.zeros(1, dtype=np.uint8)
            )

    def test_identity_model(self):
        model = get_leakage_model("identity")
        assert model.table[0x00, 0x10] == SBOX[0x10]
        assert model.reference == 127.5

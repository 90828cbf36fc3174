"""Oscilloscope model: sampling, quantisation, noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.soc import Oscilloscope


class TestCapture:
    def test_output_length(self, rng):
        osc = Oscilloscope(samples_per_op=2, noise_std=0.0)
        trace = osc.capture(np.ones(10), rng)
        assert trace.shape == (20,)
        assert trace.dtype == np.float32

    def test_empty_input(self, rng):
        assert Oscilloscope().capture(np.zeros(0), rng).size == 0

    def test_quantisation_grid(self, rng):
        osc = Oscilloscope(noise_std=0.0, adc_bits=12, v_range=48.0)
        trace = osc.capture(np.linspace(1, 40, 50), rng)
        codes = trace / osc.lsb
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-3)

    def test_clipping_at_full_scale(self, rng):
        osc = Oscilloscope(noise_std=0.0, v_range=10.0)
        trace = osc.capture(np.array([100.0]), rng)
        assert trace.max() <= 10.0 + 1e-6

    def test_negative_power_clips_to_zero(self, rng):
        osc = Oscilloscope(noise_std=0.0)
        trace = osc.capture(np.array([-5.0]), rng)
        assert trace.min() >= 0.0

    def test_noise_increases_variance(self, rng_factory):
        power = np.full(2000, 20.0)
        quiet = Oscilloscope(noise_std=0.0).capture(power, rng_factory(0))
        noisy = Oscilloscope(noise_std=2.0).capture(power, rng_factory(0))
        assert noisy.std() > quiet.std() + 0.5

    def test_pulse_weights_first_sample_higher(self, rng):
        osc = Oscilloscope(samples_per_op=2, noise_std=0.0,
                           bandwidth_kernel=(1.0,))
        trace = osc.capture(np.array([30.0, 30.0]), rng)
        assert trace[0] > trace[1]

    def test_quantisation_error_bounded_by_lsb(self, rng):
        osc = Oscilloscope(samples_per_op=1, noise_std=0.0,
                           bandwidth_kernel=(1.0,))
        power = np.linspace(5, 40, 100)
        trace = osc.capture(power, rng)
        assert np.abs(trace - power).max() <= osc.lsb


class TestConfig:
    def test_lsb(self):
        osc = Oscilloscope(adc_bits=12, v_range=40.95)
        assert abs(osc.lsb - 0.01) < 1e-4

    def test_op_to_sample(self):
        osc = Oscilloscope(samples_per_op=2)
        assert osc.op_to_sample(7) == 14
        np.testing.assert_array_equal(osc.op_to_sample(np.array([1, 3])), [2, 6])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples_per_op": 0},
            {"noise_std": -1.0},
            {"adc_bits": 0},
            {"v_range": 0.0},
            {"bandwidth_kernel": (0.5, 0.2)},  # does not sum to 1
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            Oscilloscope(**kwargs)

    @pytest.mark.parametrize(
        "kernel, halo",
        [
            ((1.0,), 0),
            ((0.2, 0.6, 0.2), 1),
            ((0.1, 0.2, 0.3, 0.4), 1),
            ((0.1, 0.2, 0.4, 0.2, 0.1), 2),
        ],
    )
    def test_right_halo_is_how_early_an_op_shows(self, rng, kernel, halo):
        osc = Oscilloscope(noise_std=0.0, bandwidth_kernel=kernel)
        power = np.zeros(8)
        power[4] = 40.0
        trace = osc.capture(power, rng)
        assert osc.right_halo == halo
        assert np.flatnonzero(trace)[0] == osc.op_to_sample(4) - halo

    def test_rejects_2d_power(self, rng):
        with pytest.raises(ValueError):
            Oscilloscope().capture(np.ones((2, 2)), rng)

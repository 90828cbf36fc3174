"""Batched synthesis and batched platform captures: bit-exact vs scalar."""

from __future__ import annotations

import numpy as np
import pytest

from repro.soc import (
    BatchOpStream,
    HammingWeightLeakage,
    Oscilloscope,
    RandomDelayCountermeasure,
    SimulatedPlatform,
    synthesize_trace,
    synthesize_traces,
)
from repro.soc.trng import TrngModel


def _random_batch_stream(rng, batch=4, n_ops=300) -> BatchOpStream:
    values = rng.integers(0, 2**48, (batch, n_ops), dtype=np.uint64)
    widths = rng.choice([8, 16, 32, 64], n_ops).astype(np.uint8)
    kinds = rng.integers(0, 6, n_ops, dtype=np.uint8)
    return BatchOpStream(values=values, widths=widths, kinds=kinds)


class TestBatchOpStream:
    def test_row_round_trip(self, rng):
        stream = _random_batch_stream(rng)
        row = stream.row(2)
        np.testing.assert_array_equal(row.values, stream.values[2])
        assert len(row) == len(stream)

    def test_batched_datapath_matches_scalar(self, rng):
        stream = _random_batch_stream(rng)
        bv, bk, bstarts = stream.to_datapath_ops()
        for b in range(stream.batch_size):
            sv, sk, sstarts = stream.row(b).to_datapath_ops()
            np.testing.assert_array_equal(bv[b], sv)
            np.testing.assert_array_equal(bk, sk)
            np.testing.assert_array_equal(bstarts, sstarts)


@pytest.mark.parametrize("max_delay", [0, 4])
def test_synthesize_traces_matches_scalar(rng, max_delay):
    """Same seed => identical samples and marker positions, per trace."""
    stream = _random_batch_stream(rng, batch=5, n_ops=400)
    markers = np.array([0, 37, 250])
    leakage = HammingWeightLeakage()
    oscilloscope = Oscilloscope()

    batch_cm = RandomDelayCountermeasure(max_delay, TrngModel(11))
    batch_rng = np.random.default_rng(22)
    traces, marker_samples = synthesize_traces(
        stream, markers, batch_cm, leakage, oscilloscope, batch_rng
    )

    scalar_cm = RandomDelayCountermeasure(max_delay, TrngModel(11))
    scalar_rng = np.random.default_rng(22)
    for b in range(stream.batch_size):
        trace, samples = synthesize_trace(
            stream.row(b), markers, scalar_cm, leakage, oscilloscope, scalar_rng
        )
        np.testing.assert_array_equal(traces[b], trace)
        np.testing.assert_array_equal(marker_samples[b], samples)


def test_synthesize_traces_per_trace_markers(rng):
    stream = _random_batch_stream(rng, batch=3, n_ops=200)
    markers = [np.array([1]), np.array([2, 50]), np.zeros(0, dtype=np.int64)]
    cm = RandomDelayCountermeasure(2, TrngModel(5))
    traces, marker_samples = synthesize_traces(
        stream, markers, cm, HammingWeightLeakage(), Oscilloscope(),
        np.random.default_rng(1),
    )
    assert [m.size for m in marker_samples] == [1, 2, 0]
    assert all(t.dtype == np.float32 for t in traces)


def test_synthesize_traces_rejects_bad_marker(rng):
    stream = _random_batch_stream(rng, batch=2, n_ops=50)
    cm = RandomDelayCountermeasure(0)
    with pytest.raises(IndexError):
        synthesize_traces(
            stream, np.array([50]), cm, HammingWeightLeakage(), Oscilloscope(),
            np.random.default_rng(0),
        )


class TestPlatformBatchedEquivalence:
    """The platform's batched captures replay the scalar RNG stream."""

    @pytest.mark.parametrize("cipher", ["aes", "aes_masked", "simon"])
    def test_cipher_captures_bit_identical(self, cipher):
        batched = SimulatedPlatform(cipher, max_delay=4, seed=13)
        scalar = SimulatedPlatform(cipher, max_delay=4, seed=13)
        a = batched.capture_cipher_traces(4)
        b = scalar.capture_cipher_traces(4, batched=False)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.trace, y.trace)
            assert x.co_start == y.co_start
            assert x.plaintext == y.plaintext and x.key == y.key

    def test_cipher_captures_chunking_invariant(self):
        whole = SimulatedPlatform("aes", max_delay=2, seed=3)
        chunked = SimulatedPlatform("aes", max_delay=2, seed=3)
        a = whole.capture_cipher_traces(6)
        b = chunked.capture_cipher_traces(6, batch_size=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.trace, y.trace)
            assert x.co_start == y.co_start

    @pytest.mark.parametrize("cipher", ["aes", "aes_masked"])
    @pytest.mark.parametrize("interleaved", [True, False])
    def test_session_captures_bit_identical(self, cipher, interleaved):
        batched = SimulatedPlatform(cipher, max_delay=4, seed=17)
        scalar = SimulatedPlatform(cipher, max_delay=4, seed=17)
        a = batched.capture_session_trace(5, noise_interleaved=interleaved)
        b = scalar.capture_session_trace(
            5, noise_interleaved=interleaved, batched=False
        )
        np.testing.assert_array_equal(a.trace, b.trace)
        np.testing.assert_array_equal(a.true_starts, b.true_starts)
        assert a.plaintexts == b.plaintexts
        assert a.ciphertexts == b.ciphertexts
        assert a.key == b.key

    def test_noiseless_oscilloscope_supported(self):
        oscilloscope = Oscilloscope(noise_std=0.0)
        batched = SimulatedPlatform("aes", max_delay=2, seed=5,
                                    oscilloscope=oscilloscope)
        scalar = SimulatedPlatform("aes", max_delay=2, seed=5,
                                   oscilloscope=Oscilloscope(noise_std=0.0))
        a = batched.capture_cipher_traces(3)
        b = scalar.capture_cipher_traces(3, batched=False)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.trace, y.trace)


class TestOscilloscopeBatch:
    def test_capture_batch_matches_capture(self, rng):
        oscilloscope = Oscilloscope(bandwidth_kernel=(0.1, 0.2, 0.4, 0.2, 0.1))
        powers = [rng.random(n) * 30 for n in (400, 1, 3, 0, 900)]
        batch = oscilloscope.capture_batch(powers, np.random.default_rng(8))
        reference_rng = np.random.default_rng(8)
        for power, trace in zip(powers, batch):
            np.testing.assert_array_equal(
                trace, oscilloscope.capture(power, reference_rng)
            )

    def test_capture_batch_rejects_bad_noise(self, rng):
        oscilloscope = Oscilloscope()
        with pytest.raises(ValueError):
            oscilloscope.capture_batch(
                [rng.random(10)], np.random.default_rng(0),
                noise=[np.zeros(3)],
            )

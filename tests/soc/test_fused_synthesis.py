"""Property and golden tests pinning the fused synthesis kernels.

The RD-window capture path runs two backend kernels —
``gather_delayed_windows`` (batched delayed-window gather) and
``synthesize_rows`` (fused pulse→FIR→cut→noise→quantise) — that replaced
per-trace Python loops.  Both must stay **bit-identical** to their scalar
references: the gather to :func:`repro.soc.trace_synth._gather_delayed_window`
and the synthesis to the unfused per-row chain (pulse expansion, edge
replication, ``np.convolve`` band-limiting, textbook ADC quantisation).
Hypothesis drives both over the whole parameter space (max_delay, window
offsets, widths, samples-per-op, kernel sizes); three golden stream digests
pin the end-to-end fast capture byte-for-byte across refactors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.soc import RandomDelayCountermeasure, TrngModel
from repro.soc.platform import SimulatedPlatform
from repro.soc.random_delay import BatchDelayPlans
from repro.soc.trace_synth import _gather_delayed_window


@st.composite
def gather_cases(draw):
    """A stacked plan batch plus per-row op windows inside each trace."""
    n32 = draw(st.integers(min_value=1, max_value=48))
    batch = draw(st.integers(min_value=1, max_value=6))
    max_delay = draw(st.integers(min_value=0, max_value=4))
    trng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    value_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    cm = RandomDelayCountermeasure(max_delay, TrngModel(trng_seed))
    plans = [cm.plan(n32) for _ in range(batch)]
    los = np.empty(batch, dtype=np.int64)
    widths = np.empty(batch, dtype=np.int64)
    for b, plan in enumerate(plans):
        lo = draw(st.integers(min_value=0, max_value=plan.total - 1))
        los[b] = lo
        widths[b] = draw(st.integers(min_value=1, max_value=plan.total - lo))
    rng = np.random.default_rng(value_seed)
    values32 = rng.integers(
        0, 1 << 32, size=(batch, n32), dtype=np.uint64, endpoint=False
    )
    kinds32 = rng.integers(0, 6, size=n32, dtype=np.int64).astype(np.uint8)
    return plans, values32, kinds32, los, widths


class TestBatchGatherMatchesScalarReference:
    """``gather_delayed_windows`` == per-trace ``_gather_delayed_window``."""

    def _assert_case(self, case):
        plans, values32, kinds32, los, widths = case
        stacked = BatchDelayPlans.from_plans(plans)
        out_values, out_kinds = get_backend().gather_delayed_windows(
            stacked.positions, values32, kinds32,
            stacked.dummy_values, stacked.dummy_kinds, stacked.dummy_bounds,
            los, widths,
        )
        width = int(widths.max())
        assert out_values.shape == (len(plans), width)
        assert out_kinds.shape == (len(plans), width)
        for b, plan in enumerate(plans):
            ref_values, ref_kinds = _gather_delayed_window(
                plan, values32[b], kinds32, int(los[b]),
                int(los[b] + widths[b]),
            )
            w = int(widths[b])
            np.testing.assert_array_equal(out_values[b, :w], ref_values)
            np.testing.assert_array_equal(out_kinds[b, :w], ref_kinds)
            # Short rows replicate their last valid element into the tail.
            np.testing.assert_array_equal(
                out_values[b, w:], np.full(width - w, ref_values[-1])
            )
            np.testing.assert_array_equal(
                out_kinds[b, w:], np.full(width - w, ref_kinds[-1])
            )

    @settings(max_examples=60, deadline=None)
    @given(gather_cases())
    def test_numpy_kernel(self, case):
        self._assert_case(case)

    def test_all_real_no_dummies(self):
        """Zero inserted dummies: every in-window slot is a real op."""
        cm = RandomDelayCountermeasure(0, TrngModel(3))
        plans = [cm.plan(12) for _ in range(3)]
        stacked = BatchDelayPlans.from_plans(plans)
        values32 = np.arange(36, dtype=np.uint64).reshape(3, 12)
        kinds32 = np.arange(12, dtype=np.uint64).astype(np.uint8) % 6
        los = np.array([0, 3, 11], dtype=np.int64)
        widths = np.array([12, 5, 1], dtype=np.int64)
        out_values, out_kinds = get_backend().gather_delayed_windows(
            stacked.positions, values32, kinds32,
            stacked.dummy_values, stacked.dummy_kinds, stacked.dummy_bounds,
            los, widths,
        )
        for b in range(3):
            lo, w = int(los[b]), int(widths[b])
            np.testing.assert_array_equal(
                out_values[b, :w], values32[b, lo: lo + w]
            )
            np.testing.assert_array_equal(
                out_kinds[b, :w], kinds32[lo: lo + w]
            )


def _reference_synthesize_rows(
    power, widths, pulse, kernel, offsets, n_out, lengths, noise, lsb,
    max_code,
):
    """The historical unfused chain, evaluated per row with np.convolve."""
    batch, w_ops = power.shape
    spp = pulse.size
    total = w_ops * spp
    analog = (power[:, :, None] * pulse[None, None, :]).reshape(batch, total)
    clipped = np.minimum(
        np.arange(total, dtype=np.int64)[None, :], widths[:, None] * spp - 1
    )
    analog = np.take_along_axis(analog, clipped, axis=1)
    if kernel.size > 1:
        pad = kernel.size // 2
        filtered = np.empty_like(analog)
        for b in range(batch):
            padded = np.pad(
                analog[b], (pad, kernel.size - 1 - pad), mode="edge"
            )
            filtered[b] = np.convolve(padded, kernel, mode="valid")
    else:
        filtered = analog * kernel[0] if kernel.size else analog
    cols = np.minimum(
        offsets[:, None] + np.arange(n_out, dtype=np.int64)[None, :],
        total - 1,
    )
    cut = np.take_along_axis(filtered, cols, axis=1)
    if noise is not None:
        cut[:, : noise.shape[1]] += noise
    codes = np.clip(np.rint(cut / lsb), 0, max_code)
    segments = (codes * lsb).astype(np.float32)
    segments[np.arange(n_out, dtype=np.int64)[None, :] >= lengths[:, None]] = 0.0
    return segments


@st.composite
def synthesis_cases(draw):
    batch = draw(st.integers(min_value=1, max_value=5))
    w_ops = draw(st.integers(min_value=1, max_value=24))
    spp = draw(st.integers(min_value=1, max_value=3))
    k_size = draw(st.sampled_from([1, 3, 5]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    total = w_ops * spp
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.0, 40.0, size=(batch, w_ops))
    raw = rng.uniform(0.1, 1.0, size=k_size)
    kernel = raw / raw.sum()
    pulse = np.linspace(1.0, 0.55, spp)
    widths = np.asarray(
        [draw(st.integers(min_value=1, max_value=w_ops)) for _ in range(batch)],
        dtype=np.int64,
    )
    offsets = np.asarray(
        [draw(st.integers(min_value=0, max_value=total - 1)) for _ in range(batch)],
        dtype=np.int64,
    )
    n_out = draw(st.integers(min_value=1, max_value=48))
    lengths = np.asarray(
        [draw(st.integers(min_value=0, max_value=n_out)) for _ in range(batch)],
        dtype=np.int64,
    )
    if draw(st.booleans()):
        noise_cols = draw(st.integers(min_value=1, max_value=n_out))
        noise = rng.standard_normal((batch, noise_cols)).astype(np.float32)
    else:
        noise = None
    lsb = 48.0 / 4095
    return power, widths, pulse, kernel, offsets, n_out, lengths, noise, lsb


class TestFusedSynthesisMatchesUnfusedChain:
    """``synthesize_rows`` == pulse→pad→convolve→cut→noise→quantise."""

    def _assert_case(self, case):
        (power, widths, pulse, kernel, offsets, n_out, lengths, noise,
         lsb) = case
        fused = get_backend().synthesize_rows(
            power, widths, pulse, kernel, offsets, n_out, lengths, noise,
            lsb, 4095,
        )
        reference = _reference_synthesize_rows(
            power, widths, pulse, kernel, offsets, n_out, lengths, noise,
            lsb, 4095,
        )
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(fused, reference)

    @settings(max_examples=60, deadline=None)
    @given(synthesis_cases())
    def test_numpy_kernel(self, case):
        self._assert_case(case)


class TestGoldenStreamDigests:
    """End-to-end fast capture is byte-stable across refactors.

    These digests were recorded from the pre-fusion per-trace
    implementation; any change to plan drawing, gathering, synthesis, or
    noise consumption shows up here first.
    """

    @staticmethod
    def _digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "max_delay, seed, count, segment_length, nop_header, key, expected",
        [
            (0, 11, 12, 90, 24, bytes(range(16)), "bfd77d4d53bb450f"),
            (2, 11, 12, 90, 24, bytes(range(16)), "5e52350f0a33eb06"),
            (4, 7, 9, 150, 96, bytes(16), "c9442b98df2c4eab"),
        ],
    )
    def test_fast_capture_digest(
        self, max_delay, seed, count, segment_length, nop_header, key,
        expected,
    ):
        platform = SimulatedPlatform(
            "aes", max_delay=max_delay, seed=seed, capture_mode="fast"
        )
        traces, _ = platform.capture_attack_segments(
            count, key=key, segment_length=segment_length,
            nop_header=nop_header,
        )
        assert self._digest(traces) == expected

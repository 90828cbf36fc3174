"""Clock-jitter countermeasure: plan semantics, mapping, capture identity.

The jitter seam resamples *captured* traces through per-sample repeat
counts drawn from the TRNG.  Pinned here: the repeat distribution's
support, the execute/map_positions contract (kept samples land where the
cumulative repeat count says; dropped samples map to the next
survivor), and the platform seam — noiseless jittered batch captures
equal the scalar loop, and the fast capture mode refuses jitter outright
(it synthesises windows, never whole traces, so there is nothing to
resample).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import PlatformSpec
from repro.soc.jitter import ClockJitterCountermeasure, JitterPlan
from repro.soc.trng import TrngModel

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _cj(strength=10, seed=7):
    return ClockJitterCountermeasure(strength, trng=TrngModel(seed))


class TestPlans:
    def test_repeat_support_and_rate(self):
        plan = _cj(strength=20).plan(20_000)
        values, counts = np.unique(plan.repeats, return_counts=True)
        assert set(values.tolist()) <= {0, 1, 2}
        # drop and double each at strength/200 = 10% +/- sampling noise
        assert counts[values == 0] / 20_000 == pytest.approx(0.10, abs=0.02)
        assert counts[values == 2] / 20_000 == pytest.approx(0.10, abs=0.02)

    def test_expected_length_is_preserved(self):
        plan = _cj(strength=30).plan(50_000)
        assert plan.n_out == pytest.approx(plan.n_in, rel=0.02)


class TestExecuteAndMapping:
    def test_execute_repeats_each_sample_its_count(self):
        plan = JitterPlan(repeats=np.array([1, 0, 2, 1], dtype=np.uint8))
        out = _cj().execute(plan, np.array([10.0, 20.0, 30.0, 40.0]))
        np.testing.assert_array_equal(out, [10.0, 30.0, 30.0, 40.0])

    def test_execute_resamples_batch_rows_identically(self):
        plan = JitterPlan(repeats=np.array([2, 0, 1], dtype=np.uint8))
        traces = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = _cj().execute(plan, traces)
        np.testing.assert_array_equal(out, [[0, 0, 2], [3, 3, 5]])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200))
    def test_kept_samples_land_at_their_mapped_position(self, seed, n):
        cj = _cj(strength=25, seed=seed)
        plan = cj.plan(n)
        trace = np.arange(n, dtype=np.float64)
        out = cj.execute(plan, trace)
        assert out.size == plan.n_out
        kept = np.flatnonzero(plan.repeats > 0)
        if plan.n_out:
            positions = plan.map_positions(kept)
            np.testing.assert_array_equal(out[positions], trace[kept])
            # mapping is monotone and in range
            assert (np.diff(plan.map_positions(np.arange(n))) >= 0).all()
            assert plan.map_positions(np.arange(n)).max() < plan.n_out

    def test_dropped_sample_maps_to_next_survivor(self):
        plan = JitterPlan(repeats=np.array([1, 0, 0, 1], dtype=np.uint8))
        np.testing.assert_array_equal(
            plan.map_positions(np.array([0, 1, 2, 3])), [0, 1, 1, 1]
        )

    def test_map_positions_out_of_range_raises(self):
        plan = JitterPlan(repeats=np.array([1, 1], dtype=np.uint8))
        with pytest.raises(IndexError):
            plan.map_positions(np.array([2]))

    def test_execute_wrong_length_raises(self):
        plan = _cj().plan(16)
        with pytest.raises(ValueError):
            _cj().execute(plan, np.zeros(17))


class TestValidation:
    @pytest.mark.parametrize("strength", [0, 100, -3])
    def test_strength_range(self, strength):
        with pytest.raises(ValueError):
            ClockJitterCountermeasure(strength)

    def test_negative_plan_length_rejected(self):
        with pytest.raises(ValueError):
            _cj().plan(-1)

    def test_config_name(self):
        assert _cj(strength=25).config_name == "CJ-25"


class TestJitteredPlatform:
    def _spec(self, jitter=10, max_delay=0, capture_mode="exact"):
        return PlatformSpec(
            cipher_name="aes", max_delay=max_delay, noise_std=0.0,
            capture_mode=capture_mode, jitter=jitter,
        )

    def test_countermeasure_name_composes_with_rd(self):
        platform = self._spec(jitter=10, max_delay=2).build(0)
        assert platform.countermeasure_name == "RD-2+CJ-10"

    def test_fast_capture_mode_refused(self):
        with pytest.raises(ValueError):
            self._spec(capture_mode="fast").build(0)

    def test_batch_capture_equals_scalar(self):
        batch = self._spec().build(11)
        scalar = self._spec().build(11)
        got = batch.capture_cipher_traces(5, KEY, batch_size=5)
        want = scalar.capture_cipher_traces(5, KEY, batch_size=1)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.trace, w.trace)
            assert g.plaintext == w.plaintext

    def test_session_capture_batch_equals_scalar(self):
        batch = self._spec().build(21)
        scalar = self._spec().build(21)
        got = batch.capture_session_trace(3, batched=True)
        want = scalar.capture_session_trace(3, batched=False)
        np.testing.assert_array_equal(got.trace, want.trace)
        np.testing.assert_array_equal(got.true_starts, want.true_starts)

    def test_trace_lengths_jitter_around_the_nominal(self):
        """Jittered captures vary in length; unjittered ones do not."""
        jittered = self._spec().build(5)
        lengths = {
            c.trace.size for c in jittered.capture_cipher_traces(6, KEY)
        }
        assert len(lengths) > 1

"""RD>0 windowed fast capture: bit-identity, validation, campaign parity.

The windowed fast path (:func:`synthesize_trace_windows` with a delaying
countermeasure) synthesises only each trace's delay-shifted window.  Its
contract is that a *noiseless* window is a bit-identical cut of the exact
full-trace chain under the same delay plans — the filter halo absorbs all
boundary effects — for any RD configuration, batch size, and window
position.  This suite pins that contract property-style, checks the plan
validation errors, and (slow-marked) verifies an RD-2 campaign recovers
the identical true reduced key in both capture modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.leakage import HammingWeightLeakage
from repro.soc.oscilloscope import Oscilloscope
from repro.soc.random_delay import RandomDelayCountermeasure
from repro.soc.trace_synth import BatchOpStream, synthesize_traces, synthesize_trace_windows
from repro.soc.trng import TrngModel

KEY = bytes(range(16))


def _random_stream(rng: np.random.Generator, batch: int, n_ops: int) -> BatchOpStream:
    """A batch stream with mixed widths (incl. 64-bit datapath splits)."""
    widths = rng.choice([8, 32, 64], size=n_ops).astype(np.uint8)
    values = rng.integers(0, 1 << 62, size=(batch, n_ops), dtype=np.int64).astype(np.uint64)
    kinds = rng.integers(1, 6, size=n_ops, dtype=np.int64).astype(np.uint8)
    return BatchOpStream(values=values, widths=widths, kinds=kinds)


def _noiseless_chain() -> tuple[HammingWeightLeakage, Oscilloscope]:
    return HammingWeightLeakage(), Oscilloscope(noise_std=0.0)


def _windows_and_reference(
    stream: BatchOpStream,
    max_delay: int,
    start_op: int,
    n_samples: int,
    trng_seed: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless fast windows + the exact full-trace cuts, shared plans."""
    leakage, scope = _noiseless_chain()
    cm = RandomDelayCountermeasure(max_delay, trng=TrngModel(trng_seed))
    n32 = stream.to_datapath_ops()[0].shape[1]
    plans = list(cm.plan_batch_stacked(n32, stream.batch_size))
    rng = np.random.default_rng(0)

    windows = synthesize_trace_windows(
        stream, start_op, n_samples, leakage, scope, rng, plans=plans
    )

    traces, marker_samples = synthesize_traces(
        stream, np.asarray([start_op]), cm, leakage, scope,
        np.random.default_rng(0), plans=plans,
    )
    reference = np.zeros((stream.batch_size, n_samples), dtype=np.float32)
    for b, (trace, marks) in enumerate(zip(traces, marker_samples)):
        cut = trace[marks[0]: marks[0] + n_samples]
        reference[b, : cut.size] = cut
    return windows, reference


class TestNoiselessBitIdentity:
    @pytest.mark.parametrize("max_delay", [1, 2, 4])
    def test_windows_equal_exact_full_trace_cuts(self, max_delay):
        rng = np.random.default_rng(100 + max_delay)
        stream = _random_stream(rng, batch=9, n_ops=120)
        windows, reference = _windows_and_reference(
            stream, max_delay, start_op=40, n_samples=64
        )
        np.testing.assert_array_equal(windows, reference)

    @pytest.mark.parametrize("start_op", [0, 1, 119])
    def test_stream_edges(self, start_op):
        """Windows starting at the first op or clipping past the end."""
        rng = np.random.default_rng(start_op)
        stream = _random_stream(rng, batch=5, n_ops=120)
        windows, reference = _windows_and_reference(
            stream, 2, start_op=start_op, n_samples=96
        )
        np.testing.assert_array_equal(windows, reference)

    def test_window_of_one_sample(self):
        stream = _random_stream(np.random.default_rng(3), batch=4, n_ops=60)
        windows, reference = _windows_and_reference(stream, 4, 20, 1)
        np.testing.assert_array_equal(windows, reference)

    @settings(max_examples=25, deadline=None)
    @given(
        max_delay=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=8),
        n_ops=st.integers(min_value=4, max_value=90),
        data=st.data(),
    )
    def test_random_configurations(self, max_delay, batch, n_ops, data):
        start_op = data.draw(st.integers(min_value=0, max_value=n_ops - 1))
        n_samples = data.draw(st.integers(min_value=1, max_value=220))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        stream = _random_stream(np.random.default_rng(seed), batch, n_ops)
        windows, reference = _windows_and_reference(
            stream, max_delay, start_op, n_samples, trng_seed=seed ^ 0x5EED
        )
        np.testing.assert_array_equal(windows, reference)


class TestPlanValidation:
    def test_wrong_plan_count_raises(self):
        stream = _random_stream(np.random.default_rng(0), batch=4, n_ops=30)
        leakage, scope = _noiseless_chain()
        cm = RandomDelayCountermeasure(2, trng=TrngModel(0))
        n32 = stream.to_datapath_ops()[0].shape[1]
        plans = list(cm.plan_batch_stacked(n32, 3))
        with pytest.raises(ValueError, match="delay plans"):
            synthesize_trace_windows(
                stream, 0, 8, leakage, scope, np.random.default_rng(0),
                plans=plans,
            )

    def test_plan_for_wrong_op_count_raises(self):
        stream = _random_stream(np.random.default_rng(0), batch=4, n_ops=30)
        leakage, scope = _noiseless_chain()
        cm = RandomDelayCountermeasure(2, trng=TrngModel(0))
        plans = list(cm.plan_batch_stacked(10, 4))
        with pytest.raises(ValueError, match="plan was drawn for"):
            synthesize_trace_windows(
                stream, 0, 8, leakage, scope, np.random.default_rng(0),
                plans=plans,
            )

    def test_countermeasure_draws_plans_when_absent(self):
        """Passing the countermeasure itself draws one bulk plan batch."""
        stream = _random_stream(np.random.default_rng(1), batch=6, n_ops=50)
        leakage, scope = _noiseless_chain()

        def windows():
            cm = RandomDelayCountermeasure(2, trng=TrngModel(99))
            return synthesize_trace_windows(
                stream, 10, 40, leakage, scope, np.random.default_rng(0),
                countermeasure=cm,
            )

        first, second = windows(), windows()
        np.testing.assert_array_equal(first, second)
        # The plans actually delayed something: same seed with RD off
        # yields a different (undelayed) window.
        rd0 = synthesize_trace_windows(
            stream, 10, 40, leakage, scope, np.random.default_rng(0),
            countermeasure=RandomDelayCountermeasure(0),
        )
        assert not np.array_equal(first, rd0)


class TestPlatformWindowedSegments:
    def test_rd2_fast_segments_are_seed_deterministic(self):
        from repro.soc.platform import SimulatedPlatform

        def capture():
            platform = SimulatedPlatform(
                "aes", max_delay=2, seed=11, capture_mode="fast"
            )
            return platform.capture_attack_segments(
                12, key=KEY, segment_length=90
            )

        (seg_a, pts_a), (seg_b, pts_b) = capture(), capture()
        np.testing.assert_array_equal(seg_a, seg_b)
        np.testing.assert_array_equal(pts_a, pts_b)
        assert seg_a.shape == (12, 90)
        assert pts_a.shape == (12, 16)

    def test_rd2_fast_segments_statistically_match_exact(self):
        """Same platform config, both modes: same segment-mean population."""
        from repro.soc.platform import SimulatedPlatform

        means = {}
        for mode in ("exact", "fast"):
            platform = SimulatedPlatform(
                "aes", max_delay=2, seed=21, capture_mode=mode
            )
            segments, _ = platform.capture_attack_segments(
                64, key=KEY, segment_length=200
            )
            means[mode] = float(segments.mean())
        # Different random streams, identical distribution: the mean over
        # 64x200 samples of ~uniform-pedestal power agrees closely.
        assert means["fast"] == pytest.approx(means["exact"], rel=0.02)


@pytest.mark.slow
class TestRd2CampaignModeParity:
    def test_both_modes_recover_the_identical_true_reduced_key(self):
        """The benchmark's calibrated RD-2 workload, as a regression test."""
        from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
        from repro.runtime.parallel import ReducedKeySource
        from repro.soc.platform import SimulatedPlatform

        budget = 16_384
        recovered = {}
        for mode in ("exact", "fast"):
            platform = SimulatedPlatform(
                "aes", max_delay=2, seed=42, capture_mode=mode
            )
            source = ReducedKeySource(
                PlatformSegmentSource(platform, key=KEY, segment_length=1200),
                2,
            )
            campaign = AttackCampaign(
                source, aggregate=64, batch_size=256, checkpoints=[budget]
            )
            recovered[mode] = campaign.run(budget).recovered_key
        assert recovered["exact"] == recovered["fast"] == KEY[:2]

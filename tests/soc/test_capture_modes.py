"""The windowed ``fast`` capture mode vs the ``exact`` reference.

``exact`` stays bit-identical to the scalar per-trace path (pinned by the
pre-existing equivalence suites).  ``fast`` changes attack segments only:
full traces are the exact stream bit for bit, and for segments these
tests pin what ``fast`` promises instead: the noiseless measurement chain
is *still* bit-identical (bulk randomness only changes who draws what,
not the datapath), the noisy stream is statistically indistinguishable,
the mode is deterministic per seed, and a seeded RD-0 campaign recovers
the identical key in both modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ciphers import BatchLeakageRecorder
from repro.soc import SimulatedPlatform
from repro.soc.oscilloscope import Oscilloscope
from repro.soc.platform import PlatformSpec
from repro.soc.random_delay import RandomDelayCountermeasure
from repro.soc.trace_synth import (
    BatchOpStream,
    synthesize_trace_windows,
    synthesize_traces,
)
from repro.soc.trng import TrngModel

KEY = bytes(range(16))


def _platform(max_delay=0, seed=11, mode="exact", noise_std=1.0):
    oscilloscope = None if noise_std == 1.0 else Oscilloscope(noise_std=noise_std)
    return SimulatedPlatform(
        "aes", max_delay=max_delay, seed=seed, capture_mode=mode,
        oscilloscope=oscilloscope,
    )


def _cipher_stream(count=6, nop_header=32, seed=5):
    rng = np.random.default_rng(seed)
    platform = _platform(seed=seed)
    recorder = BatchLeakageRecorder(count)
    recorder.record_nops(nop_header)
    marker = len(recorder)
    pts = rng.integers(0, 256, (count, 16), dtype=np.uint8)
    platform.cipher.encrypt_batch(pts, KEY, recorder)
    return BatchOpStream.from_recorder(recorder), marker, platform


class TestPlanBatch:
    def test_rd0_is_the_deterministic_identity(self):
        cm = RandomDelayCountermeasure(0, TrngModel(1))
        plans = list(cm.plan_batch_stacked(40, 3))
        assert len(plans) == 3
        for plan in plans:
            assert plan.total == plan.n_ops == 40
            np.testing.assert_array_equal(plan.new_positions, np.arange(40))

    def test_plans_are_structurally_valid(self):
        cm = RandomDelayCountermeasure(4, TrngModel(2))
        plans = list(cm.plan_batch_stacked(100, 8))
        assert len(plans) == 8
        for plan in plans:
            gaps = np.diff(plan.new_positions) - 1
            assert gaps.min() >= 0 and gaps.max() <= 4
            assert plan.n_dummy == plan.total - plan.n_ops == int(gaps.sum())
            assert plan.dummy_values.size == plan.dummy_kinds.size == plan.n_dummy

    def test_deterministic_per_seed(self):
        a = RandomDelayCountermeasure(2, TrngModel(7)).plan_batch_stacked(60, 4)
        b = RandomDelayCountermeasure(2, TrngModel(7)).plan_batch_stacked(60, 4)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.new_positions, pb.new_positions)
            np.testing.assert_array_equal(pa.dummy_values, pb.dummy_values)

    def test_delay_statistics_match_the_scalar_path(self):
        """Bulk-drawn gaps have the same uniform distribution as plan()."""
        cm = RandomDelayCountermeasure(4, TrngModel(3))
        plans = list(cm.plan_batch_stacked(400, 32))
        gaps = np.concatenate([np.diff(p.new_positions) - 1 for p in plans])
        counts = np.bincount(gaps, minlength=5)
        assert counts.min() > 0.7 * gaps.size / 5   # roughly uniform on 0..4

    def test_rejects_bad_batch(self):
        cm = RandomDelayCountermeasure(2, TrngModel(0))
        with pytest.raises(ValueError):
            cm.plan_batch_stacked(10, 0)


class TestWindowedSynthesis:
    def test_noiseless_window_matches_the_full_trace_cut(self):
        """The windowed chain reproduces the full chain bit for bit on the
        window interior (halo absorbs the filter boundary)."""
        stream, marker, platform = _cipher_stream()
        scope = Oscilloscope(noise_std=0.0)
        full, marks = synthesize_traces(
            stream, np.array([marker]), platform.countermeasure,
            platform.leakage, scope, np.random.default_rng(0),
        )
        for length in (64, 500):
            windows = synthesize_trace_windows(
                stream, marker, length, platform.leakage, scope,
                np.random.default_rng(0),
            )
            assert windows.shape == (stream.batch_size, length)
            for b in range(stream.batch_size):
                start = int(marks[b][0])
                cut = full[b][start: start + length]
                np.testing.assert_array_equal(windows[b][: cut.size], cut)
                np.testing.assert_array_equal(windows[b][cut.size:], 0.0)

    def test_overlong_window_zero_pads(self):
        stream, marker, platform = _cipher_stream()
        scope = Oscilloscope(noise_std=0.0)
        total = len(stream) * 2 + 64   # past any trace end
        windows = synthesize_trace_windows(
            stream, marker, total * 4, platform.leakage, scope,
            np.random.default_rng(0),
        )
        assert (windows[:, -16:] == 0.0).all()

    def test_validates_inputs(self):
        stream, marker, platform = _cipher_stream()
        with pytest.raises(ValueError):
            synthesize_trace_windows(
                stream, marker, 0, platform.leakage, Oscilloscope(),
                np.random.default_rng(0),
            )
        with pytest.raises(IndexError):
            synthesize_trace_windows(
                stream, len(stream) + 5, 8, platform.leakage, Oscilloscope(),
                np.random.default_rng(0),
            )


class TestPlatformFastMode:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="capture_mode"):
            SimulatedPlatform("aes", capture_mode="quick")

    def test_spec_round_trips_the_mode(self):
        platform = _platform(mode="fast")
        spec = PlatformSpec.of(platform)
        assert spec.capture_mode == "fast"
        assert spec.build(0).capture_mode == "fast"

    def test_fast_segments_are_deterministic_per_seed(self):
        a = _platform(mode="fast", seed=4).capture_attack_segments(
            40, key=KEY, segment_length=120
        )
        b = _platform(mode="fast", seed=4).capture_attack_segments(
            40, key=KEY, segment_length=120
        )
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_fast_stream_depends_on_the_chunking(self):
        """Documented trade-off: bulk draws interleave per chunk, so the
        fast stream is reproducible for a fixed batch size but — unlike
        exact mode — not invariant across batch sizes."""
        one = _platform(mode="fast", seed=6).capture_attack_segments(
            50, key=KEY, segment_length=100, batch_size=50
        )
        many = _platform(mode="fast", seed=6).capture_attack_segments(
            50, key=KEY, segment_length=100, batch_size=16
        )
        assert not np.array_equal(one[1], many[1])

    def test_fast_zero_count_returns_empty_arrays(self):
        segments, pts = _platform(mode="fast", seed=5).capture_attack_segments(
            0, key=KEY, segment_length=64
        )
        assert segments.shape == (0, 64)
        assert pts.shape == (0, 16)

    def test_noiseless_fast_segments_equal_exact_segments(self):
        """With the noise draws out of the picture the windowed fast path
        must reproduce the exact path's segments except for the plaintext
        stream (drawn in bulk vs per trace) — so fix the plaintext draws
        by comparing against an exact platform re-seeded identically."""
        fast = _platform(mode="fast", seed=8, noise_std=0.0)
        segments_fast, pts_fast = fast.capture_attack_segments(
            24, key=KEY, segment_length=150
        )
        exact = _platform(mode="exact", seed=8, noise_std=0.0)
        segments_exact, pts_exact = exact.capture_attack_segments(
            24, key=KEY, segment_length=150
        )
        # Same generator, same draw sizes (only plaintexts are consumed
        # when noise is off), hence the identical plaintext stream...
        np.testing.assert_array_equal(pts_fast, pts_exact)
        # ...and bit-identical noiseless segments.
        np.testing.assert_array_equal(segments_fast, segments_exact)

    def test_noisy_fast_segments_statistically_match_exact(self):
        n = 1024
        fast, _ = _platform(mode="fast", seed=2).capture_attack_segments(
            n, key=KEY, segment_length=200
        )
        exact, _ = _platform(mode="exact", seed=3).capture_attack_segments(
            n, key=KEY, segment_length=200
        )
        # Identical signal content per sample position, same noise scale:
        # per-sample means agree to a few standard errors and the global
        # spread matches to a percent.
        np.testing.assert_allclose(
            fast.mean(axis=0), exact.mean(axis=0), atol=0.35
        )
        assert abs(fast.std() - exact.std()) < 0.05 * exact.std()


class TestFastVsExactCampaign:
    def test_rd0_campaign_recovers_the_identical_key(self):
        """Satellite acceptance: equal attack budgets, identical keys."""
        from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource

        results = {}
        for mode in ("exact", "fast"):
            platform = _platform(mode=mode, seed=12)
            # Default segment length (mean CO) covers the S-box leakage.
            source = PlatformSegmentSource(platform, key=KEY)
            campaign = AttackCampaign(
                source, aggregate=8, first_checkpoint=50, batch_size=128
            )
            results[mode] = campaign.run(400)
        assert results["exact"].recovered_key == KEY
        assert results["fast"].recovered_key == KEY
        assert (
            results["fast"].traces_to_rank1 is not None
            and results["exact"].traces_to_rank1 is not None
        )


class TestFullTracesIgnoreTheMode:
    @pytest.mark.parametrize("max_delay, shuffle",
                             [(0, False), (4, False), (0, True)])
    def test_fast_profiling_captures_equal_exact(self, max_delay, shuffle):
        captures = {
            mode: PlatformSpec(
                cipher_name="aes", max_delay=max_delay, capture_mode=mode,
                shuffle=shuffle,
            ).build(13).capture_cipher_traces(5, batch_size=2)
            for mode in ("exact", "fast")
        }
        assert len(captures["fast"]) == len(captures["exact"]) == 5
        for fast, exact in zip(captures["fast"], captures["exact"]):
            np.testing.assert_array_equal(fast.trace, exact.trace)
            assert fast.co_start == exact.co_start
            assert fast.plaintext == exact.plaintext
            assert fast.key == exact.key

    @pytest.mark.parametrize("noise_interleaved", [True, False])
    def test_fast_sessions_equal_exact(self, noise_interleaved):
        sessions = {
            mode: _platform(max_delay=4, seed=17, mode=mode)
            .capture_session_trace(
                3, noise_interleaved=noise_interleaved,
                noise_ops=(100, 300), lead_ops=40,
            )
            for mode in ("exact", "fast")
        }
        fast, exact = sessions["fast"], sessions["exact"]
        np.testing.assert_array_equal(fast.trace, exact.trace)
        np.testing.assert_array_equal(fast.true_starts, exact.true_starts)
        assert fast.plaintexts == exact.plaintexts
        assert fast.ciphertexts == exact.ciphertexts
        assert fast.key == exact.key

    def test_fast_noise_traces_equal_exact(self):
        traces = {
            mode: _platform(max_delay=4, seed=19, mode=mode)
            .capture_noise_trace(min_ops=2_000)
            for mode in ("exact", "fast")
        }
        np.testing.assert_array_equal(traces["fast"], traces["exact"])


class TestFastModeUnderRandomDelay:
    """fast mode under RD-4: full captures and bulk-planned windows."""

    def test_rd4_fast_profiling_captures_are_valid_and_deterministic(self):
        a = _platform(max_delay=4, seed=9, mode="fast")
        captures = a.capture_cipher_traces(12, key=KEY, batch_size=8)
        assert len(captures) == 12
        for capture in captures:
            assert capture.key == KEY
            assert capture.trace.dtype == np.float32
            assert capture.co_start >= 0
        b = _platform(max_delay=4, seed=9, mode="fast")
        again = b.capture_cipher_traces(12, key=KEY, batch_size=8)
        for x, y in zip(captures, again):
            np.testing.assert_array_equal(x.trace, y.trace)
            assert x.plaintext == y.plaintext

    def test_rd4_fast_draws_random_keys_when_unfixed(self):
        platform = _platform(max_delay=4, seed=10, mode="fast")
        captures = platform.capture_cipher_traces(6, batch_size=6)
        assert len({capture.key for capture in captures}) > 1

    def test_rd4_fast_segments_use_the_windowed_path(self):
        """RD>0 fast segments come from per-plan windowed synthesis.

        The delay plans are drawn in bulk and the attacked window is
        mapped through each plan (see test_rd_windowed_capture for the
        bit-identity contract); here we pin shape, dtype, and that the
        windows carry real signal rather than padding.
        """
        segments, pts = _platform(max_delay=4, seed=11, mode="fast") \
            .capture_attack_segments(10, key=KEY, segment_length=90)
        assert segments.shape == (10, 90)
        assert pts.shape == (10, 16)
        assert segments.dtype == np.float64
        assert (segments > 0).all(axis=1).any()


class TestBandlimitRows:
    def test_matches_per_row_reference(self):
        scope = Oscilloscope()
        rows = np.random.default_rng(0).normal(size=(5, 40))
        out = scope._bandlimit_rows(rows.copy())
        for row, filtered in zip(rows, out):
            np.testing.assert_array_equal(scope._bandlimit(row), filtered)

    def test_rows_shorter_than_the_kernel(self):
        scope = Oscilloscope(bandwidth_kernel=(0.1, 0.2, 0.4, 0.2, 0.1))
        rows = np.random.default_rng(1).normal(size=(3, 2))
        out = scope._bandlimit_rows(rows.copy())
        for row, filtered in zip(rows, out):
            np.testing.assert_array_equal(scope._bandlimit(row), filtered)


class TestShardStoreModeGuard:
    def test_run_shard_refuses_cross_mode_resume(self, tmp_path):
        from repro.runtime.parallel import (
            PlatformCampaignSpec,
            ShardSpec,
            run_shard,
        )

        def spec(mode):
            return PlatformCampaignSpec(
                platform=PlatformSpec(
                    cipher_name="aes", max_delay=0, capture_mode=mode
                ),
                key=KEY,
                segment_length=96,
                batch_size=32,
            )

        shard = ShardSpec(index=0, start=0, count=40, campaign_seed=3)
        run_shard(spec("fast"), shard, store_root=tmp_path)
        with pytest.raises(ValueError, match="capture_mode"):
            run_shard(spec("exact"), shard, store_root=tmp_path)
        # Same mode resumes fine (everything replayed, nothing captured).
        again = run_shard(spec("fast"), shard, store_root=tmp_path)
        assert again.replayed == 40

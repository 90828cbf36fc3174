"""Hot-loop kernel table tests.

The kernels *are* the historical inline code moved verbatim, so the
suite's many bit-stability tests already cover them transitively; here we
pin their definitions and the seam the kernel table exposes: call sites
look ``repro.backend._active`` up when they run, so replacing it reaches
them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import repro.backend as backend_mod
from repro.backend import ArrayBackend, get_backend, numpy_backend


def _count_calls(monkeypatch, kernel):
    """Swap in a table copy whose ``kernel`` records each call's args."""
    calls = []
    active = get_backend()
    original = getattr(active, kernel)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(backend_mod, "_active", dataclasses.replace(
        active, **{kernel: counting}))
    return calls


class TestKernelTable:
    def test_the_table_holds_the_numpy_kernels(self):
        for field in dataclasses.fields(ArrayBackend):
            assert getattr(get_backend(), field.name) is getattr(
                numpy_backend, field.name)


class TestNumpyKernels:
    def test_hw_power_matches_definition(self):
        backend = get_backend()
        table = np.asarray([0.0, 7.0, 10.0, 16.0, 14.0, 18.0])
        values = np.asarray([0, 1, 3, (1 << 64) - 1], dtype=np.uint64)
        kinds = np.asarray([1, 2, 4, 5], dtype=np.int64)
        out = backend.hw_power(table, 0.5, values, kinds)
        np.testing.assert_allclose(
            out, table[kinds] + 0.5 * np.asarray([0, 1, 2, 64])
        )

    def test_quantize_clips_and_rounds(self):
        backend = get_backend()
        lsb, max_code = 0.25, 15
        analog = np.asarray([-1.0, 0.1, 0.125, 3.7, 99.0])
        out = backend.quantize(analog, lsb, max_code)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 3.75, 3.75])

    def test_accumulate_class_stats_matches_bruteforce(self):
        backend = get_backend()
        rng = np.random.default_rng(5)
        n, m, b = 200, 17, 3
        t = rng.normal(size=(n, m))
        pts = rng.integers(0, 256, size=(n, b), dtype=np.int64).astype(np.uint8)
        counts = np.zeros((b, 256))
        sums = np.zeros((b, 256, m))
        backend.accumulate_class_stats(counts, sums, t, pts)
        for byte in range(b):
            for v in range(256):
                mask = pts[:, byte] == v
                assert counts[byte, v] == mask.sum()
                np.testing.assert_allclose(
                    sums[byte, v], t[mask].sum(axis=0), atol=1e-12
                )


def _window_kernel_case(seed=7, batch=5, n32=40, max_delay=3):
    """A concrete RD-window workload exercising both new kernels."""
    from repro.soc import RandomDelayCountermeasure, TrngModel
    from repro.soc.random_delay import BatchDelayPlans

    cm = RandomDelayCountermeasure(max_delay, TrngModel(seed))
    stacked = BatchDelayPlans.from_plans([cm.plan(n32) for _ in range(batch)])
    rng = np.random.default_rng(seed + 1)
    values32 = rng.integers(
        0, 1 << 32, size=(batch, n32), dtype=np.uint64, endpoint=False
    )
    kinds32 = rng.integers(0, 6, size=n32, dtype=np.int64).astype(np.uint8)
    los = rng.integers(0, 10, size=batch).astype(np.int64)
    widths = np.minimum(
        stacked.totals - los, rng.integers(5, 30, size=batch)
    ).astype(np.int64)
    return stacked, values32, kinds32, los, widths


class TestNumpyWindowKernels:
    """The RD-window kernels' shapes, dtypes and padding.

    The deep equivalence coverage (hypothesis over the parameter space,
    scalar references, golden digests) lives in
    ``tests/soc/test_fused_synthesis.py``.
    """

    def test_gather_returns_padded_matrix(self):
        backend = get_backend()
        stacked, values32, kinds32, los, widths = _window_kernel_case()
        out_values, out_kinds = backend.gather_delayed_windows(
            stacked.positions, values32, kinds32,
            stacked.dummy_values, stacked.dummy_kinds, stacked.dummy_bounds,
            los, widths,
        )
        assert out_values.shape == (5, int(widths.max()))
        assert out_values.dtype == np.uint64
        assert out_kinds.shape == out_values.shape
        assert out_kinds.dtype == np.uint8

    def test_synthesize_rows_shape_and_padding(self):
        backend = get_backend()
        rng = np.random.default_rng(3)
        power = rng.uniform(0.0, 40.0, size=(4, 20))
        widths = np.asarray([20, 20, 7, 1], dtype=np.int64)
        lengths = np.asarray([30, 12, 0, 5], dtype=np.int64)
        out = backend.synthesize_rows(
            power, widths, np.linspace(1.0, 0.55, 2),
            np.asarray([0.2, 0.6, 0.2]), np.zeros(4, dtype=np.int64), 30,
            lengths, None, 48.0 / 4095, 4095,
        )
        assert out.shape == (4, 30)
        assert out.dtype == np.float32
        for b, n in enumerate(lengths):
            assert np.all(out[b, int(n):] == 0.0)
        # The width-1 row's replicated samples are constant once the FIR
        # window no longer sees the pulse's leading sample.
        assert out[3, 2] == out[3, 3] == out[3, 4]


class TestKernelTableSeam:
    def test_a_replaced_table_reaches_the_fast_capture_path(self, monkeypatch):
        from repro.soc.platform import SimulatedPlatform

        calls = _count_calls(monkeypatch, "synthesize_rows")
        platform = SimulatedPlatform(
            "aes", max_delay=2, seed=3, capture_mode="fast")
        segments, _ = platform.capture_attack_segments(
            12, bytes(16), segment_length=90, batch_size=8)
        assert segments.shape == (12, 90)
        assert [args[0].shape[0] for args in calls] == [8, 4]

    def test_a_replaced_table_reaches_the_leakage_model(self, monkeypatch):
        from repro.soc import HammingWeightLeakage

        calls = _count_calls(monkeypatch, "hw_power")
        values = np.asarray([0, 1, 3], dtype=np.uint64)
        kinds = np.asarray([1, 2, 4], dtype=np.int64)
        HammingWeightLeakage().power(values, kinds)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][2], values)

    def test_a_replaced_table_reaches_the_distinguisher_scatter(
        self, monkeypatch
    ):
        from repro.attacks.distinguishers import CpaDistinguisher

        calls = _count_calls(monkeypatch, "accumulate_class_stats")
        rng = np.random.default_rng(0)
        cpa = CpaDistinguisher()
        for rows in (30, 20):
            cpa.update(rng.normal(size=(rows, 5)),
                       rng.integers(0, 256, size=(rows, 16), dtype=np.uint8))
        cpa.key_ranks(bytes(16))
        assert sum(args[2].shape[0] for args in calls) == 50

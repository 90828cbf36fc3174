"""Class-conditional CPA/DPA == the previous per-guess formulation.

The class-conditional refactor moved the 256-guess hypothesis projection
from accumulation time to scoring time.  These properties pin the new
store against compact reimplementations of the *previous* sufficient-
statistics formulation (per-chunk ``h.T @ t`` cross-products) to 1e-10
over hypothesis-driven chunk and shard cuts, merge algebra
(commutativity, identity), and ``.npz`` round-trips — plus the new
capabilities the store enables: scoring-time leakage-model swaps and the
staging buffer's invisibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from factories import feed_in_chunks, leaky_traces
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.distinguishers import CpaDistinguisher, DpaDistinguisher
from repro.attacks.leakage_models import get_leakage_model

N_TRACES = 260
SAMPLES = 18
KEY = bytes([0x2B, 0x7E, 0x15, 0x16])

_rng = np.random.default_rng(0xCC01)
# A DC offset forces shards onto different centring references, so the
# shard properties exercise the merge re-basing, not just addition.
TRACES, PTS = leaky_traces(
    _rng, N_TRACES, KEY, noise=0.7, samples=SAMPLES, offset=80.0
)

_EPS = 1e-12


class _PreviousCpa:
    """The pre-refactor CPA statistics: per-chunk per-guess cross-products."""

    def __init__(self, model: str = "hw") -> None:
        self.model = get_leakage_model(model)
        self._ref = None
        self._n = 0

    def update(self, traces: np.ndarray, pts: np.ndarray) -> None:
        t = np.asarray(traces, dtype=np.float64)
        if self._ref is None:
            self._ref = t.mean(axis=0)
            b, m = pts.shape[1], t.shape[1]
            self._s_t = np.zeros(m)
            self._s_t2 = np.zeros(m)
            self._s_h = np.zeros((b, 256))
            self._s_h2 = np.zeros((b, 256))
            self._s_ht = np.zeros((b, 256, m))
        t = t - self._ref
        self._n += t.shape[0]
        self._s_t += t.sum(axis=0)
        self._s_t2 += (t * t).sum(axis=0)
        for b in range(pts.shape[1]):
            h = self.model.hypotheses(pts[:, b]) - self.model.reference
            self._s_h[b] += h.sum(axis=0)
            self._s_h2[b] += (h * h).sum(axis=0)
            self._s_ht[b] += h.T @ t

    def correlation(self, b: int) -> np.ndarray:
        n = self._n
        cross = self._s_ht[b] - np.outer(self._s_h[b], self._s_t / n)
        h_norm = np.sqrt(np.clip(self._s_h2[b] - self._s_h[b] ** 2 / n, 0, None))
        t_norm = np.sqrt(np.clip(self._s_t2 - self._s_t ** 2 / n, 0, None))
        denom = h_norm[:, None] * t_norm[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > _EPS, cross / np.maximum(denom, _EPS), 0.0)
        return np.clip(corr, -1.0, 1.0)


class _PreviousDpa:
    """The pre-refactor DPA statistics: per-chunk partition sums."""

    def __init__(self, model: str = "msb") -> None:
        self.model = get_leakage_model(model)
        self._ref = None
        self._n = 0

    def update(self, traces: np.ndarray, pts: np.ndarray) -> None:
        t = np.asarray(traces, dtype=np.float64)
        if self._ref is None:
            self._ref = t.mean(axis=0)
            b, m = pts.shape[1], t.shape[1]
            self._s_t = np.zeros(m)
            self._ones_count = np.zeros((b, 256))
            self._ones_sum = np.zeros((b, 256, m))
        t = t - self._ref
        self._n += t.shape[0]
        self._s_t += t.sum(axis=0)
        for b in range(pts.shape[1]):
            bits = self.model.selection_bits(pts[:, b])
            self._ones_count[b] += bits.sum(axis=0)
            self._ones_sum[b] += bits.astype(np.float64).T @ t

    def difference(self, b: int) -> np.ndarray:
        ones = self._ones_count[b][:, None]
        zeros = self._n - ones
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = (
                self._ones_sum[b] / ones
                - (self._s_t[None, :] - self._ones_sum[b]) / zeros
            )
        return np.where((ones > 0) & (zeros > 0), diff, 0.0)


def _previous_pairs():
    return [
        ("cpa-hw", lambda: CpaDistinguisher(), lambda: _PreviousCpa("hw"),
         "correlation"),
        ("cpa-identity", lambda: CpaDistinguisher(model="identity"),
         lambda: _PreviousCpa("identity"), "correlation"),
        ("dpa-msb", lambda: DpaDistinguisher(), lambda: _PreviousDpa("msb"),
         "difference"),
        ("dpa-lsb", lambda: DpaDistinguisher(model="lsb"),
         lambda: _PreviousDpa("lsb"), "difference"),
    ]


@pytest.mark.parametrize("name,factory,previous,recover", _previous_pairs())
class TestMatchesPreviousFormulation:
    """The refactor is a reformulation, not a new statistic."""

    @given(cuts=st.lists(st.integers(1, N_TRACES - 1), max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_chunked_stream_matches(self, name, factory, previous, recover, cuts):
        acc = feed_in_chunks(factory(), TRACES, PTS, sorted(set(cuts)))
        ref = previous()
        bounds = [0] + sorted(set(cuts)) + [N_TRACES]
        for begin, end in zip(bounds, bounds[1:]):
            if end > begin:
                ref.update(TRACES[begin:end], PTS[begin:end])
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                getattr(acc, recover)(b), getattr(ref, recover)(b), atol=1e-10
            )

    @given(cuts=st.lists(st.integers(1, N_TRACES - 1), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_merged_shards_match(self, name, factory, previous, recover, cuts):
        bounds = [0] + sorted(set(cuts)) + [N_TRACES]
        shards = []
        for begin, end in zip(bounds, bounds[1:]):
            if end > begin:
                shard = factory()
                shard.update(TRACES[begin:end], PTS[begin:end])
                shards.append(shard)
        # Merge in reverse order too: the re-basing must commute.
        forward = factory()
        for shard in shards:
            forward.merge(shard)
        backward = factory()
        for shard in reversed(shards):
            backward.merge(shard)
        single = previous()
        single.update(TRACES, PTS)
        for b in range(len(KEY)):
            reference = getattr(single, recover)(b)
            np.testing.assert_allclose(
                getattr(forward, recover)(b), reference, atol=1e-10
            )
            np.testing.assert_allclose(
                getattr(backward, recover)(b), reference, atol=1e-10
            )

    def test_empty_is_merge_identity(self, name, factory, previous, recover):
        full = factory()
        full.update(TRACES, PTS)
        left = factory()
        left.merge(full)
        right = full.copy()
        right.merge(factory())
        for b in range(len(KEY)):
            np.testing.assert_array_equal(
                getattr(left, recover)(b), getattr(full, recover)(b)
            )
            np.testing.assert_array_equal(
                getattr(right, recover)(b), getattr(full, recover)(b)
            )

    def test_save_load_matches_previous(self, name, factory, previous, recover,
                                        tmp_path):
        acc = feed_in_chunks(factory(), TRACES, PTS, [31, 140])
        acc.save(tmp_path / "state.npz")
        restored = type(acc).load(tmp_path / "state.npz")
        ref = previous()
        ref.update(TRACES, PTS)
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                getattr(restored, recover)(b), getattr(ref, recover)(b),
                atol=1e-10,
            )


class TestScoringTimeModelSwap:
    """The store never sees the model, so the hypothesis swaps for free."""

    def test_cpa_swap_equals_fresh_accumulator(self):
        acc = feed_in_chunks(CpaDistinguisher(), TRACES, PTS, [100])
        swapped = acc.with_model("identity")
        fresh = CpaDistinguisher(model="identity")
        fresh.update(TRACES, PTS)
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                swapped.correlation(b), fresh.correlation(b), atol=1e-12
            )
        # The original keeps scoring under its own model.
        assert acc.model.name == "hw"
        assert swapped._config()["model"] == "identity"

    def test_dpa_swap_equals_fresh_accumulator(self):
        acc = feed_in_chunks(DpaDistinguisher(), TRACES, PTS, [77])
        swapped = acc.with_model("lsb")
        fresh = DpaDistinguisher(model="lsb")
        fresh.update(TRACES, PTS)
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                swapped.difference(b), fresh.difference(b), atol=1e-12
            )

    def test_dpa_swap_rejects_non_binary_model(self):
        acc = DpaDistinguisher()
        with pytest.raises(ValueError, match="binary"):
            acc.with_model("hw")

    def test_swap_recovers_the_key_either_way(self):
        acc = feed_in_chunks(CpaDistinguisher(), TRACES, PTS, [64, 192])
        assert acc.recovered_key() == KEY
        assert acc.with_model("identity").recovered_key() == KEY


class TestBufferTransparency:
    """The staging buffer is an implementation detail callers never see."""

    def test_scores_identical_across_interleaved_reads(self):
        streamed = CpaDistinguisher()
        done = 0
        for cut in (3, 60, 200, N_TRACES):
            streamed.update(TRACES[done:cut], PTS[done:cut])
            streamed.guess_scores()          # forces a flush mid-stream
            done = cut
        unread = CpaDistinguisher()
        unread.update(TRACES, PTS)
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                streamed.correlation(b), unread.correlation(b), atol=1e-10
            )

    def test_large_stream_triggers_automatic_flush(self):
        acc = CpaDistinguisher()
        acc._FLUSH_MAX_ROWS = 64             # force several flushes
        for lo in range(0, N_TRACES, 50):
            acc.update(TRACES[lo:lo + 50], PTS[lo:lo + 50])
        assert acc._pending_rows < 64
        reference = CpaDistinguisher()
        reference.update(TRACES, PTS)
        for b in range(len(KEY)):
            np.testing.assert_allclose(
                acc.correlation(b), reference.correlation(b), atol=1e-10
            )

    def test_explicit_flush_is_idempotent(self):
        acc = CpaDistinguisher()
        acc.update(TRACES[:50], PTS[:50])
        acc.flush()
        acc.flush()
        assert acc.n_traces == 50
        assert acc._pending_rows == 0


class TestCheckpointVersioning:
    """Checkpoints of another state layout fail with a ValueError."""

    @pytest.mark.parametrize("cls,kind", [
        (CpaDistinguisher, "cpa"), (DpaDistinguisher, "dpa"),
        (CpaDistinguisher, "online_cpa.cc1"), (DpaDistinguisher, "cpa.cc1"),
    ])
    def test_foreign_kind_rejected(self, cls, kind, tmp_path):
        import json

        np.savez(
            tmp_path / "old.npz",
            kind=np.array(kind),
            config=np.array(json.dumps({"model": "hw", "aggregate": 1})),
            n=np.array([100]),
        )
        with pytest.raises(ValueError, match="kind"):
            cls.load(tmp_path / "old.npz")

    def test_kindless_npz_rejected(self, tmp_path):
        np.savez(tmp_path / "bare.npz", n=np.array([1]))
        with pytest.raises(ValueError, match="kind"):
            CpaDistinguisher.load(tmp_path / "bare.npz")

"""Merge algebra of the CPA/DPA accumulators (property-based).

The sharded parallel campaign is only correct if merging is a faithful
stand-in for single-stream accumulation: any way of cutting a stream into
shards, accumulating them independently, and merging in any order must
recover the single accumulator's matrices.  Hypothesis drives the shard
cuts; every recovered score matrix must agree to 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest
from factories import feed_in_chunks, leaky_traces
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.distinguishers import CpaDistinguisher, DpaDistinguisher

N_TRACES = 240
SAMPLES = 24
KEY = bytes(range(8))

_rng = np.random.default_rng(0xD1CE)
# A DC offset forces every shard to centre on a different reference, so
# these properties cover the merge's re-basing algebra, not just addition.
TRACES, PTS = leaky_traces(
    _rng, N_TRACES, KEY, noise=0.8, samples=SAMPLES, offset=250.0
)

ACCUMULATORS = [CpaDistinguisher, DpaDistinguisher]


def _shard_accumulators(cls, cuts):
    """One accumulator per consecutive [begin, end) slice."""
    bounds = [0] + sorted(set(cuts)) + [N_TRACES]
    shards = []
    for begin, end in zip(bounds, bounds[1:]):
        if end > begin:
            acc = cls()
            acc.update(TRACES[begin:end], PTS[begin:end])
            shards.append(acc)
    return shards


def _single(cls):
    acc = cls()
    acc.update(TRACES, PTS)
    return acc


def _assert_scores_close(a, b, atol=1e-12):
    assert a.n_traces == b.n_traces
    for byte_index in range(len(KEY)):
        np.testing.assert_allclose(
            a.score_matrix(byte_index), b.score_matrix(byte_index), atol=atol
        )


@pytest.mark.parametrize("cls", ACCUMULATORS)
class TestMergeProperties:
    @given(cuts=st.lists(st.integers(1, N_TRACES - 1), max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_merge_of_shards_matches_single_stream(self, cls, cuts):
        shards = _shard_accumulators(cls, cuts)
        merged = cls()
        for shard in shards:
            merged.merge(shard)
        _assert_scores_close(merged, _single(cls))

    @given(
        cut=st.integers(1, N_TRACES - 1),
        order=st.permutations(range(3)),
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_is_commutative_in_any_order(self, cls, cut, order):
        second_cut = (cut + N_TRACES // 3) % (N_TRACES - 1) + 1
        shards = _shard_accumulators(cls, [cut, second_cut])
        if len(shards) != 3:
            return  # degenerate cut pair; covered by other examples
        merged = cls()
        for position in order:
            merged.merge(shards[position])
        _assert_scores_close(merged, _single(cls))

    @given(cut=st.integers(2, N_TRACES - 2))
    @settings(max_examples=15, deadline=None)
    def test_merge_is_associative(self, cls, cut):
        # cut // 2 < cut always holds for cut >= 2, so this is 3 shards.
        a, b, c = _shard_accumulators(cls, [cut // 2, cut])
        left = (a.copy().merge(b)).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        _assert_scores_close(left, right)

    def test_empty_accumulator_is_the_identity(self, cls):
        full = _single(cls)
        left = cls().merge(full)
        right = full.copy().merge(cls())
        for byte_index in range(len(KEY)):
            np.testing.assert_array_equal(
                left.score_matrix(byte_index), full.score_matrix(byte_index)
            )
            np.testing.assert_array_equal(
                right.score_matrix(byte_index), full.score_matrix(byte_index)
            )

    def test_merge_leaves_the_donor_untouched(self, cls):
        a, b = _shard_accumulators(cls, [N_TRACES // 2])
        reference = b.copy()
        a.merge(b)
        assert b.n_traces == reference.n_traces
        for byte_index in (0, len(KEY) - 1):
            np.testing.assert_array_equal(
                b.score_matrix(byte_index), reference.score_matrix(byte_index)
            )

    def test_save_load_round_trips_a_merged_accumulator(self, cls, tmp_path):
        shards = _shard_accumulators(cls, [50, 130, 190])
        merged = cls()
        for shard in shards:
            merged += shard
        merged.save(tmp_path / "merged.npz")
        restored = cls.load(tmp_path / "merged.npz")
        _assert_scores_close(restored, merged)
        # a restored accumulator keeps merging
        extra = cls()
        extra.update(TRACES[:40], PTS[:40])
        grown = restored.merge(extra)
        assert grown.n_traces == N_TRACES + 40


class TestMergeOperators:
    def test_add_returns_a_fresh_accumulator(self):
        a, b = _shard_accumulators(CpaDistinguisher, [100])
        total = a + b
        assert total.n_traces == N_TRACES
        assert a.n_traces == 100
        _assert_scores_close(total, _single(CpaDistinguisher))

    def test_iadd_merges_in_place(self):
        a, b = _shard_accumulators(CpaDistinguisher, [100])
        a += b
        assert a.n_traces == N_TRACES

    def test_add_rejects_foreign_types(self):
        a = _single(CpaDistinguisher)
        with pytest.raises(TypeError):
            a.merge(_single(DpaDistinguisher))
        assert a.__add__(3) is NotImplemented


class TestMergeValidation:
    def test_aggregate_mismatch_rejected(self):
        a = CpaDistinguisher(aggregate=2)
        a.update(TRACES[:20], PTS[:20])
        b = CpaDistinguisher(aggregate=4)
        b.update(TRACES[20:40], PTS[20:40])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_sample_width_mismatch_rejected(self):
        a = _single(CpaDistinguisher)
        b = CpaDistinguisher()
        b.update(TRACES[:20, : SAMPLES // 2], PTS[:20])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_byte_width_mismatch_rejected(self):
        a = _single(CpaDistinguisher)
        b = CpaDistinguisher()
        b.update(TRACES[:20], PTS[:20, :4])
        with pytest.raises(ValueError):
            a.merge(b)

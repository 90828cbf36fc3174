"""The pluggable distinguisher framework: batch == online == merged.

Every distinguisher is one sufficient-statistics core with three faces;
these properties pin the face-equivalence per distinguisher (hypothesis
drives the chunk and shard cuts), the registry/spec plumbing, the new
second-order and LRA statistics against direct reference computations,
and the masked-vs-unmasked separation the second-order attack exists for.
"""

from __future__ import annotations

import numpy as np
import pytest
from factories import feed_in_chunks, leaky_traces, masked_leaky_traces
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import geometric_checkpoints, traces_to_rank1
from repro.attacks.distinguishers import (
    CpaDistinguisher,
    DistinguisherSpec,
    DpaDistinguisher,
    LinearRegressionAnalysis,
    SecondOrderCpa,
    available_distinguishers,
    available_lra_bases,
    get_distinguisher,
    lra_basis,
    masked_aes_windows,
    resolve_distinguisher,
)
from repro.attacks.leakage_models import get_leakage_model

N_TRACES = 240
SAMPLES = 24
KEY = bytes(range(4))
WINDOW1 = (2, 6)
WINDOW2 = (12, 16)

_rng = np.random.default_rng(0xFACE)
# A DC offset forces every shard onto a different centring reference, so
# the properties exercise the merge re-basing algebra, not just addition.
TRACES, PTS = leaky_traces(
    _rng, N_TRACES, KEY, noise=0.8, samples=SAMPLES, offset=120.0
)
M_TRACES, M_PTS = masked_leaky_traces(
    _rng, N_TRACES, KEY, noise=0.6, samples=SAMPLES,
    window1=WINDOW1, window2=WINDOW2, offset=120.0,
)


def _factories():
    """(name, fresh-accumulator factory, trace set) per configuration."""
    return [
        ("cpa-hw", lambda: CpaDistinguisher(), (TRACES, PTS)),
        ("cpa-identity", lambda: CpaDistinguisher(model="identity"), (TRACES, PTS)),
        ("dpa-msb", lambda: DpaDistinguisher(), (TRACES, PTS)),
        ("dpa-lsb", lambda: DpaDistinguisher(model="lsb"), (TRACES, PTS)),
        ("cpa2", lambda: SecondOrderCpa(WINDOW1, WINDOW2), (M_TRACES, M_PTS)),
        ("lra-bits", lambda: LinearRegressionAnalysis(), (TRACES, PTS)),
        ("lra-hw", lambda: LinearRegressionAnalysis(basis="hw"), (TRACES, PTS)),
    ]


def _assert_scores_close(a, b, atol=1e-10):
    assert a.n_traces == b.n_traces
    for byte_index in range(len(KEY)):
        np.testing.assert_allclose(
            a.score_matrix(byte_index), b.score_matrix(byte_index), atol=atol
        )


@pytest.mark.parametrize("name,factory,data", _factories())
class TestFaceEquivalence:
    """batch == online == merged, for every distinguisher."""

    @given(cuts=st.lists(st.integers(1, N_TRACES - 1), max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_any_chunking_matches_batch(self, name, factory, data, cuts):
        traces, pts = data
        online = feed_in_chunks(factory(), traces, pts, sorted(set(cuts)))
        _assert_scores_close(online, factory().batch(traces, pts))

    @given(cuts=st.lists(st.integers(1, N_TRACES - 1), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_merged_shards_match_single_stream(self, name, factory, data, cuts):
        traces, pts = data
        bounds = [0] + sorted(set(cuts)) + [N_TRACES]
        merged = factory()
        for begin, end in zip(bounds, bounds[1:]):
            if end > begin:
                shard = factory()
                shard.update(traces[begin:end], pts[begin:end])
                merged.merge(shard)
        _assert_scores_close(merged, factory().batch(traces, pts))

    def test_merge_operators_and_identity(self, name, factory, data):
        traces, pts = data
        a = factory()
        a.update(traces[:100], pts[:100])
        b = factory()
        b.update(traces[100:], pts[100:])
        total = a + b
        _assert_scores_close(total, factory().batch(traces, pts))
        empty = factory()
        empty += total
        _assert_scores_close(empty, total)

    def test_save_load_roundtrip(self, name, factory, data, tmp_path):
        traces, pts = data
        acc = factory()
        acc.update(traces, pts)
        acc.save(tmp_path / "state.npz")
        restored = type(acc).load(tmp_path / "state.npz")
        assert restored.n_traces == acc.n_traces
        assert restored._config() == acc._config()
        _assert_scores_close(restored, acc, atol=0.0)

    def test_incomplete_checkpoint_rejected_cleanly(
        self, name, factory, data, tmp_path
    ):
        """A right-kind .npz missing state fields fails with a clear error."""
        acc = factory()
        cls = type(acc)
        np.savez(tmp_path / "old.npz", kind=np.array(cls._KIND),
                 aggregate=np.array([1]), n=np.array([10]))
        with pytest.raises(ValueError, match="incomplete.*config"):
            cls.load(tmp_path / "old.npz")

    def test_config_mismatch_refuses_merge(self, name, factory, data):
        traces, pts = data
        a = factory()
        a.update(traces[:50], pts[:50])
        b = type(a)(**{**a._config(), "aggregate": a.aggregate + 1})
        with pytest.raises(ValueError):
            a.merge(b)


class TestSecondOrder:
    def test_matches_direct_centred_product(self):
        """Online moments == forming the centred product in one batch."""
        acc = feed_in_chunks(
            SecondOrderCpa(WINDOW1, WINDOW2), M_TRACES, M_PTS, [7, 90, 91]
        )
        u = M_TRACES[:, WINDOW1[0]:WINDOW1[1]]
        v = M_TRACES[:, WINDOW2[0]:WINDOW2[1]]
        u = u - u.mean(axis=0)
        v = v - v.mean(axis=0)
        z = (u[:, :, None] * v[:, None, :]).reshape(N_TRACES, -1)
        zc = z - z.mean(axis=0)
        model = get_leakage_model("hd")
        for b in range(len(KEY)):
            h = model.hypotheses(M_PTS[:, b])
            hc = h - h.mean(axis=0)
            num = hc.T @ zc
            den = (
                np.sqrt((hc * hc).sum(axis=0))[:, None]
                * np.sqrt((zc * zc).sum(axis=0))[None, :]
            )
            reference = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
            np.testing.assert_allclose(
                acc.combined_correlation(b), reference, atol=1e-10
            )

    def test_recovers_masked_key_where_first_order_fails(self):
        """The tentpole separation on synthetic masked traces."""
        rng = np.random.default_rng(7)
        key = bytes([0x2B, 0x7E, 0x15, 0x16])
        traces, pts = masked_leaky_traces(rng, 1500, key, noise=0.5)
        acc = SecondOrderCpa((2, 6), (12, 16))
        acc.update(traces, pts)
        assert acc.key_ranks(key) == [1, 1, 1, 1]
        assert acc.recovered_key() == key
        # First-order CPA sees only masked shares: not a single byte at
        # rank 1 at the same budget.
        first_order = CpaDistinguisher().batch(traces, pts)
        assert min(first_order.key_ranks(key)) > 1

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SecondOrderCpa((5, 2), (12, 16))
        with pytest.raises(ValueError):
            SecondOrderCpa((-1, 4), (12, 16))
        acc = SecondOrderCpa((0, 8), (20, 40))
        with pytest.raises(ValueError):
            acc.update(M_TRACES, M_PTS)   # window2 beyond 24 samples

    def test_masked_aes_windows_layout(self):
        """The derived windows sit on the documented op blocks (RD-0)."""
        (a1, b1), (a2, b2) = masked_aes_windows(samples_per_op=2)
        assert (b1 - a1) == (b2 - a2) == 32    # 16 ops x 2 samples
        assert a2 - a1 == 64                   # two 16-op blocks apart
        shifted = masked_aes_windows(samples_per_op=2, nop_header=96)
        assert shifted[0][0] == a1 + 192


class TestLinearRegression:
    def test_matches_lstsq_reference(self):
        acc = feed_in_chunks(
            LinearRegressionAnalysis(), TRACES, PTS, [13, 77]
        )
        basis = lra_basis("bits")
        from repro.ciphers.aes import SBOX

        sbox = np.asarray(SBOX, dtype=np.uint8)
        for b, guess in [(0, KEY[0]), (1, 99)]:
            design = basis[sbox[PTS[:, b] ^ guess]]
            beta, *_ = np.linalg.lstsq(design, TRACES, rcond=None)
            ssr = ((TRACES - design @ beta) ** 2).sum(axis=0)
            sst = ((TRACES - TRACES.mean(axis=0)) ** 2).sum(axis=0)
            np.testing.assert_allclose(
                acc.r_squared(b)[guess], 1.0 - ssr / sst, atol=1e-9
            )

    def test_recovers_key(self):
        rng = np.random.default_rng(11)
        key = bytes([200, 3, 77, 150])
        traces, pts = leaky_traces(rng, 1200, key, noise=1.0, samples=20)
        acc = LinearRegressionAnalysis()
        acc.update(traces, pts)
        assert acc.recovered_key() == key

    def test_min_traces_guard(self):
        acc = LinearRegressionAnalysis()
        assert acc.min_traces == 11            # 9 basis params + 2
        acc.update(TRACES[:5], PTS[:5])
        with pytest.raises(ValueError):
            acc.guess_scores()

    def test_unknown_basis_lists_choices(self):
        with pytest.raises(ValueError, match="bits"):
            LinearRegressionAnalysis(basis="fourier")
        assert available_lra_bases() == ("bits", "hw")


class TestRegistryAndSpec:
    def test_available_names(self):
        assert available_distinguishers() == (
            "cpa", "cpa2", "dpa", "lra", "nnp", "template"
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="cpa, cpa2, dpa, lra, nnp, template"):
            get_distinguisher("mia")
        with pytest.raises(ValueError, match="cpa, cpa2, dpa, lra, nnp, template"):
            DistinguisherSpec(name="mia").build()

    def test_spec_builds_each_kind(self):
        assert isinstance(DistinguisherSpec().build(), CpaDistinguisher)
        assert isinstance(
            DistinguisherSpec(name="dpa").build(), DpaDistinguisher
        )
        assert isinstance(
            DistinguisherSpec(
                name="cpa2", window1=WINDOW1, window2=WINDOW2
            ).build(),
            SecondOrderCpa,
        )
        assert isinstance(
            DistinguisherSpec(name="lra").build(), LinearRegressionAnalysis
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="window"):
            DistinguisherSpec(name="cpa2").build()
        with pytest.raises(ValueError, match="basis"):
            DistinguisherSpec(name="lra", leakage_model="hw").build()
        with pytest.raises(ValueError):
            DistinguisherSpec(name="dpa", leakage_model="hw").build()

    def test_resolve_coercions(self):
        spec, acc = resolve_distinguisher(None, aggregate=4)
        assert spec == DistinguisherSpec(aggregate=4)
        assert isinstance(acc, CpaDistinguisher) and acc.aggregate == 4
        spec, acc = resolve_distinguisher("lra")
        assert spec.name == "lra" and isinstance(acc, LinearRegressionAnalysis)
        ready = DpaDistinguisher()
        spec, acc = resolve_distinguisher(ready)
        assert spec is None and acc is ready
        ready.update(TRACES[:10], PTS[:10])
        with pytest.raises(ValueError, match="empty"):
            resolve_distinguisher(ready)

    def test_spec_is_picklable(self):
        import pickle

        spec = DistinguisherSpec(name="cpa2", window1=WINDOW1, window2=WINDOW2)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestTracesToRank1Distinguisher:
    def test_incremental_ladder_matches_one_shot_batches(self):
        """Folding each rung's new traces in == a fresh batch per rung."""
        rng = np.random.default_rng(5)
        key = bytes(range(8))
        traces, pts = leaky_traces(rng, 400, key, noise=0.5, samples=20)
        expected = next(
            count for count in geometric_checkpoints(400)
            if CpaDistinguisher().batch(traces[:count], pts[:count])
            .key_ranks(key) == [1] * len(key)
        )
        assert traces_to_rank1(traces, pts, key) == expected
        assert traces_to_rank1(
            traces, pts, key, distinguisher="cpa"
        ) == expected

    def test_second_order_spec_on_masked_traces(self):
        rng = np.random.default_rng(6)
        key = bytes([9, 18, 27, 36])
        traces, pts = masked_leaky_traces(rng, 1500, key, noise=0.5)
        spec = DistinguisherSpec(name="cpa2", window1=(2, 6), window2=(12, 16))
        assert traces_to_rank1(traces, pts, key, distinguisher=spec) is not None
        assert traces_to_rank1(traces, pts, key) is None   # first-order fails

"""Versioned profile directories: round-trips, validation, refusals."""

from __future__ import annotations

import json

import numpy as np
import pytest
from factories import KEY, leaky_traces, masked_leaky_traces

from repro.profiled import (
    PROFILE_VERSION,
    TemplateDistinguisher,
    fit_nn_profile,
    fit_template_profile,
    load_manifest,
    load_profile,
    masked_byte_pois,
)

SMALL_KEY = KEY[:4]
POIS = [[2 * b, 2 * b + 1] for b in range(4)]


@pytest.fixture(scope="module")
def profiling_set():
    rng = np.random.default_rng(7)
    return leaky_traces(rng, 600, SMALL_KEY)


@pytest.fixture(scope="module")
def template_profile(profiling_set):
    return fit_template_profile(
        profiling_set, SMALL_KEY, model="hw", pois=POIS,
        meta={"cipher": "aes", "rd": 0},
    )


@pytest.fixture(scope="module")
def nn_profile(profiling_set):
    return fit_nn_profile(
        profiling_set, SMALL_KEY, model="hw", pois=POIS, epochs=2,
        meta={"cipher": "aes", "rd": 0},
    )


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["template", "nn"])
    def test_save_load_preserves_scores(
        self, kind, tmp_path, template_profile, nn_profile, rng
    ):
        profile = template_profile if kind == "template" else nn_profile
        profile.save(tmp_path / kind)
        loaded = load_profile(tmp_path / kind)
        assert loaded.kind == kind
        assert loaded.model.name == "hw"
        assert loaded.segment_length == profile.segment_length
        assert loaded.n_traces == profile.n_traces
        assert loaded.meta == {"cipher": "aes", "rd": 0}
        np.testing.assert_array_equal(loaded.pois, profile.pois)
        x = rng.normal(0, 1, (20, 2))
        for b in range(4):
            np.testing.assert_allclose(
                loaded.class_log_likelihood(b, x),
                profile.class_log_likelihood(b, x),
                atol=1e-12,
            )

    def test_fingerprint_survives_the_round_trip(
        self, tmp_path, template_profile
    ):
        template_profile.save(tmp_path / "p")
        assert (
            load_profile(tmp_path / "p").fingerprint()
            == template_profile.fingerprint()
        )

    def test_different_fits_have_different_fingerprints(
        self, profiling_set, template_profile
    ):
        other = fit_template_profile(
            profiling_set, SMALL_KEY, model="hw", pois=POIS, pooled=False
        )
        assert other.fingerprint() != template_profile.fingerprint()

    def test_nn_combine_round_trips(self, profiling_set, tmp_path, rng):
        profile = fit_nn_profile(
            profiling_set, SMALL_KEY, model="hw", pois=POIS, epochs=2,
            combine=True,
        )
        profile.save(tmp_path / "c")
        loaded = load_profile(tmp_path / "c")
        assert loaded.combine
        x = rng.normal(0, 1, (10, 2))
        np.testing.assert_allclose(
            loaded.class_log_likelihood(1, x),
            profile.class_log_likelihood(1, x),
            atol=1e-12,
        )

    def test_describe_names_the_target(self, template_profile):
        text = template_profile.describe()
        assert "aes RD-0" in text
        assert "hw model" in text


class TestManifestValidation:
    def test_missing_manifest_is_not_a_profile(self, tmp_path):
        with pytest.raises(ValueError, match="not a profile directory"):
            load_manifest(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_manifest(tmp_path)

    def test_future_version_rejected(self, tmp_path, template_profile):
        template_profile.save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = PROFILE_VERSION + 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_profile(tmp_path)

    def test_unknown_kind_rejected(self, tmp_path, template_profile):
        template_profile.save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["kind"] = "quantum"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown profile kind"):
            load_profile(tmp_path)


class TestAttackTimeRefusals:
    def test_segment_length_mismatch_refused(self, template_profile, rng):
        acc = TemplateDistinguisher(template_profile)
        traces, pts = leaky_traces(rng, 16, SMALL_KEY, samples=64)
        with pytest.raises(ValueError, match="40-sample"):
            acc.update(traces, pts)

    def test_wrong_profile_kind_refused(self, nn_profile):
        with pytest.raises(ValueError, match="kind 'nn'"):
            TemplateDistinguisher(nn_profile)

    def test_unsaved_profile_cannot_checkpoint(
        self, tmp_path, profiling_set, rng
    ):
        unsaved = fit_template_profile(
            profiling_set, SMALL_KEY, model="hw", pois=POIS
        )
        acc = TemplateDistinguisher(unsaved)
        traces, pts = leaky_traces(rng, 16, SMALL_KEY)
        acc.update(traces, pts)
        with pytest.raises(ValueError, match="unsaved"):
            acc.save(tmp_path / "ckpt.npz")

    def test_checkpoint_pins_the_profile_fingerprint(
        self, tmp_path, profiling_set, rng
    ):
        profile = fit_template_profile(
            profiling_set, SMALL_KEY, model="hw", pois=POIS
        ).save(tmp_path / "p")
        acc = TemplateDistinguisher(profile)
        traces, pts = leaky_traces(rng, 32, SMALL_KEY)
        acc.update(traces, pts)
        acc.save(tmp_path / "ckpt.npz")
        restored = TemplateDistinguisher.load(tmp_path / "ckpt.npz")
        np.testing.assert_allclose(
            restored.guess_scores(), acc.guess_scores(), atol=1e-12
        )
        # Swap a differently-fitted profile in under the same path: the
        # checkpoint must refuse to resume on it.
        fit_template_profile(
            profiling_set, SMALL_KEY, model="hw", pois=POIS, pooled=False
        ).save(tmp_path / "p")
        with pytest.raises(ValueError, match="fingerprint"):
            TemplateDistinguisher.load(tmp_path / "ckpt.npz")

    def test_pois_outside_the_segment_rejected(self, profiling_set):
        with pytest.raises(ValueError, match="outside"):
            fit_template_profile(
                profiling_set, SMALL_KEY, pois=[[999]] * 4
            )


class TestMaskedByteLayout:
    def test_masked_pois_cover_both_windows(self):
        from repro.attacks.distinguishers import masked_aes_windows

        (w1s, w1e), (w2s, w2e) = masked_aes_windows()
        pois = masked_byte_pois()
        assert pois.shape[0] == 16
        flat = pois.ravel()
        assert ((w1s <= flat) & (flat < w1e) | (w2s <= flat) & (flat < w2e)).all()
        # Disjoint across bytes: each byte owns its own share samples.
        assert len(set(flat.tolist())) == flat.size

    def test_per_class_covariance_carries_the_masked_leakage(self, rng):
        """Pooled templates are blind under masking; per-class ones are not."""
        key = KEY[:4]
        traces, pts = masked_leaky_traces(rng, 5000, key, noise=0.5)
        pois = [[2 + b, 12 + b] for b in range(4)]
        per_class = fit_template_profile(
            (traces, pts), key, model="hd", pois=pois, pooled=False
        )
        pooled = fit_template_profile(
            (traces, pts), key, model="hd", pois=pois, pooled=True
        )
        atk_traces, atk_pts = masked_leaky_traces(rng, 500, key, noise=0.5)
        strong = TemplateDistinguisher(per_class)
        strong.update(atk_traces, atk_pts)
        assert max(strong.key_ranks(key)) == 1
        blind = TemplateDistinguisher(pooled)
        blind.update(atk_traces, atk_pts)
        assert max(blind.key_ranks(key)) > 8

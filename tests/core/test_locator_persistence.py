"""Saving and restoring trained locators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.core.locator import CryptoLocator
from repro.errors import IncompatibleArtifactError
from repro.soc import SimulatedPlatform

CONFIG = PipelineConfig(
    cipher="camellia",
    n_train=128,
    n_inf=112,
    stride=16,
    kernel_size=17,
    n_start_windows=48,
    n_rest_windows=48,
    n_noise_windows=32,
    epochs=2,
    start_augmentation=4,
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    platform = SimulatedPlatform("camellia", max_delay=2, seed=7)
    locator = CryptoLocator(CONFIG, seed=8)
    locator.fit_from_platform(platform, noise_ops=15_000, boundary_cos=12)
    path = tmp_path_factory.mktemp("locator") / "camellia_rd2.npz"
    locator.save(path)
    return locator, platform, path


class TestPersistence:
    def test_restored_locator_reproduces_decisions(self, trained):
        original, platform, path = trained
        session = platform.capture_session_trace(5, noise_interleaved=True)
        expected = original.locate(session.trace)
        restored = CryptoLocator(CONFIG, seed=999).load(path)
        np.testing.assert_array_equal(restored.locate(session.trace), expected)

    def test_calibrations_roundtrip(self, trained):
        original, _, path = trained
        restored = CryptoLocator(CONFIG, seed=999).load(path)
        assert restored.threshold == original.threshold
        assert restored.start_bias == original.start_bias
        assert restored.co_length == original.co_length
        assert restored.calibration.mean == pytest.approx(original.calibration.mean)

    def test_unfitted_locator_cannot_save(self, tmp_path):
        locator = CryptoLocator(CONFIG, seed=0)
        with pytest.raises(RuntimeError):
            locator.save(tmp_path / "nope.npz")

    def test_load_rejects_mismatched_config(self, trained, tmp_path):
        _, _, path = trained
        from dataclasses import replace

        other = CryptoLocator(replace(CONFIG, stride=8), seed=0)
        with pytest.raises(ValueError, match="stride"):
            other.load(path)

    def test_load_refuses_another_random_delay(self, trained):
        """An RD-2 locator misses RD-0 COs, so loading it for RD 0 fails."""
        _, _, path = trained
        restored = CryptoLocator(CONFIG, seed=0).load(path, max_delay=2)
        assert restored.platform == {"cipher": "camellia", "max_delay": 2}
        with pytest.raises(IncompatibleArtifactError) as refused:
            CryptoLocator(CONFIG, seed=0).load(path, max_delay=0)
        assert refused.value.field == "max_delay"
        assert (refused.value.stored, refused.value.wanted) == (2, 0)

    def test_load_refuses_an_unversioned_file(self, trained, tmp_path):
        _, _, path = trained
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        del state["meta.manifest"]
        state["meta.config"] = np.array(["camellia", "128", "112", "16", "17"])
        np.savez(tmp_path / "old.npz", **state)
        with pytest.raises(IncompatibleArtifactError, match="repro train"):
            CryptoLocator(CONFIG, seed=0).load(tmp_path / "old.npz")

    def test_restored_locator_can_align(self, trained):
        _, platform, path = trained
        restored = CryptoLocator(CONFIG, seed=999).load(path)
        session = platform.capture_session_trace(4)
        starts = restored.locate(session.trace)
        segments, kept = restored.align(session.trace, starts=starts)
        assert segments.shape[1] == 2 * CONFIG.n_inf

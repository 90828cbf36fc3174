"""The paper's 1D ResNet (Figure 2) and its score read-outs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import model
from repro.core.model import LocatorCNN, build_locator_cnn, scores_from_logits
from repro.nn import BatchNorm1d, Conv1d, GlobalAvgPool1d, Linear, ResidualBlock1d


class TestArchitecture:
    def test_stage_sequence_matches_figure_2(self, rng):
        net = build_locator_cnn(kernel_size=9, rng=rng)
        types = [type(step).__name__ for step in net.steps]
        assert types == [
            "Conv1d", "BatchNorm1d", "ReLU",
            "ResidualBlock1d", "ResidualBlock1d",
            "GlobalAvgPool1d",
            "Linear", "ReLU", "Linear",
        ]

    def test_filter_counts(self, rng):
        net = build_locator_cnn(kernel_size=9, rng=rng)
        assert net.steps[0].out_channels == 16
        assert net.steps[3].conv1.out_channels == 16
        assert net.steps[4].conv1.out_channels == 32
        assert net.steps[8].out_features == 2

    def test_second_block_has_projection(self, rng):
        net = build_locator_cnn(kernel_size=9, rng=rng)
        assert net.steps[3].proj_conv is None
        assert net.steps[4].proj_conv is not None

    def test_output_shape(self, rng):
        net = build_locator_cnn(kernel_size=9, rng=rng)
        net.eval()
        y = net.forward(rng.normal(0, 1, (4, 1, 64)).astype(np.float32))
        assert y.shape == (4, 2)

    def test_window_size_agnostic(self, rng):
        """GAP makes N_train != N_inf possible (Section IV-B)."""
        net = build_locator_cnn(kernel_size=9, rng=rng)
        net.eval()
        y_small = net.forward(rng.normal(0, 1, (2, 1, 48)).astype(np.float32))
        y_large = net.forward(rng.normal(0, 1, (2, 1, 200)).astype(np.float32))
        assert y_small.shape == y_large.shape == (2, 2)


class TestLocatorCNN:
    def test_logits_batching_consistent(self, rng, monkeypatch):
        """Eval-mode logits do not depend on how windows are chunked."""
        windows = rng.normal(0, 1, (300, 1, 40)).astype(np.float32)
        for kernel in (9, 63):  # direct and FFT convolutions
            cnn = LocatorCNN(build_locator_cnn(kernel_size=kernel, rng=rng))
            results = {}
            for chunk in (1, 7, 128, len(windows)):
                monkeypatch.setattr(model, "INFERENCE_CHUNK", chunk)
                results[chunk] = cnn.logits(windows)
            assert results[1].shape == (300, 2)
            for chunk, logits in results.items():
                np.testing.assert_allclose(logits, results[1], rtol=1e-5, atol=1e-5,
                                           err_msg=f"kernel {kernel}, chunk {chunk}")

    def test_predict_binary(self, rng):
        cnn = LocatorCNN(build_locator_cnn(kernel_size=9, rng=rng))
        preds = cnn.predict(rng.normal(0, 1, (10, 1, 40)).astype(np.float32))
        assert set(np.unique(preds)) <= {0, 1}

    def test_rejects_bad_window_shape(self, rng):
        cnn = LocatorCNN(build_locator_cnn(kernel_size=9, rng=rng))
        with pytest.raises(ValueError):
            cnn.logits(np.zeros((5, 2, 10), dtype=np.float32))


class TestScores:
    def test_margin_is_difference(self):
        logits = np.array([[1.0, 3.0], [2.0, -1.0]])
        np.testing.assert_allclose(scores_from_logits(logits, "margin"), [2.0, -3.0])

    def test_class1_is_second_column(self):
        logits = np.array([[1.0, 3.0]])
        np.testing.assert_allclose(scores_from_logits(logits, "class1"), [3.0])

    def test_prob_in_unit_interval(self, rng):
        logits = rng.normal(0, 3, (10, 2))
        probs = scores_from_logits(logits, "prob")
        assert probs.min() >= 0 and probs.max() <= 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            scores_from_logits(np.zeros((1, 2)), "bogus")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            scores_from_logits(np.zeros((2, 3)), "margin")

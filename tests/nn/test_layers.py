"""Layer forward/backward correctness, including numerical gradient checks.

Gradient checks use directional derivatives with float32-friendly epsilons:
the analytic directional derivative ``grad . d`` must match the central
finite difference of the loss along a random unit direction ``d``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv1d, Flatten, GlobalAvgPool1d, Linear, ReLU


def directional_check(forward, param, analytic_grad, rng, eps=1e-2, rtol=5e-2):
    """Assert the analytic gradient matches a finite-difference probe."""
    direction = rng.normal(0, 1, param.shape).astype(np.float32)
    direction /= np.linalg.norm(direction) + 1e-12
    predicted = float((analytic_grad * direction).sum())
    original = param.copy()
    param[...] = original + eps * direction
    loss_plus = forward()
    param[...] = original - eps * direction
    loss_minus = forward()
    param[...] = original
    actual = (loss_plus - loss_minus) / (2 * eps)
    if abs(actual) < 1e-4 and abs(predicted) < 1e-4:
        return  # both effectively zero
    assert abs(predicted - actual) / (abs(actual) + 1e-8) < rtol, (predicted, actual)


class TestConv1d:
    @pytest.mark.parametrize("kernel", [1, 3, 5, 9, 17, 63])
    def test_same_padding_preserves_length(self, kernel, rng):
        conv = Conv1d(2, 4, kernel, rng=rng)
        x = rng.normal(0, 1, (3, 2, 50)).astype(np.float32)
        assert conv.forward(x).shape == (3, 4, 50)

    def test_direct_and_fft_paths_agree(self, rng):
        """The two implementations must compute the same convolution."""
        x = rng.normal(0, 1, (2, 3, 40)).astype(np.float32)
        for kernel in (11, 13, 21):  # spans the threshold at 12
            conv = Conv1d(3, 5, kernel, rng=np.random.default_rng(5))
            y = conv.forward(x)
            # reference: brute force
            w = conv.weight.data
            padded = np.pad(x, ((0, 0), (0, 0), (conv.pad_left, conv.pad_right)))
            ref = np.zeros_like(y)
            for o in range(5):
                for c in range(3):
                    for n in range(40):
                        ref[:, o, n] += (padded[:, c, n: n + kernel] * w[o, c]).sum(axis=1)
            ref += conv.bias.data[None, :, None]
            np.testing.assert_allclose(y, ref, atol=2e-4)

    @pytest.mark.parametrize("kernel", [5, 17])
    def test_weight_gradient(self, kernel, rng):
        conv = Conv1d(2, 3, kernel, rng=rng)
        x = rng.normal(0, 1, (4, 2, 30)).astype(np.float32)
        g = rng.normal(0, 1, (4, 3, 30)).astype(np.float32)

        def loss():
            return float((conv.forward(x) * g).sum())

        loss()
        conv.zero_grad()
        conv.backward(g)
        directional_check(loss, conv.weight.data, conv.weight.grad, rng)

    @pytest.mark.parametrize("kernel", [5, 17])
    def test_input_gradient(self, kernel, rng):
        conv = Conv1d(2, 3, kernel, rng=rng)
        x = rng.normal(0, 1, (4, 2, 30)).astype(np.float32)
        g = rng.normal(0, 1, (4, 3, 30)).astype(np.float32)
        conv.forward(x)
        conv.zero_grad()
        dx = conv.backward(g)
        direction = rng.normal(0, 1, x.shape).astype(np.float32)
        direction /= np.linalg.norm(direction)
        eps = 1e-2
        predicted = float((dx * direction).sum())
        loss_plus = float((conv.forward(x + eps * direction) * g).sum())
        loss_minus = float((conv.forward(x - eps * direction) * g).sum())
        actual = (loss_plus - loss_minus) / (2 * eps)
        assert abs(predicted - actual) / (abs(actual) + 1e-8) < 5e-2

    def test_bias_gradient_is_grad_sum(self, rng):
        conv = Conv1d(1, 2, 3, rng=rng)
        x = rng.normal(0, 1, (2, 1, 10)).astype(np.float32)
        g = rng.normal(0, 1, (2, 2, 10)).astype(np.float32)
        conv.forward(x)
        conv.zero_grad()
        conv.backward(g)
        np.testing.assert_allclose(conv.bias.grad, g.sum(axis=(0, 2)), rtol=1e-5)

    def test_rejects_wrong_channels(self, rng):
        conv = Conv1d(2, 3, 5, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 10), dtype=np.float32))

    def test_backward_without_forward_raises(self, rng):
        conv = Conv1d(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 5), dtype=np.float32))

    @pytest.mark.parametrize("kernel", [3, 17])  # direct and FFT paths
    def test_backward_after_eval_forward_raises(self, kernel, rng):
        """Eval-mode forwards keep no backward state, not even a stale one."""
        conv = Conv1d(2, 3, kernel, rng=rng)
        x = rng.normal(0, 1, (2, 2, 20)).astype(np.float32)
        conv.forward(x)  # training mode: leaves a backward cache
        conv.eval()
        conv.forward(x)
        with pytest.raises(RuntimeError):
            conv.backward(np.ones((2, 3, 20), dtype=np.float32))

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 0)


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(8, 3, rng=rng)
        x = rng.normal(0, 1, (5, 8)).astype(np.float32)
        assert layer.forward(x).shape == (5, 3)

    def test_weight_gradient(self, rng):
        layer = Linear(6, 4, rng=rng)
        x = rng.normal(0, 1, (3, 6)).astype(np.float32)
        g = rng.normal(0, 1, (3, 4)).astype(np.float32)

        def loss():
            return float((layer.forward(x) * g).sum())

        loss()
        layer.zero_grad()
        layer.backward(g)
        directional_check(loss, layer.weight.data, layer.weight.grad, rng)

    def test_exact_gradients_small_case(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        layer.weight.data[...] = np.array([[2.0, -1.0]], dtype=np.float32)
        layer.bias.data[...] = 0.0
        x = np.array([[1.0, 3.0]], dtype=np.float32)
        y = layer.forward(x)
        np.testing.assert_allclose(y, [[-1.0]])
        layer.zero_grad()
        dx = layer.backward(np.array([[1.0]], dtype=np.float32))
        np.testing.assert_allclose(dx, [[2.0, -1.0]])
        np.testing.assert_allclose(layer.weight.grad, [[1.0, 3.0]])
        np.testing.assert_allclose(layer.bias.grad, [1.0])

    def test_rejects_wrong_width(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 2, rng=rng).forward(np.zeros((1, 5), dtype=np.float32))


class TestReLU:
    def test_forward_clips_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 0.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 1.0]], dtype=np.float32))
        dx = relu.backward(np.array([[5.0, 5.0]], dtype=np.float32))
        np.testing.assert_array_equal(dx, [[0.0, 5.0]])

    def test_zero_input_has_zero_gradient(self):
        relu = ReLU()
        relu.forward(np.zeros((1, 3), dtype=np.float32))
        dx = relu.backward(np.ones((1, 3), dtype=np.float32))
        np.testing.assert_array_equal(dx, np.zeros((1, 3)))

    def test_backward_after_eval_forward_raises(self):
        relu = ReLU()
        x = np.array([[-1.0, 1.0]], dtype=np.float32)
        relu.forward(x)
        relu.eval()
        np.testing.assert_array_equal(relu.forward(x), [[0.0, 1.0]])
        with pytest.raises(RuntimeError):
            relu.backward(np.ones((1, 2), dtype=np.float32))


class TestGlobalAvgPool:
    def test_forward_is_mean(self, rng):
        pool = GlobalAvgPool1d()
        x = rng.normal(0, 1, (2, 3, 7)).astype(np.float32)
        np.testing.assert_allclose(pool.forward(x), x.mean(axis=2), rtol=1e-6)

    def test_backward_distributes_evenly(self):
        pool = GlobalAvgPool1d()
        pool.forward(np.ones((1, 1, 4), dtype=np.float32))
        dx = pool.backward(np.array([[4.0]], dtype=np.float32))
        np.testing.assert_allclose(dx, np.full((1, 1, 4), 1.0))

    def test_length_agnostic(self, rng):
        """The same pooling layer must accept different temporal lengths."""
        pool = GlobalAvgPool1d()
        assert pool.forward(rng.normal(0, 1, (1, 2, 10)).astype(np.float32)).shape == (1, 2)
        assert pool.forward(rng.normal(0, 1, (1, 2, 99)).astype(np.float32)).shape == (1, 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            GlobalAvgPool1d().forward(np.zeros((2, 3), dtype=np.float32))


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.normal(0, 1, (2, 3, 4)).astype(np.float32)
        y = flat.forward(x)
        assert y.shape == (2, 12)
        dx = flat.backward(y)
        np.testing.assert_array_equal(dx, x)

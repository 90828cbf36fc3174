"""Property tests of Conv1d: the invariants the dense engine relies on."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Conv1d, layers


def make_conv(kernel, cin=2, cout=3, seed=11):
    return Conv1d(cin, cout, kernel, rng=np.random.default_rng(seed))


class TestLinearity:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=31).filter(lambda k: k % 2 == 1))
    def test_additivity_minus_bias(self, kernel):
        conv = make_conv(kernel)
        rng = np.random.default_rng(kernel)
        a = rng.normal(0, 1, (2, 2, 40)).astype(np.float32)
        b = rng.normal(0, 1, (2, 2, 40)).astype(np.float32)
        bias = conv.bias.data[None, :, None]
        lhs = conv.forward(a + b) - bias
        rhs = (conv.forward(a) - bias) + (conv.forward(b) - bias)
        np.testing.assert_allclose(lhs, rhs, atol=2e-3)

    def test_homogeneity_minus_bias(self):
        conv = make_conv(7)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (1, 2, 30)).astype(np.float32)
        bias = conv.bias.data[None, :, None]
        np.testing.assert_allclose(
            conv.forward(3.0 * x) - bias,
            3.0 * (conv.forward(x) - bias),
            atol=2e-3,
        )


class TestTranslationEquivariance:
    def test_interior_shift_equivariance(self):
        """Shifting the input shifts the output (away from the borders).

        This is the property that lets the dense scoring engine run the
        trunk once over the whole trace.
        """
        conv = make_conv(9, cin=1, cout=2)
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (1, 1, 100)).astype(np.float32)
        shift = 13
        x_shifted = np.roll(x, shift, axis=2)
        y = conv.forward(x)
        y_shifted = conv.forward(x_shifted)
        margin = 9 + shift
        np.testing.assert_allclose(
            y[:, :, margin:-margin],
            np.roll(y_shifted, -shift, axis=2)[:, :, margin:-margin],
            atol=2e-3,
        )

    def test_impulse_response_is_reversed_kernel(self):
        conv = make_conv(5, cin=1, cout=1)
        x = np.zeros((1, 1, 21), dtype=np.float32)
        x[0, 0, 10] = 1.0
        y = conv.forward(x) - conv.bias.data[None, :, None]
        # y[n] = sum_k x[n+k-pad] w[k] -> the impulse appears time-reversed.
        kernel = conv.weight.data[0, 0]
        pad = conv.pad_left
        segment = y[0, 0, 10 - (5 - 1 - pad): 10 + pad + 1]
        np.testing.assert_allclose(segment, kernel[::-1], atol=1e-4)


class TestAccumulation:
    def test_gradients_accumulate_across_backwards(self):
        conv = make_conv(5)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (1, 2, 20)).astype(np.float32)
        g = rng.normal(0, 1, (1, 3, 20)).astype(np.float32)
        conv.forward(x)
        conv.backward(g)
        first = conv.weight.grad.copy()
        conv.forward(x)
        conv.backward(g)
        np.testing.assert_allclose(conv.weight.grad, 2 * first, rtol=1e-4)


def run_path(conv, x, g, fft):
    """Forward + backward through one implementation; returns y, dW, db, dx."""
    threshold = 0 if fft else conv.kernel_size  # the FFT path runs for K > threshold
    with mock.patch.object(layers, "_FFT_KERNEL_THRESHOLD", threshold):
        conv.zero_grad()
        y = conv.forward(x)
        dx = conv.backward(g)
    return y, conv.weight.grad.copy(), conv.bias.grad.copy(), dx


class TestFftMatchesDirect:
    """The FFT path computes the im2col path's convolution and gradients.

    Even kernels matter: they make ``pad_left != pad_right``, and the FFT
    path crops ``y`` at ``pad_right``, ``dx`` at ``pad_left`` and reads the
    weight-gradient lags ``-pad_left..pad_right`` off a wrapped
    correlation.  Lengths shorter than the kernel and single-channel inputs
    are the other edges.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        kernel=st.integers(min_value=1, max_value=2 * layers._FFT_KERNEL_THRESHOLD + 9),
        n=st.integers(min_value=1, max_value=70),
        cin=st.integers(min_value=1, max_value=3),
        cout=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # Pinned edges: even and odd kernels on both sides of the threshold,
    # N < K, and C = 1 (the locator's first layer).
    @example(kernel=4, n=30, cin=2, cout=3, batch=2, seed=1)
    @example(kernel=5, n=30, cin=2, cout=3, batch=2, seed=2)
    @example(kernel=14, n=30, cin=2, cout=3, batch=2, seed=3)
    @example(kernel=21, n=30, cin=2, cout=3, batch=2, seed=4)
    @example(kernel=20, n=7, cin=2, cout=2, batch=1, seed=5)
    @example(kernel=63, n=40, cin=1, cout=4, batch=3, seed=6)
    def test_forward_and_gradients_match(self, kernel, n, cin, cout, batch, seed):
        rng = np.random.default_rng(seed)
        conv = Conv1d(cin, cout, kernel, rng=rng)
        conv.bias.data[...] = rng.normal(0, 1, cout)
        x = rng.normal(0, 1, (batch, cin, n)).astype(np.float32)
        g = rng.normal(0, 1, (batch, cout, n)).astype(np.float32)
        fft = run_path(conv, x, g, fft=True)
        direct = run_path(conv, x, g, fft=False)
        for name, got, want in zip(("y", "dW", "db", "dx"), fft, direct):
            assert got.shape == want.shape, name
            assert got.dtype == np.float32, name
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * scale, err_msg=name)


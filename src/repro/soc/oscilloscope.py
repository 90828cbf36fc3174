"""Digital sampling oscilloscope model (Picoscope 5244d stand-in).

The paper samples at 125 MS/s with 12-bit resolution while the CPU runs at
50 MHz, i.e. ~2.5 samples per CPU cycle.  The model reproduces the chain's
three distortions:

1. **sampling** — each executed operation is expanded into
   ``samples_per_op`` samples shaped by a pulse (default 2 samples/op,
   the nearest integer ratio to the paper's 2.5);
2. **analog front-end** — a short low-pass kernel smears adjacent
   operations into each other, like limited probe/amplifier bandwidth;
3. **acquisition noise + 12-bit quantisation** — additive Gaussian noise
   followed by clipping and rounding to the ADC grid.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend

__all__ = ["Oscilloscope"]


class Oscilloscope:
    """Converts an instantaneous-power sequence into a sampled trace.

    Parameters
    ----------
    samples_per_op:
        How many trace samples one executed operation spans.
    noise_std:
        Standard deviation of the additive Gaussian acquisition noise, in
        the same (power) units the leakage model outputs.
    adc_bits:
        ADC resolution (the paper's scope: 12 bits).
    v_range:
        Full-scale input range.  Power above the range clips, like an
        over-driven scope input.  The default comfortably fits the
        Hamming-weight model's maximum output.
    bandwidth_kernel:
        Low-pass FIR kernel applied before quantisation (unit DC gain).
    """

    def __init__(
        self,
        samples_per_op: int = 2,
        noise_std: float = 1.0,
        adc_bits: int = 12,
        v_range: float = 48.0,
        bandwidth_kernel: tuple[float, ...] = (0.2, 0.6, 0.2),
    ) -> None:
        if samples_per_op < 1:
            raise ValueError("samples_per_op must be >= 1")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not 1 <= adc_bits <= 24:
            raise ValueError("adc_bits out of range")
        if v_range <= 0:
            raise ValueError("v_range must be positive")
        kernel = np.asarray(bandwidth_kernel, dtype=np.float64)
        if kernel.ndim != 1 or kernel.size == 0 or abs(kernel.sum() - 1.0) > 1e-9:
            raise ValueError("bandwidth_kernel must be 1D with unit sum")
        self.samples_per_op = int(samples_per_op)
        self.noise_std = float(noise_std)
        self.adc_bits = int(adc_bits)
        self.v_range = float(v_range)
        self._kernel = kernel
        # Falling pulse: an instruction's switching activity is strongest in
        # its first sample, like the current spike on a clock edge.
        self._pulse = np.linspace(1.0, 0.55, self.samples_per_op)

    @property
    def lsb(self) -> float:
        """Volts-per-code of the ADC."""
        return self.v_range / (2**self.adc_bits - 1)

    @property
    def right_halo(self) -> int:
        """Samples past its own index that each filtered sample reads.

        This is the right edge padding of the band-limit FIR, which
        therefore shows an op this many samples before its first sample.
        """
        return self._kernel.size - 1 - self._kernel.size // 2

    def capture(self, power: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample an instantaneous-power sequence into a quantised trace.

        Returns a ``float32`` array of length ``len(power) * samples_per_op``
        holding the reconstructed voltages (code * LSB).
        """
        power = np.asarray(power, dtype=np.float64)
        if power.ndim != 1:
            raise ValueError(f"expected 1D power sequence, got shape {power.shape}")
        if power.size == 0:
            return np.zeros(0, dtype=np.float32)
        analog = (power[:, None] * self._pulse[None, :]).ravel()
        analog = self._bandlimit(analog)
        if self.noise_std > 0:
            analog = analog + rng.normal(0.0, self.noise_std, analog.size)
        return self._quantize(analog)

    def capture_batch(
        self,
        powers: "list[np.ndarray]",
        rng: np.random.Generator,
        noise: "list[np.ndarray | None] | None" = None,
    ) -> "list[np.ndarray]":
        """Capture a batch of power sequences (possibly ragged lengths).

        Bit-identical to calling :meth:`capture` on each sequence in
        order with the same generator: pulse shaping and quantisation
        run vectorized over the concatenated batch, the band-limiting
        filter is applied per trace (its edge padding is a per-trace
        boundary condition), and acquisition noise is consumed per trace
        in batch order.  ``noise`` optionally supplies pre-drawn
        per-trace noise (the platform uses this to keep its generator
        consumption order exactly equal to the scalar capture loop);
        entries may be ``None`` to draw from ``rng`` instead.
        """
        powers = [np.asarray(p, dtype=np.float64) for p in powers]
        for p in powers:
            if p.ndim != 1:
                raise ValueError(f"expected 1D power sequences, got shape {p.shape}")
        if noise is not None and len(noise) != len(powers):
            raise ValueError("noise list must match the batch length")
        if not powers:
            return []
        lengths = [p.size * self.samples_per_op for p in powers]
        flat_power = np.concatenate(powers) if len(powers) > 1 else powers[0]
        spp = self.samples_per_op
        analog = np.empty(flat_power.size * spp, dtype=np.float64)
        for s in range(spp):
            np.multiply(flat_power, self._pulse[s], out=analog[s::spp])
        analog = self._bandlimit_batch(analog, lengths)
        if self.noise_std > 0:
            offset = 0
            for index, length in enumerate(lengths):
                if length == 0:
                    continue  # scalar capture returns early, drawing nothing
                drawn = noise[index] if noise is not None and noise[index] is not None \
                    else rng.normal(0.0, self.noise_std, length)
                if drawn.size != length:
                    raise ValueError(
                        f"pre-drawn noise for trace {index} has {drawn.size} "
                        f"samples, expected {length}"
                    )
                analog[offset: offset + length] += drawn
                offset += length
        quantized = self._quantize(analog)
        splits = np.cumsum(lengths)[:-1]
        return [np.ascontiguousarray(t) for t in np.split(quantized, splits)]

    def synthesize_windows(
        self,
        power: np.ndarray,
        widths: np.ndarray,
        offsets: np.ndarray,
        n_out: int,
        lengths: np.ndarray,
        rng: np.random.Generator,
        noise_cols: int | None = None,
    ) -> np.ndarray:
        """Fused windowed capture of a ``(B, W)`` power matrix.

        One backend kernel runs the whole per-window chain — pulse
        expansion, sample-level edge replication past ``widths[b]`` ops,
        the band-limiting FIR, the ``n_out``-sample cut at per-row sample
        ``offsets``, noise, quantisation, and zeroing past ``lengths[b]``
        — bit-identically to the unfused reference chain
        (:meth:`_bandlimit_rows` + :meth:`_quantize`), which the property
        suite pins.  Acquisition noise is drawn here as one bulk float32
        request of ``noise_cols`` (default ``n_out``) columns, preserving
        the fast capture mode's generator consumption exactly.
        """
        noise = None
        if self.noise_std > 0:
            cols = int(n_out if noise_cols is None else noise_cols)
            noise = self.noise_std * rng.standard_normal(
                (power.shape[0], cols), dtype=np.float32
            )
        return get_backend().synthesize_rows(
            power, widths, self._pulse, self._kernel, offsets, int(n_out),
            lengths, noise, self.lsb, 2**self.adc_bits - 1,
        )

    def noise_samples_for_ops(self, n_ops: int) -> int:
        """Trace samples (= noise draws) produced by an ``n_ops`` sequence."""
        return int(n_ops) * self.samples_per_op

    def _bandlimit(self, analog: np.ndarray) -> np.ndarray:
        """Apply the analog front-end FIR with edge padding (one trace)."""
        if self._kernel.size <= 1 or analog.size == 0:
            return analog
        pad = self._kernel.size // 2
        padded = np.pad(analog, (pad, self.right_halo), mode="edge")
        return np.convolve(padded, self._kernel, mode="valid")

    def _bandlimit_batch(self, analog: np.ndarray, lengths: "list[int]") -> np.ndarray:
        """Per-trace FIR over a concatenated batch, bit-equal to :meth:`_bandlimit`.

        One multi-tap pass filters the whole flat array (accumulating taps
        in the same ascending order ``np.convolve`` uses, so interior
        samples match it bitwise); the first/last ``kernel//2`` samples of
        each trace — whose windows must see that trace's *edge padding*
        rather than its neighbour — are then recomputed per trace.
        """
        k_size = self._kernel.size
        if k_size <= 1 or analog.size == 0:
            return analog
        pad_l = k_size // 2
        pad_r = self.right_halo
        taps = self._kernel[::-1]
        padded = np.pad(analog, (pad_l, pad_r), mode="edge")
        out = np.zeros_like(analog)
        for m in range(k_size):
            out += taps[m] * padded[m: m + analog.size]
        offset = 0
        for length in lengths:
            if 0 < length < k_size - 1:
                out[offset: offset + length] = self._bandlimit(
                    analog[offset: offset + length]
                )
            elif length:
                seg = analog[offset: offset + length]
                if pad_l:
                    head = np.concatenate(
                        [np.full(pad_l, seg[0]), seg[: k_size - 1]]
                    )
                    out[offset: offset + pad_l] = np.convolve(
                        head, self._kernel, mode="valid"
                    )
                if pad_r:
                    tail = np.concatenate(
                        [seg[-(k_size - 1):], np.full(pad_r, seg[-1])]
                    )
                    out[offset + length - pad_r: offset + length] = np.convolve(
                        tail, self._kernel, mode="valid"
                    )
            offset += length
        return out

    def _bandlimit_rows(self, analog: np.ndarray) -> np.ndarray:
        """The front-end FIR over a ``(B, W)`` matrix of equal-length rows.

        Vectorized across rows with per-row edge padding — the same
        values :meth:`_bandlimit` produces on each row (taps accumulate in
        the same ascending order ``np.convolve`` uses).  The windowed fast
        capture path filters all traces of a batch in one pass with it.
        """
        k_size = self._kernel.size
        if k_size <= 1 or analog.size == 0:
            return analog
        width = analog.shape[1]
        if width < k_size - 1:
            return np.vstack([self._bandlimit(row) for row in analog])
        pad_l = k_size // 2
        pad_r = self.right_halo
        padded = np.pad(analog, ((0, 0), (pad_l, pad_r)), mode="edge")
        out = np.zeros_like(analog)
        for m, tap in enumerate(self._kernel[::-1]):
            out += tap * padded[:, m: m + width]
        return out

    def _quantize(self, analog: np.ndarray) -> np.ndarray:
        """ADC: additive-noise-free clip + round to the code grid.

        Routed through the ``repro.backend`` kernel table; the kernel keeps
        the historical ``np.rint`` + in-place formulation bit-identically,
        measurably faster than the textbook ``clip(round(v / lsb))`` on
        the multi-million-sample batches the batched capture path
        produces.
        """
        return get_backend().quantize(analog, self.lsb, 2**self.adc_bits - 1)

    def op_to_sample(self, op_index: int | np.ndarray):
        """Map an operation index to the index of its first trace sample."""
        return op_index * self.samples_per_op

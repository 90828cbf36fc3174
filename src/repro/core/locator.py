"""End-to-end CO locator: the two-phase workflow of Figure 1.

Training phase: profile the clone device (cipher traces with NOP prologues
plus a noise trace), assemble the c0/c1 window database, train the 1D
ResNet with Adam and best-validation selection.

Inference phase: score an unknown trace with the sliding-window classifier,
segment the score signal, and cut/align the located COs so a CPA can be
mounted.

The locator also owns the *normalisation calibration*: an affine transform
(mean/std of the profiling data) applied identically to training windows
and inference traces, playing the role of the fixed scope gain of the real
measurement setup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.config import PipelineConfig
from repro.core.dataset import build_window_dataset
from repro.core.model import LocatorCNN, build_locator_cnn
from repro.core.segmentation import SegmentationConfig, segment_regions
from repro.core.sliding_window import SlidingWindowClassifier
from repro.core.alignment import align_cos
from repro.errors import load_npz, require_compatible
from repro.nn import Adam, Trainer, TrainHistory
from repro.nn.data import ArrayDataset
from repro.nn.metrics import normalized_confusion
from repro.soc.platform import CipherTrace, SessionTrace, SimulatedPlatform

__all__ = ["CryptoLocator", "LocatorResult"]

_EPS = 1e-9

#: Artifact kind and format version of saved locators.
_KIND = "crypto_locator"
_VERSION = 1


@dataclass
class LocatorResult:
    """Everything the inference pipeline produced for one trace."""

    starts: np.ndarray          # located CO start samples
    swc: np.ndarray             # sliding-window classification signal
    window_offsets: np.ndarray  # sample offset of each swc entry
    stride: int

    def __len__(self) -> int:
        return int(self.starts.size)


@dataclass
class _Calibration:
    mean: float = 0.0
    std: float = 1.0

    def __call__(self, trace: np.ndarray) -> np.ndarray:
        return ((np.asarray(trace, dtype=np.float32) - self.mean)
                / max(self.std, _EPS)).astype(np.float32)


class CryptoLocator:
    """Deep-learning locator of cryptographic operations (the paper's tool)."""

    def __init__(self, config: PipelineConfig, seed: int | None = 0) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.cnn = LocatorCNN(
            build_locator_cnn(kernel_size=config.kernel_size, rng=self._rng)
        )
        self.calibration = _Calibration()
        self.history: TrainHistory | None = None
        self.test_set: ArrayDataset | None = None
        self.threshold: float = config.threshold if config.threshold is not None else 0.0
        #: Mean CO length (samples) estimated from the profiling captures;
        #: used to suppress physically impossible double detections.
        self.co_length: int = 0
        #: Systematic offset of the raw rising edge with respect to the true
        #: CO start, estimated on the clone device (see calibrate_bias).
        self.start_bias: int = 0
        #: The platform the locator was fitted on (``cipher``,
        #: ``max_delay``); empty after a bare :meth:`fit`.
        self.platform: dict = {}
        self._fitted = False

    # ------------------------------------------------------------------ #
    # training phase                                                     #
    # ------------------------------------------------------------------ #

    def fit(
        self,
        cipher_traces: list[CipherTrace],
        noise_trace: np.ndarray,
        boundary_session: SessionTrace | None = None,
        verbose: bool = False,
    ) -> TrainHistory:
        """Run the full training pipeline on profiling captures.

        ``boundary_session`` is an optional clone capture of back-to-back
        CO executions; windows straddling its CO boundaries teach the
        classifier the consecutive-execution scenario of Section IV-B (the
        threat model lets the attacker run any software on the clone, so
        such a capture costs nothing).

        The window database is built from batched captures:
        :meth:`fit_from_platform` profiles the clone through the
        platform's vectorized batch path (``capture_cipher_traces``), which
        is bit-identical to — and several times faster than — the scalar
        capture loop.
        """
        cfg = self.config
        self.platform = {}
        needed = self.required_profiling_traces()
        if len(cipher_traces) < needed:
            raise ValueError(
                f"need {needed} cipher traces for the configured start-window "
                f"population, got {len(cipher_traces)}"
            )
        cipher_traces = cipher_traces[:needed]
        self.co_length = int(
            np.mean([c.trace.size - c.co_start for c in cipher_traces])
        )
        self._calibrate(cipher_traces, noise_trace)
        dataset = build_window_dataset(
            cipher_traces,
            noise_trace,
            window=cfg.n_train,
            n_rest=cfg.n_rest_windows,
            n_noise=cfg.n_noise_windows,
            rng=self._rng,
            transform=self.calibration,
            start_jitter=2 * cfg.stride,
            starts_per_trace=cfg.start_augmentation,
            rest_mode=cfg.rest_mode,
        )
        if boundary_session is not None:
            extra_x, extra_y = self._boundary_windows(boundary_session)
            if extra_x.size:
                dataset.x = np.concatenate([dataset.x, extra_x], axis=0)
                dataset.y = np.concatenate([dataset.y, extra_y], axis=0)
        train, val, test = dataset.split(rng=self._rng)
        self.test_set = test
        trainer = Trainer(
            self.cnn.network,
            Adam(self.cnn.network.parameters(), lr=cfg.learning_rate),
            rng=self._rng,
        )
        self.history = trainer.fit(
            train, val, epochs=cfg.epochs, batch_size=cfg.batch_size, verbose=verbose
        )
        if cfg.threshold is None:
            self.threshold = self._calibrate_threshold(val)
        self._fitted = True
        return self.history

    def _calibrate_threshold(self, val: ArrayDataset) -> float:
        """Pick the segmentation threshold from the validation margins.

        The paper determines the threshold experimentally.  Here it is set
        between a low quantile of the c1 ("beginning of CO") validation
        scores and a high quantile of the c0 scores: low enough that nearly
        every genuine start region crosses it (a missed CO cannot be
        recovered downstream), high enough that isolated noise excursions —
        whose single-window spikes the median filter then removes — stay
        rare.
        """
        scores = self.cnn.scores(val.x, mode=self.config.score_mode)
        labels = np.asarray(val.y)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        if pos.size == 0 or neg.size == 0:
            return 0.0
        recall_floor = float(np.quantile(pos, 0.04))
        fp_ceiling = float(np.quantile(neg, 0.995))
        if recall_floor > fp_ceiling:
            # Sit closer to the noise ceiling than to the c1 floor: a missed
            # CO is unrecoverable, while an occasional noise plateau is
            # removed by the median filter / strength suppression.
            return fp_ceiling + 0.35 * (recall_floor - fp_ceiling)
        # Distributions overlap: fall back to the midpoint of the medians.
        return 0.5 * (float(np.median(pos)) + float(np.median(neg)))

    def required_profiling_traces(self) -> int:
        """Cipher captures needed to fill the c1 population."""
        cfg = self.config
        return -(-cfg.n_start_windows // cfg.start_augmentation)  # ceil div

    def fit_from_platform(
        self,
        platform: SimulatedPlatform,
        noise_ops: int = 60_000,
        boundary_cos: int = 48,
        verbose: bool = False,
        batch_size: int | None = None,
    ) -> TrainHistory:
        """Profile a clone platform and train (captures + fit in one call).

        Profiling goes through the platform's batched capture path;
        ``batch_size`` bounds traces per batched synthesis call (platform
        default when ``None``) without changing the captured values.
        """
        captures = platform.capture_cipher_traces(
            self.required_profiling_traces(),
            nop_header=self.config.nop_header,
            batch_size=batch_size,
        )
        noise_trace = platform.capture_noise_trace(noise_ops)
        boundary = (
            platform.capture_session_trace(boundary_cos, noise_interleaved=False)
            if boundary_cos > 0
            else None
        )
        history = self.fit(captures, noise_trace, boundary_session=boundary,
                           verbose=verbose)
        self.platform = {"cipher": platform.cipher_name,
                         "max_delay": platform.countermeasure.max_delay}
        self.calibrate_bias(platform)
        return history

    def _boundary_windows(self, session: SessionTrace) -> tuple[np.ndarray, np.ndarray]:
        """c1/c0 windows around the CO boundaries of a back-to-back session.

        Per CO: two c1 windows starting within two strides after the true
        start (the start of a CO whose *predecessor* is another CO) and two
        c0 windows straddling the boundary from the left (content = previous
        CO tail + this CO head — not a beginning).
        """
        cfg = self.config
        trace = self.calibration(session.trace)
        n = cfg.n_train
        xs: list[np.ndarray] = []
        ys: list[int] = []
        for true_start in session.true_starts:
            start = int(true_start)
            offsets = [0] + [
                int(self._rng.integers(1, 3 * cfg.stride)) for _ in range(2)
            ]
            for offset in offsets:
                begin = start + offset
                if 0 <= begin and begin + n <= trace.size:
                    xs.append(trace[begin: begin + n])
                    ys.append(1)
            for _ in range(2):
                back = int(self._rng.integers(3 * cfg.stride, max(n, 6 * cfg.stride)))
                begin = start - back
                if 0 <= begin and begin + n <= trace.size:
                    xs.append(trace[begin: begin + n])
                    ys.append(0)
        if not xs:
            return np.zeros((0, 1, n), dtype=np.float32), np.zeros(0, dtype=np.int64)
        x = np.stack(xs)[:, None, :].astype(np.float32)
        y = np.asarray(ys, dtype=np.int64)
        return x, y

    def calibrate_bias(self, platform: SimulatedPlatform, n_cos: int = 8) -> int:
        """Estimate the systematic rising-edge offset on the clone device.

        The global-average-pooled classifier fires once a window's *content
        mix* crosses its decision boundary, which places the rising edge a
        roughly constant number of samples away from the true start.  The
        threat model gives the attacker a clone they can run chosen
        sessions on, so the offset is directly measurable: locate COs in
        short clone sessions with known ground truth and take the median
        residual.  The offset is then subtracted from every located start.
        """
        self._require_fitted()
        residuals: list[int] = []
        for interleaved in (True, False):
            session = platform.capture_session_trace(
                n_cos, noise_interleaved=interleaved
            )
            located = self._locate_raw(session.trace)
            for true in session.true_starts:
                if located.size == 0:
                    continue
                delta = located - true
                best = int(np.argmin(np.abs(delta)))
                if abs(int(delta[best])) <= max(self.co_length // 2, 1):
                    residuals.append(int(delta[best]))
        self.start_bias = int(np.median(residuals)) if residuals else 0
        return self.start_bias

    def test_confusion(self) -> np.ndarray:
        """Row-normalised test confusion matrix in percent (Figure 3)."""
        if self.test_set is None:
            raise RuntimeError("locator has not been fitted")
        windows = self.test_set.x
        predictions = self.cnn.predict(windows)
        return normalized_confusion(self.test_set.y, predictions)

    # ------------------------------------------------------------------ #
    # inference phase                                                    #
    # ------------------------------------------------------------------ #

    def locate_result(self, trace: np.ndarray, method: str = "windowed") -> LocatorResult:
        """Full inference pipeline; keeps the intermediate ``swc`` signal."""
        self._require_fitted()
        cfg = self.config
        classifier = SlidingWindowClassifier(
            self.cnn,
            window=cfg.n_inf,
            stride=cfg.stride,
            score_mode=cfg.score_mode,
            method=method,
        )
        normalized = self.calibration(trace)
        swc = classifier.score_trace(normalized)
        regions = segment_regions(
            swc,
            stride=cfg.stride,
            config=SegmentationConfig(
                threshold=self.threshold,
                mf_size=cfg.mf_size,
                onset_mode="peak_fraction",
            ),
        )
        regions = self._suppress_double_detections(regions)
        starts = np.asarray([r.onset for r in regions], dtype=np.int64)
        if self.start_bias:
            starts = np.maximum(starts - self.start_bias, 0)
        return LocatorResult(
            starts=starts,
            swc=swc,
            window_offsets=classifier.window_offsets(trace.size),
            stride=cfg.stride,
        )

    def locate(self, trace: np.ndarray, method: str = "windowed") -> np.ndarray:
        """CO start samples in an unknown trace.

        The default ``windowed`` engine scores standalone zero-padded
        windows exactly as the CNN saw them during training (and exactly as
        Section III-C describes).  ``dense`` is about twice as fast (1.5
        vs 3.0 s on a 62,000-sample trace, 2 vCPUs) but feeds windows
        full-trace context, which costs accuracy when COs run back to
        back (see the engine ablation benchmark).
        """
        return self.locate_result(trace, method=method).starts

    def locate_many(
        self,
        traces,
        method: str = "windowed",
        batch_size: int | None = None,
    ) -> list[np.ndarray]:
        """Locate COs in several traces through one batched scoring pass.

        With the ``dense`` engine the convolutional trunk runs over a whole
        batch of (zero-padded) traces at once
        (:meth:`SlidingWindowClassifier.score_batch`), which is the fast
        path for scenario sweeps; ``windowed`` scores traces independently
        with the training-faithful engine.  ``batch_size`` bounds how many
        traces share one trunk pass (all at once when ``None``).
        Segmentation and post-processing are identical to :meth:`locate`.
        """
        self._require_fitted()
        traces = list(traces)
        if not traces:
            return []
        cfg = self.config
        classifier = SlidingWindowClassifier(
            self.cnn,
            window=cfg.n_inf,
            stride=cfg.stride,
            score_mode=cfg.score_mode,
            method=method,
        )
        chunk = len(traces) if batch_size is None else max(1, int(batch_size))
        starts: list[np.ndarray] = []
        for begin in range(0, len(traces), chunk):
            normalized = [
                self.calibration(t) for t in traces[begin: begin + chunk]
            ]
            for swc in classifier.score_batch(normalized):
                starts.append(self.starts_from_swc(swc))
        return starts

    def starts_from_swc(
        self,
        swc: np.ndarray,
        threshold: float | None = None,
        use_median_filter: bool = True,
        onset_mode: str = "peak_fraction",
    ) -> np.ndarray:
        """Re-run segmentation + post-processing on a precomputed ``swc``.

        Lets ablation studies vary one segmentation knob at a time without
        re-scoring the trace.
        """
        self._require_fitted()
        regions = segment_regions(
            swc,
            stride=self.config.stride,
            config=SegmentationConfig(
                threshold=self.threshold if threshold is None else threshold,
                mf_size=self.config.mf_size,
                use_median_filter=use_median_filter,
                onset_mode=onset_mode,
            ),
        )
        regions = self._suppress_double_detections(regions)
        starts = np.asarray([r.onset for r in regions], dtype=np.int64)
        if self.start_bias:
            starts = np.maximum(starts - self.start_bias, 0)
        return starts

    def _locate_raw(self, trace: np.ndarray) -> np.ndarray:
        """Locate without bias correction (used by the bias calibration)."""
        saved = self.start_bias
        self.start_bias = 0
        try:
            return self.locate(trace)
        finally:
            self.start_bias = saved

    def _suppress_double_detections(self, regions: list) -> list:
        """Resolve detections impossibly close to each other.

        Two COs cannot overlap, so detections within ~60 % of the profiled
        CO length must come from the same CO (or from a noise excursion
        next to it).  The *strongest* plateau wins: true starts produce
        much taller score plateaus than residual noise.
        """
        if len(regions) < 2 or self.co_length <= 0:
            return regions
        min_separation = int(0.6 * self.co_length)
        order = sorted(range(len(regions)), key=lambda i: -regions[i].peak)
        kept_positions: list[int] = []
        kept_indices: list[int] = []
        for index in order:
            onset = regions[index].onset
            if all(abs(onset - p) >= min_separation for p in kept_positions):
                kept_positions.append(onset)
                kept_indices.append(index)
        return [regions[i] for i in sorted(kept_indices)]

    def align(
        self,
        trace: np.ndarray,
        starts: np.ndarray | None = None,
        length: int | None = None,
        refine: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cut and stack the located COs (Alignment block of Figure 1).

        Returns ``(segments, kept)`` — see :func:`repro.core.alignment.align_cos`.
        ``length`` defaults to twice the inference window, enough to cover
        the first rounds a CPA needs.
        """
        self._require_fitted()
        if starts is None:
            starts = self.locate(trace)
        if length is None:
            length = 2 * self.config.n_inf
        return align_cos(
            trace,
            starts,
            length,
            refine=refine,
            max_shift=self.config.stride if refine else 0,
        )

    # ------------------------------------------------------------------ #
    # persistence                                                        #
    # ------------------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist the trained locator (weights + all calibrations) as .npz.

        A JSON manifest records the artifact kind and version, the
        pipeline configuration and — after :meth:`fit_from_platform` —
        the platform it was fitted on, so :meth:`load` can refuse to
        restore into an incompatible locator or target.
        """
        self._require_fitted()
        state = {f"net.{k}": v for k, v in self.cnn.network.state_dict().items()}
        state["meta.calibration"] = np.array(
            [self.calibration.mean, self.calibration.std], dtype=np.float64
        )
        state["meta.threshold"] = np.array([self.threshold], dtype=np.float64)
        state["meta.co_length"] = np.array([self.co_length], dtype=np.int64)
        state["meta.start_bias"] = np.array([self.start_bias], dtype=np.int64)
        state["meta.manifest"] = np.array(json.dumps({
            "kind": _KIND,
            "version": _VERSION,
            "config": self._config_record(),
            "platform": self.platform,
        }))
        np.savez(path, **state)

    def load(self, path, max_delay: int | None = None) -> "CryptoLocator":
        """Restore a locator saved with :meth:`save`.

        The saved configuration must match this locator's.  When the file
        records the platform it was fitted on, that platform's cipher must
        be this locator's and its random delay ``max_delay`` (unchecked
        when ``None``) — a locator trained under one random-delay setting
        misses the COs of another.  Files from before locators were
        versioned are refused.
        """
        state = load_npz(path)
        manifest = json.loads(str(state.pop("meta.manifest", "{}")))
        artifact = f"locator {path}"
        require_compatible(artifact, {"version": 0, **manifest}, kind=_KIND,
                           version=_VERSION, hint="re-run `repro train`")
        require_compatible(artifact, manifest["config"],
                           **self._config_record())
        require_compatible(artifact, manifest["platform"],
                           cipher=self.config.cipher, max_delay=max_delay)
        self.platform = manifest["platform"]
        mean, std = state.pop("meta.calibration")
        self.calibration = _Calibration(mean=float(mean), std=float(std))
        self.threshold = float(state.pop("meta.threshold")[0])
        self.co_length = int(state.pop("meta.co_length")[0])
        self.start_bias = int(state.pop("meta.start_bias")[0])
        network_state = {k[len("net."):]: v for k, v in state.items()}
        self.cnn.network.load_state_dict(network_state)
        self.cnn.network.eval()
        self._fitted = True
        return self

    def _config_record(self) -> dict:
        cfg = self.config
        return {"cipher": cfg.cipher, "n_train": cfg.n_train,
                "n_inf": cfg.n_inf, "stride": cfg.stride,
                "kernel_size": cfg.kernel_size}

    # ------------------------------------------------------------------ #

    def _calibrate(self, cipher_traces: list[CipherTrace], noise_trace: np.ndarray) -> None:
        sample_pool = [noise_trace[: 200_000]]
        for capture in cipher_traces[:64]:
            sample_pool.append(capture.trace)
        pool = np.concatenate([np.asarray(t, dtype=np.float64) for t in sample_pool])
        self.calibration = _Calibration(mean=float(pool.mean()), std=float(pool.std()))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("locator has not been fitted; call fit() first")

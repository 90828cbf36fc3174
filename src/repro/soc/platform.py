"""The simulated target/clone device the attacker interacts with.

The paper's threat model (Section III): the attacker owns a clone of the
target device on which they can run applications of choice and measure the
side channel, but they can neither disable the random-delay countermeasure
nor add trigger pins.  :class:`SimulatedPlatform` exposes exactly those
capabilities:

* :meth:`capture_cipher_traces` — run a single CO per capture, with a NOP
  prologue replacing the missing trigger infrastructure (Section III-A);
* :meth:`capture_noise_trace` — run a long sequence of non-cryptographic
  applications;
* :meth:`capture_session_trace` — the *attack* measurement: many COs under
  an unknown key, either back-to-back or interleaved with noise
  applications, with ground-truth start positions carried along for
  evaluation only.

The random-delay countermeasure is active in every capture.

Batched capture
---------------
Every multi-trace capture is batch-first: the cipher executions go
through the vectorized ``encrypt_batch`` and one batched synthesis call.
Outside fast-mode attack segments (below), every random draw (keys,
plaintexts, masks, delay plans, acquisition noise) is consumed in
exactly the order the scalar loop consumes it, so the batched captures
are **bit-identical** to the scalar reference path (``batched=False``)
for the same seed — only faster.  The test suite enforces the
equivalence.

The ``fast`` capture mode changes one thing: attack segments
(:meth:`SimulatedPlatform.capture_attack_segments`), the window a
triggered scope records.  It synthesises only that window instead of the
whole trace, from bulk draws: plaintexts, delay plans and acquisition
noise come in one generator request per batch (noise as float32), and
under RD-2/RD-4 each trace's shifted window position is read off its
pre-drawn delay plan.  The segment stream is statistically
indistinguishable from the exact one (same distributions, same attack
budgets) and reproducible for a fixed seed *and* capture chunking, but
it is a *different* stream — and because bulk draws interleave per
batch, changing ``batch_size`` (or resuming a store mid-batch) re-deals
the randomness where exact mode would not.  That is why ``exact`` stays
the default and stores record the mode they were captured with.  Full
traces (profiling captures, sessions, noise) take the per-trace-draw
path in both modes, so they are the same stream in both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.ciphers.base import BatchLeakageRecorder, LeakageRecorder
from repro.ciphers.registry import get_cipher
from repro.soc.jitter import ClockJitterCountermeasure
from repro.soc.leakage import HammingWeightLeakage
from repro.soc.noise_apps import run_random_noise_program
from repro.soc.oscilloscope import Oscilloscope
from repro.soc.random_delay import RandomDelayCountermeasure
from repro.soc.shuffling import ShufflingCountermeasure
from repro.soc.trace_synth import (
    BatchOpStream,
    OpStream,
    synthesize_trace,
    synthesize_trace_windows,
    synthesize_traces,
)
from repro.soc.trng import TrngModel

__all__ = ["CipherTrace", "PlatformSpec", "SessionTrace", "SimulatedPlatform"]

#: Default cap on traces per batched profiling capture.  Bounds the peak
#: footprint of the batch arrays (op matrices, flat power/analog buffers,
#: pre-drawn noise) at a few tens of MB while keeping the vectorization
#: win; chunking does not change results (the per-trace randomness order
#: is preserved across chunk boundaries).
DEFAULT_CAPTURE_BATCH = 256


@dataclass
class CipherTrace:
    """A profiling capture: one CO execution with a known start position."""

    trace: np.ndarray
    co_start: int
    plaintext: bytes
    key: bytes


@dataclass
class SessionTrace:
    """An attack capture: many COs, ground truth attached for scoring only."""

    trace: np.ndarray
    true_starts: np.ndarray
    plaintexts: list[bytes]
    ciphertexts: list[bytes]
    key: bytes
    rd_name: str
    noise_interleaved: bool
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PlatformSpec:
    """A picklable recipe for building a :class:`SimulatedPlatform`.

    Parallel campaign workers cannot receive a live platform (its RNG,
    cipher, and oscilloscope state do not travel across processes);
    instead they receive this spec plus a per-shard seed and construct
    their own platform with :meth:`build`.  ``noise_std`` follows the
    engine's convention: ``1.0`` means the default oscilloscope.
    """

    cipher_name: str
    max_delay: int = 4
    noise_std: float = 1.0
    capture_mode: str = "exact"
    shuffle: bool = False
    jitter: int = 0
    masking_order: int = 1

    @classmethod
    def of(cls, platform: "SimulatedPlatform") -> "PlatformSpec":
        """The spec that rebuilds a platform of the same configuration.

        Only ``noise_std`` travels in the spec, so an oscilloscope
        customised beyond that cannot be represented — rebuilding it
        would silently capture a different trace stream, so this raises
        instead.
        """
        spec = cls(
            cipher_name=platform.cipher_name,
            max_delay=platform.countermeasure.max_delay,
            noise_std=float(platform.oscilloscope.noise_std),
            capture_mode=platform.capture_mode,
            shuffle=platform.shuffler is not None,
            jitter=platform.jitter.strength if platform.jitter else 0,
            masking_order=platform.masking_order,
        )
        rebuilt = spec.build(0)
        scope, original = rebuilt.oscilloscope, platform.oscilloscope
        if (
            scope.samples_per_op != original.samples_per_op
            or scope.adc_bits != original.adc_bits
            or scope.v_range != original.v_range
            or not np.array_equal(scope._kernel, original._kernel)
        ):
            raise ValueError(
                "platform uses a customised oscilloscope; PlatformSpec only "
                "carries noise_std and cannot rebuild it faithfully"
            )
        return spec

    def store_meta(self) -> dict:
        """The target fields every trace store records.

        A store captured on another cipher, random delay, countermeasure
        stack or capture mode is refused on resume by these fields.
        """
        return {
            "cipher": self.cipher_name,
            "rd": self.max_delay,
            "countermeasure": self.build(0).countermeasure_name,
            "capture_mode": self.capture_mode,
        }

    def build(self, seed) -> "SimulatedPlatform":
        """Construct the platform; ``seed`` may be an int or SeedSequence."""
        oscilloscope = (
            None if self.noise_std == 1.0
            else Oscilloscope(noise_std=self.noise_std)
        )
        return SimulatedPlatform(
            self.cipher_name,
            max_delay=self.max_delay,
            seed=seed,
            oscilloscope=oscilloscope,
            capture_mode=self.capture_mode,
            shuffle=self.shuffle,
            jitter=self.jitter,
            masking_order=self.masking_order,
        )


class SimulatedPlatform:
    """A CW305-like board with a RISC-V SoC and an attached oscilloscope.

    Parameters
    ----------
    cipher_name:
        Registry name of the CO to execute (``aes``, ``aes_masked``,
        ``camellia``, ``clefia``, ``simon``).
    max_delay:
        Random-delay configuration: 0 (off, sanity only), 2 (RD-2) or
        4 (RD-4).
    seed:
        Master seed; every stochastic component (TRNG, mask randomness,
        acquisition noise, workload data) derives from it.
    oscilloscope:
        Measurement-chain override; the default scope otherwise.
    capture_mode:
        ``"exact"`` (default) keeps every multi-trace capture
        bit-identical to the scalar per-trace reference path;
        ``"fast"`` synthesises attack segments window-only from bulk
        draws — a statistically identical but different, still
        seed-deterministic segment stream.  Full traces are the same in
        both modes.
    """

    def __init__(
        self,
        cipher_name: str,
        max_delay: int = 4,
        seed: int | None = 0,
        oscilloscope: Oscilloscope | None = None,
        capture_mode: str = "exact",
        shuffle: bool = False,
        jitter: int = 0,
        masking_order: int = 1,
    ) -> None:
        if capture_mode not in ("exact", "fast"):
            raise ValueError(
                f"capture_mode must be 'exact' or 'fast', got {capture_mode!r}"
            )
        if masking_order != 1 and cipher_name != "aes_masked":
            raise ValueError(
                f"masking order {masking_order} requires the aes_masked "
                f"cipher, got {cipher_name!r}"
            )
        self.capture_mode = capture_mode
        self.cipher_name = cipher_name
        self.masking_order = int(masking_order)
        self._rng = np.random.default_rng(seed)
        kwargs = {}
        if cipher_name == "aes_masked":
            kwargs["rng"] = random.Random(int(self._rng.integers(0, 2**63)))
            if self.masking_order != 1:
                kwargs["order"] = self.masking_order
        self.cipher = get_cipher(cipher_name, **kwargs)
        self.countermeasure = RandomDelayCountermeasure(
            max_delay, TrngModel(int(self._rng.integers(0, 2**63)))
        )
        # The shuffle/jitter TRNG seeds are drawn only when the respective
        # countermeasure is enabled, so disabled configurations consume
        # exactly the historical draw sequence (bit-identical streams).
        self.shuffler: ShufflingCountermeasure | None = None
        if shuffle:
            groups = self.cipher.shuffle_groups()
            if not groups:
                raise ValueError(
                    f"cipher {cipher_name!r} declares no shuffle groups; "
                    f"shuffling is not supported for it"
                )
            self.shuffler = ShufflingCountermeasure(
                groups,
                group_size=self.cipher.shuffle_group_size,
                trng=TrngModel(int(self._rng.integers(0, 2**63))),
            )
        self.jitter: ClockJitterCountermeasure | None = None
        if jitter:
            if capture_mode == "fast":
                raise ValueError(
                    "clock jitter resamples whole traces and is not "
                    "supported in fast (windowed) capture mode"
                )
            self.jitter = ClockJitterCountermeasure(
                jitter, TrngModel(int(self._rng.integers(0, 2**63)))
            )
        self.leakage = HammingWeightLeakage()
        self.oscilloscope = oscilloscope if oscilloscope is not None else Oscilloscope()
        #: Datapath op count of one NOP-prologue + CO execution, keyed by
        #: prologue length.  The instruction structure is input-independent,
        #: so one probe encryption measures it for all captures.
        self._co_ops_cache: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # profiling captures (clone device)                                  #
    # ------------------------------------------------------------------ #

    def capture_cipher_trace(
        self,
        key: bytes | None = None,
        plaintext: bytes | None = None,
        nop_header: int = 96,
    ) -> CipherTrace:
        """Capture one CO execution preceded by a NOP prologue.

        The NOPs replace the trigger pin the threat model forbids: their
        flat power makes the CO start findable in the profiling trace
        (Section III-A).  The random delay stays active, so the start
        position still varies capture to capture.
        """
        key = key if key is not None else self._random_block()
        plaintext = plaintext if plaintext is not None else self._random_block()
        recorder = LeakageRecorder()
        recorder.record_nops(nop_header)
        marker_op = len(recorder)
        self.cipher.encrypt(plaintext, key, recorder)
        stream = OpStream.from_recorder(recorder)
        if self.shuffler is not None:
            self.shuffler.execute(
                self.shuffler.plan(), stream.values, base=marker_op
            )
        trace, marker_samples = synthesize_trace(
            stream,
            np.array([marker_op]),
            self.countermeasure,
            self.leakage,
            self.oscilloscope,
            self._rng,
        )
        trace, marker_samples = self._apply_jitter(trace, marker_samples)
        return CipherTrace(
            trace=trace, co_start=int(marker_samples[0]), plaintext=plaintext, key=key
        )

    def capture_cipher_traces(
        self,
        count: int,
        key: bytes | None = None,
        nop_header: int = 96,
        batch_size: int | None = None,
        batched: bool = True,
        plaintext: bytes | None = None,
    ) -> list[CipherTrace]:
        """Capture ``count`` single-CO profiling traces.

        Keys and plaintexts are drawn fresh per capture unless a fixed key
        is supplied, matching the paper's "balanced between the key bytes"
        dataset construction.  A fixed ``plaintext`` (the TVLA fixed
        population) suppresses the per-trace plaintext draw in scalar and
        batched paths alike, preserving their bit-identity.

        The default path executes the COs through the vectorized
        ``encrypt_batch`` and one batched synthesis call per ``batch_size``
        chunk (:data:`DEFAULT_CAPTURE_BATCH` when ``None``, which bounds
        peak memory for large profiling datasets); randomness is consumed
        per trace in the scalar order, so results are bit-identical to
        ``batched=False`` (the per-trace reference loop) for the same seed
        regardless of the chunking.
        """
        if count <= 0:
            return []
        if not batched:
            return [
                self.capture_cipher_trace(
                    key=key, plaintext=plaintext, nop_header=nop_header
                )
                for _ in range(count)
            ]
        chunk = (DEFAULT_CAPTURE_BATCH if batch_size is None
                 else max(1, int(batch_size)))
        captures: list[CipherTrace] = []
        for begin in range(0, count, chunk):
            captures.extend(
                self._capture_cipher_batch(
                    min(chunk, count - begin), key, nop_header, plaintext
                )
            )
        return captures

    def _capture_cipher_batch(
        self,
        count: int,
        key: bytes | None,
        nop_header: int,
        plaintext: bytes | None = None,
    ) -> list[CipherTrace]:
        """One batched profiling capture of ``count`` traces.

        Phase 1 draws each trace's randomness in the scalar order (key,
        plaintext, delay plan, acquisition noise — trace by trace); phase
        2 runs the vectorized cipher batch; phase 3 synthesises all traces
        through one batched measurement-chain call.
        """
        oscilloscope = self.oscilloscope
        n32 = self._co_datapath_ops(nop_header)
        # RD-0 plans are deterministic and draw nothing from the TRNG, so
        # skipping the plan objects keeps the stream bit-identical while
        # avoiding count allocations (the delay-free synthesis path never
        # consults them).
        delay_free = self.countermeasure.max_delay == 0
        keys: list[bytes] = []
        plaintexts: list[bytes] = []
        plans = []
        noise: list[np.ndarray | None] = []
        for _ in range(count):
            keys.append(key if key is not None else self._random_block())
            plaintexts.append(
                plaintext if plaintext is not None else self._random_block()
            )
            total = n32
            if not delay_free:
                plan = self.countermeasure.plan(n32)
                plans.append(plan)
                total = plan.total
            if oscilloscope.noise_std > 0:
                noise.append(self._rng.normal(
                    0.0, oscilloscope.noise_std,
                    oscilloscope.noise_samples_for_ops(total),
                ))
            else:
                noise.append(None)

        recorder = BatchLeakageRecorder(count)
        recorder.record_nops(nop_header)
        marker_op = len(recorder)
        self.cipher.encrypt_batch(plaintexts, keys, recorder)
        batch_stream = BatchOpStream.from_recorder(recorder)
        if self.shuffler is not None:
            # One plan per trace in the scalar order (the shuffle TRNG is
            # an independent stream, so only its own per-trace order
            # matters for bit-identity).
            self.shuffler.execute_batch(
                [self.shuffler.plan() for _ in range(count)],
                batch_stream.values,
                base=marker_op,
            )
        traces, marker_samples = synthesize_traces(
            batch_stream,
            np.array([marker_op]),
            self.countermeasure,
            self.leakage,
            oscilloscope,
            self._rng,
            plans=plans if not delay_free else None,
            noise=noise,
        )
        if self.jitter is not None:
            jittered = [
                self._apply_jitter(traces[b], marker_samples[b])
                for b in range(count)
            ]
            traces = [t for t, _ in jittered]
            marker_samples = [m for _, m in jittered]
        return [
            CipherTrace(
                trace=traces[b],
                co_start=int(marker_samples[b][0]),
                plaintext=plaintexts[b],
                key=keys[b],
            )
            for b in range(count)
        ]

    def capture_attack_segments(
        self,
        count: int,
        key: bytes,
        segment_length: int,
        nop_header: int = 96,
        batch_size: int | None = None,
        plaintext: bytes | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched capture hand-off for streaming attack campaigns.

        Captures ``count`` fixed-key CO executions through the batched
        profiling path and cuts each trace at its start into an
        equal-length segment (zero-padded when the CO ends early), the
        shape online accumulators and trace stores consume directly.

        Returns ``(segments, plaintexts)``: ``(count, segment_length)``
        float64 and ``(count, block_size)`` uint8.

        In ``fast`` capture mode only the segment window itself is
        synthesised (:func:`~repro.soc.trace_synth.synthesize_trace_windows`):
        with the countermeasure off the window position is deterministic,
        and under RD-2/RD-4 each trace's shifted window position is read
        off its pre-drawn delay plan — the dominant cost of large
        campaigns drops from the whole trace to the attacked segment in
        every RD configuration.
        """
        if segment_length < 1:
            raise ValueError("segment_length must be >= 1")
        if self.capture_mode == "fast":
            if count <= 0:
                return (np.zeros((0, int(segment_length))),
                        np.zeros((0, self.cipher.block_size), dtype=np.uint8))
            chunk = (DEFAULT_CAPTURE_BATCH if batch_size is None
                     else max(1, int(batch_size)))
            parts = [
                self._capture_segment_windows(
                    min(chunk, count - begin), key, int(segment_length),
                    nop_header, plaintext,
                )
                for begin in range(0, count, chunk)
            ]
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]))
        captures = self.capture_cipher_traces(
            count, key=key, nop_header=nop_header, batch_size=batch_size,
            plaintext=plaintext,
        )
        segments = np.zeros((len(captures), int(segment_length)))
        for i, capture in enumerate(captures):
            cut = capture.trace[capture.co_start: capture.co_start + segment_length]
            segments[i, : cut.size] = cut
        plaintexts = np.frombuffer(
            b"".join(capture.plaintext for capture in captures), dtype=np.uint8
        ).reshape(len(captures), self.cipher.block_size)
        return segments, plaintexts

    def _capture_segment_windows(
        self,
        count: int,
        key: bytes,
        segment_length: int,
        nop_header: int,
        plaintext: bytes | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fast-mode windowed capture chunk (any RD configuration).

        Under RD-2/RD-4 the chunk's delay plans are drawn in bulk inside
        the synthesis call (one TRNG request per chunk), which maps each
        trace's marker through its plan and synthesises only the shifted
        window.
        """
        if plaintext is not None:
            plaintext_matrix = np.tile(
                np.frombuffer(plaintext, dtype=np.uint8), (count, 1)
            )
        else:
            plaintext_matrix = self._rng.integers(
                0, 256, (count, self.cipher.block_size), dtype=np.uint8
            )
        recorder = BatchLeakageRecorder(count)
        recorder.record_nops(nop_header)
        marker_op = len(recorder)
        self.cipher.encrypt_batch(plaintext_matrix, key, recorder)
        batch_stream = BatchOpStream.from_recorder(recorder)
        if self.shuffler is not None:
            self.shuffler.execute_batch(
                self.shuffler.plan_batch(count),
                batch_stream.values,
                base=marker_op,
            )
        segments = synthesize_trace_windows(
            batch_stream,
            marker_op,
            segment_length,
            self.leakage,
            self.oscilloscope,
            self._rng,
            countermeasure=self.countermeasure,
        )
        return segments.astype(np.float64), plaintext_matrix

    def random_key(self) -> bytes:
        """Draw a key from the platform generator (deterministic per seed)."""
        return self._rng.bytes(self.cipher.key_size)

    def capture_noise_trace(self, min_ops: int = 50_000) -> np.ndarray:
        """Capture the execution of noise applications (no CO anywhere)."""
        recorder = LeakageRecorder()
        run_random_noise_program(recorder, self._rng, min_ops)
        trace, _ = synthesize_trace(
            OpStream.from_recorder(recorder),
            np.zeros(0, dtype=np.int64),
            self.countermeasure,
            self.leakage,
            self.oscilloscope,
            self._rng,
        )
        trace, _ = self._apply_jitter(trace, np.zeros(0, dtype=np.int64))
        return trace

    # ------------------------------------------------------------------ #
    # attack captures (target device)                                    #
    # ------------------------------------------------------------------ #

    def capture_session_trace(
        self,
        n_cos: int,
        key: bytes | None = None,
        noise_interleaved: bool = True,
        noise_ops: tuple[int, int] = (400, 1600),
        lead_ops: int = 300,
        gap_ops: int = 8,
        batched: bool = True,
    ) -> SessionTrace:
        """Capture a long trace containing ``n_cos`` CO executions.

        ``noise_interleaved=True`` is the heterogeneous scenario of
        Section IV-B: a random amount of noise-application activity (between
        the two bounds of ``noise_ops``) runs between consecutive COs.  With
        ``False``, the COs run back-to-back separated only by ``gap_ops``
        loop-overhead operations.  Plaintexts are random and recorded in the
        result, as an attacker observing the I/O would know them.

        The default path records the noise/gap segments individually (in
        the scalar draw order), runs all COs through the vectorized
        ``encrypt_batch``, splices the streams back together, and
        synthesises once — bit-identical to ``batched=False`` for the same
        seed.
        """
        if not batched or n_cos < 1:
            return self._capture_session_trace_scalar(
                n_cos, key, noise_interleaved, noise_ops, lead_ops, gap_ops
            )
        key = key if key is not None else self._random_block()
        lead = LeakageRecorder()
        run_random_noise_program(lead, self._rng, lead_ops)
        plaintexts: list[bytes] = []
        gap_streams: list[OpStream] = []
        for i in range(n_cos):
            plaintexts.append(self._random_block())
            if i != n_cos - 1:
                gap = LeakageRecorder()
                if noise_interleaved:
                    span = int(self._rng.integers(noise_ops[0], noise_ops[1] + 1))
                    run_random_noise_program(gap, self._rng, span)
                else:
                    # Loop overhead between back-to-back encryptions.
                    for counter in range(gap_ops):
                        gap.record(i * gap_ops + counter, width=32)
                gap_streams.append(OpStream.from_recorder(gap))
        tail = LeakageRecorder()
        run_random_noise_program(tail, self._rng, lead_ops)

        recorder = BatchLeakageRecorder(n_cos)
        ciphertexts = self.cipher.encrypt_batch(plaintexts, key, recorder)
        batch_stream = BatchOpStream.from_recorder(recorder)
        if self.shuffler is not None:
            # One plan per CO in capture order, applied before the rows
            # are spliced into the session stream (base=0: the batch rows
            # start at the CO's first recorded op).
            self.shuffler.execute_batch(
                [self.shuffler.plan() for _ in range(n_cos)],
                batch_stream.values,
                base=0,
            )
        co_ops = len(batch_stream)

        lead_stream = OpStream.from_recorder(lead)
        segments: list[OpStream] = [lead_stream]
        marker_ops: list[int] = []
        position = len(lead_stream)
        for i in range(n_cos):
            marker_ops.append(position)
            segments.append(batch_stream.row(i))
            position += co_ops
            if i != n_cos - 1:
                segments.append(gap_streams[i])
                position += len(gap_streams[i])
        segments.append(OpStream.from_recorder(tail))

        trace, marker_samples = synthesize_trace(
            OpStream.concatenate(segments),
            np.asarray(marker_ops, dtype=np.int64),
            self.countermeasure,
            self.leakage,
            self.oscilloscope,
            self._rng,
        )
        trace, marker_samples = self._apply_jitter(trace, marker_samples)
        return SessionTrace(
            trace=trace,
            true_starts=marker_samples,
            plaintexts=plaintexts,
            ciphertexts=[ciphertexts[i].tobytes() for i in range(n_cos)],
            key=key,
            rd_name=self.countermeasure.config_name,
            noise_interleaved=noise_interleaved,
        )

    def _capture_session_trace_scalar(
        self,
        n_cos: int,
        key: bytes | None,
        noise_interleaved: bool,
        noise_ops: tuple[int, int],
        lead_ops: int,
        gap_ops: int,
    ) -> SessionTrace:
        """Per-CO reference implementation (kept for equivalence testing)."""
        key = key if key is not None else self._random_block()
        recorder = LeakageRecorder()
        marker_ops: list[int] = []
        plaintexts: list[bytes] = []
        ciphertexts: list[bytes] = []

        run_random_noise_program(recorder, self._rng, lead_ops)
        for i in range(n_cos):
            marker_ops.append(len(recorder))
            pt = self._random_block()
            ct = self.cipher.encrypt(pt, key, recorder)
            plaintexts.append(pt)
            ciphertexts.append(ct)
            if i != n_cos - 1:
                if noise_interleaved:
                    span = int(self._rng.integers(noise_ops[0], noise_ops[1] + 1))
                    run_random_noise_program(recorder, self._rng, span)
                else:
                    # Loop overhead between back-to-back encryptions.
                    for counter in range(gap_ops):
                        recorder.record(i * gap_ops + counter, width=32)
        run_random_noise_program(recorder, self._rng, lead_ops)

        stream = OpStream.from_recorder(recorder)
        if self.shuffler is not None:
            for marker in marker_ops:
                self.shuffler.execute(
                    self.shuffler.plan(), stream.values, base=marker
                )
        trace, marker_samples = synthesize_trace(
            stream,
            np.asarray(marker_ops, dtype=np.int64),
            self.countermeasure,
            self.leakage,
            self.oscilloscope,
            self._rng,
        )
        trace, marker_samples = self._apply_jitter(trace, marker_samples)
        return SessionTrace(
            trace=trace,
            true_starts=marker_samples,
            plaintexts=plaintexts,
            ciphertexts=ciphertexts,
            key=key,
            rd_name=self.countermeasure.config_name,
            noise_interleaved=noise_interleaved,
        )

    # ------------------------------------------------------------------ #
    # utilities                                                          #
    # ------------------------------------------------------------------ #

    @property
    def countermeasure_name(self) -> str:
        """Combined countermeasure label, e.g. ``RD-2+SH-20x16+CJ-10``.

        Always leads with the random-delay configuration; shuffling,
        jitter and a non-default masking order append their own tags.
        Trace stores record this string so resuming a store under a
        different countermeasure configuration can be refused.
        """
        parts = [self.countermeasure.config_name]
        if self.shuffler is not None:
            parts.append(self.shuffler.config_name)
        if self.jitter is not None:
            parts.append(self.jitter.config_name)
        if self.masking_order != 1:
            parts.append(f"MO-{self.masking_order}")
        return "+".join(parts)

    def _apply_jitter(
        self, trace: np.ndarray, marker_samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resample one captured trace under the jittery clock, if enabled.

        Draws one jitter plan per trace (in capture order — the batched
        paths call this per trace too, keeping bit-identity with the
        scalar reference) and maps the ground-truth markers through it.
        """
        if self.jitter is None:
            return trace, marker_samples
        plan = self.jitter.plan(trace.size)
        jittered = self.jitter.execute(plan, trace)
        marker_samples = np.asarray(marker_samples, dtype=np.int64)
        return jittered, plan.map_positions(marker_samples)

    def mean_co_samples(self, probes: int = 8) -> int:
        """Empirical mean CO length in trace samples (delay included).

        This is the "Mean length" column of Table I for this platform; the
        pipeline configuration derives window sizes and strides from it.
        """
        lengths = []
        for _ in range(probes):
            recorder = LeakageRecorder()
            self.cipher.encrypt(self._random_block(), self._random_block(), recorder)
            trace, _ = synthesize_trace(
                OpStream.from_recorder(recorder),
                np.zeros(0, dtype=np.int64),
                self.countermeasure,
                self.leakage,
                self.oscilloscope,
                self._rng,
            )
            lengths.append(trace.size)
        return int(np.mean(lengths))

    def _co_datapath_ops(self, nop_header: int) -> int:
        """Datapath op count of one prologue + CO capture (probed once).

        Uses a throwaway cipher instance so the probe perturbs neither the
        platform generator nor the live cipher's mask randomness; valid
        because every registered cipher records an input-independent
        instruction structure.
        """
        cached = self._co_ops_cache.get(nop_header)
        if cached is None:
            probe_kwargs = {}
            if self.cipher_name == "aes_masked" and self.masking_order != 1:
                # Order-2 masking records extra remask/load steps, so the
                # probe must execute at the platform's masking order.
                probe_kwargs["order"] = self.masking_order
            probe = get_cipher(self.cipher_name, **probe_kwargs)
            recorder = LeakageRecorder()
            recorder.record_nops(nop_header)
            probe.encrypt(
                bytes(probe.block_size), bytes(probe.key_size), recorder
            )
            values32, _, _ = OpStream.from_recorder(recorder).to_datapath_ops()
            cached = int(values32.size)
            self._co_ops_cache[nop_header] = cached
        return cached

    def _random_block(self) -> bytes:
        return self._rng.bytes(self.cipher.block_size)

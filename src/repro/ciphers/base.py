"""Leakage recording infrastructure and the traceable-cipher interface.

The paper measures the power consumption of a RISC-V CPU executing software
ciphers.  In this reproduction the measurement chain starts here: a cipher
implementation reports every intermediate value it computes to a
:class:`LeakageRecorder`, producing an *operation stream* — the simulator's
stand-in for the instruction stream of the real CPU.  The SoC layer
(:mod:`repro.soc`) later maps each recorded operation to power samples via a
Hamming-weight leakage model, inserts random-delay instructions, and applies
the oscilloscope model.

Batch-first recording
---------------------
The measurement chain treats the trace *batch* as the unit of work: a
vectorized cipher (``encrypt_batch``) processes ``B`` blocks at once and
reports each intermediate as a vector of ``B`` values to a
:class:`BatchLeakageRecorder`, which accumulates a ``(B, N)`` operation
array sharing one ``(N,)`` width/kind structure.  This is valid because
every registered cipher executes an input-independent instruction sequence
(no data-dependent branching — a constant-time property real SCA targets
share), so all ``B`` executions record the same structure.

Both recorders store numpy chunks rather than per-operation Python lists:
``record_many`` accepts any array-like without per-element ``int()`` boxing,
and only the scalar :meth:`LeakageRecorder.record` fast path touches Python
lists (it buffers scalars and flushes them to an array chunk lazily).
"""

from __future__ import annotations

import abc
import enum
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "OpKind",
    "LeakageRecorder",
    "BatchLeakageRecorder",
    "TraceableCipher",
    "be_words",
    "word_bytes",
]


def be_words(blocks: np.ndarray) -> np.ndarray:
    """A ``(B, 8k)`` uint8 matrix as ``(B, k)`` big-endian uint64 words.

    Shared by the vectorized 128-bit-block ciphers, which hold their state
    as per-trace uint64 word vectors (``words[:, i]``).
    """
    return np.ascontiguousarray(blocks).view(">u8").astype(np.uint64)


def word_bytes(word: np.ndarray) -> np.ndarray:
    """A ``(B,)`` uint64 vector as ``(B, 8)`` big-endian bytes."""
    return word.astype(">u8").view(np.uint8).reshape(word.size, 8)

#: Anything ``record_many`` accepts: a numpy array, or any iterable of ints.
IntArrayLike = Union[np.ndarray, Sequence[int], Iterable[int]]


class OpKind(enum.IntEnum):
    """Instruction class of a recorded operation.

    Different functional units of a CPU draw measurably different power —
    a memory access costs more than an ALU op, a multiplier more than a
    shifter — and this instruction-type component is a large part of what
    makes program phases visually distinct in a real power trace.  The
    leakage model adds a per-kind power pedestal on top of the
    data-dependent Hamming-weight term.
    """

    NOP = 0
    ALU = 1     # xor/add/compare/register move
    SHIFT = 2   # barrel shifter
    MUL = 3     # multiplier
    LOAD = 4    # memory read (incl. table lookups)
    STORE = 5   # memory write


def _as_value_array(values: IntArrayLike) -> np.ndarray:
    """Coerce an array-like of operation values to a 1D uint64 array."""
    if isinstance(values, np.ndarray):
        arr = values.astype(np.uint64, copy=False)
    else:
        arr = np.asarray(
            values if isinstance(values, (list, tuple, range)) else list(values),
            dtype=np.uint64,
        )
    if arr.ndim != 1:
        raise ValueError(f"expected a 1D value stream, got shape {arr.shape}")
    return arr


class LeakageRecorder:
    """Accumulates the (value, width, kind) stream of executed operations.

    Every call to :meth:`record` corresponds to one data-processing
    instruction of the simulated CPU.  ``value`` is the architectural result
    of the instruction (the quantity whose Hamming weight leaks), ``width``
    its register width in bits, and ``kind`` the functional unit it
    exercised.

    Storage is chunked numpy arrays: a :meth:`record_many` burst (an S-box
    layer, a key-schedule word) is kept as one homogeneous array chunk, NOP
    runs are stored by count only, and single :meth:`record` calls go to a
    small scalar buffer that is flushed into an array chunk on demand.
    :meth:`as_arrays` concatenates everything; the ``values``/``widths``/
    ``kinds`` list properties are materialised views for tests and
    debugging, not the hot path.
    """

    __slots__ = ("_chunks", "_pv", "_pw", "_pk", "_length")

    #: Width attributed to NOP instructions (they occupy a pipeline slot but
    #: process no data, hence value 0).
    NOP_WIDTH = 32

    def __init__(self) -> None:
        # Each chunk is (values uint64 (k,), widths uint8 (k,), kinds uint8 (k,)).
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pv: list[int] = []  # pending scalar values
        self._pw: list[int] = []  # pending scalar widths
        self._pk: list[int] = []  # pending scalar kinds
        self._length: int = 0

    # -- recording ------------------------------------------------------- #

    def record(self, value: int, width: int = 8, kind: int = OpKind.ALU) -> None:
        """Record a single executed operation (list-append fast path)."""
        # IntEnum kinds go straight into the list; the flush converts the
        # buffer to uint8 in one C call.
        self._pv.append(value)
        self._pw.append(width)
        self._pk.append(kind)
        self._length += 1

    def record_many(self, values: IntArrayLike, width: int = 8,
                    kind: int = OpKind.ALU) -> None:
        """Record a homogeneous burst of operations (e.g. an S-box layer).

        ``values`` may be a numpy array (taken without per-element
        conversion) or any iterable of ints.
        """
        arr = _as_value_array(values)
        if arr.size == 0:
            return
        self._flush_pending()
        self._chunks.append((
            arr,
            np.full(arr.size, width, dtype=np.uint8),
            np.full(arr.size, int(kind), dtype=np.uint8),
        ))
        self._length += int(arr.size)

    def record_nops(self, count: int) -> None:
        """Record ``count`` NOP instructions (value 0).

        The dataset-creation procedure of Section III-A prepends NOPs to
        every training cipher execution; their flat, low-power signature is
        what lets the dataset builder find the true CO start.
        """
        if count <= 0:
            return
        self._flush_pending()
        self._chunks.append((
            np.zeros(count, dtype=np.uint64),
            np.full(count, self.NOP_WIDTH, dtype=np.uint8),
            np.full(count, int(OpKind.NOP), dtype=np.uint8),
        ))
        self._length += int(count)

    def _flush_pending(self) -> None:
        if self._pv:
            self._chunks.append((
                np.asarray(self._pv, dtype=np.uint64),
                np.asarray(self._pw, dtype=np.uint8),
                np.asarray(self._pk, dtype=np.uint8),
            ))
            self._pv, self._pw, self._pk = [], [], []

    # -- inspection ------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the operation stream as (values, widths, kinds) arrays."""
        self._flush_pending()
        if not self._chunks:
            empty8 = np.zeros(0, dtype=np.uint8)
            return np.zeros(0, dtype=np.uint64), empty8, empty8.copy()
        if len(self._chunks) > 1:
            # Fold into a single chunk so repeated calls stay cheap.
            merged = (
                np.concatenate([c[0] for c in self._chunks]),
                np.concatenate([c[1] for c in self._chunks]),
                np.concatenate([c[2] for c in self._chunks]),
            )
            self._chunks = [merged]
        values, widths, kinds = self._chunks[0]
        return values, widths, kinds

    @property
    def values(self) -> list[int]:
        """Recorded operation values as a Python list (materialised view)."""
        return [int(v) for v in self.as_arrays()[0]]

    @property
    def widths(self) -> list[int]:
        """Recorded operation widths as a Python list (materialised view)."""
        return [int(w) for w in self.as_arrays()[1]]

    @property
    def kinds(self) -> list[int]:
        """Recorded operation kinds as a Python list (materialised view)."""
        return [int(k) for k in self.as_arrays()[2]]

    def clear(self) -> None:
        """Drop all recorded operations."""
        self._chunks.clear()
        self._pv, self._pw, self._pk = [], [], []
        self._length = 0


class BatchLeakageRecorder:
    """Accumulates ``B`` parallel operation streams with shared structure.

    The batch equivalent of :class:`LeakageRecorder`: each recording call
    reports the same instruction executed by all ``B`` traces of a batch,
    with per-trace values.  Because the widths and kinds are properties of
    the *instruction sequence* (which is input-independent for every
    registered cipher), they are stored once as ``(N,)`` arrays next to the
    ``(B, N)`` value matrix.
    """

    __slots__ = ("batch_size", "_chunks", "_length")

    NOP_WIDTH = LeakageRecorder.NOP_WIDTH

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        # Each chunk: (values uint64 (B, k), widths uint8 (k,), kinds uint8 (k,)).
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._length: int = 0

    # -- recording ------------------------------------------------------- #

    def record(self, values: IntArrayLike, width: int = 8,
               kind: int = OpKind.ALU) -> None:
        """Record one instruction with a ``(B,)`` vector of per-trace values."""
        col = np.asarray(values, dtype=np.uint64)
        if col.shape != (self.batch_size,):
            raise ValueError(
                f"expected a ({self.batch_size},) value vector, got {col.shape}"
            )
        self.record_many(col[:, None], width=width, kind=kind)

    def record_many(self, values: np.ndarray, width: int = 8,
                    kind: int = OpKind.ALU) -> None:
        """Record a ``(B, k)`` burst of homogeneous operations."""
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[0] != self.batch_size:
            raise ValueError(
                f"expected a ({self.batch_size}, k) value block, got {arr.shape}"
            )
        if arr.shape[1] == 0:
            return
        self._chunks.append((
            arr,
            np.full(arr.shape[1], width, dtype=np.uint8),
            np.full(arr.shape[1], int(kind), dtype=np.uint8),
        ))
        self._length += int(arr.shape[1])

    def record_nops(self, count: int) -> None:
        """Record ``count`` NOPs executed identically by every trace."""
        if count <= 0:
            return
        self._chunks.append((
            np.zeros((self.batch_size, count), dtype=np.uint64),
            np.full(count, self.NOP_WIDTH, dtype=np.uint8),
            np.full(count, int(OpKind.NOP), dtype=np.uint8),
        ))
        self._length += int(count)

    # -- inspection ------------------------------------------------------ #

    def __len__(self) -> int:
        """Operations recorded *per trace* (the shared stream length N)."""
        return self._length

    def as_batch_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(values (B, N), widths (N,), kinds (N,))`` arrays."""
        if not self._chunks:
            empty8 = np.zeros(0, dtype=np.uint8)
            return (np.zeros((self.batch_size, 0), dtype=np.uint64),
                    empty8, empty8.copy())
        if len(self._chunks) > 1:
            merged = (
                np.concatenate([c[0] for c in self._chunks], axis=1),
                np.concatenate([c[1] for c in self._chunks]),
                np.concatenate([c[2] for c in self._chunks]),
            )
            self._chunks = [merged]
        return self._chunks[0]

    def clear(self) -> None:
        """Drop all recorded operations."""
        self._chunks.clear()
        self._length = 0


def _as_block_matrix(data, block_size: int, what: str) -> np.ndarray:
    """Coerce blocks to a ``(B, block_size)`` uint8 matrix.

    Accepts a single ``bytes`` block (-> B=1), a sequence of ``bytes``, or a
    uint8 array of shape ``(B, block_size)``.
    """
    if isinstance(data, (bytes, bytearray)):
        data = [bytes(data)]
    if isinstance(data, np.ndarray):
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != block_size:
            raise ValueError(
                f"expected (B, {block_size}) uint8 {what} matrix, got {arr.shape}"
            )
        return arr
    blocks = list(data)
    if not blocks:
        raise ValueError(f"need at least one {what} block")
    for blk in blocks:
        if len(blk) != block_size:
            raise ValueError(
                f"expected {block_size}-byte {what} blocks, got {len(blk)} bytes"
            )
    return np.frombuffer(b"".join(bytes(b) for b in blocks),
                         dtype=np.uint8).reshape(len(blocks), block_size)


class TraceableCipher(abc.ABC):
    """Interface of a block cipher instrumented for power-trace synthesis.

    Concrete ciphers implement :meth:`encrypt` (and, where the specification
    defines it and the tests need it, :meth:`decrypt`) taking an optional
    recorder.  Passing ``recorder=None`` encrypts without instrumentation
    overhead.

    Concrete ciphers also implement :meth:`encrypt_batch`, which encrypts
    ``B`` blocks at once with vectorized numpy operations, reporting to a
    :class:`BatchLeakageRecorder`, with the semantics of the scalar
    :meth:`encrypt` (same ciphertexts, same per-trace operation streams).
    Every registered cipher vectorizes it; the scalar :meth:`encrypt` is
    the reference the test suite compares it against.
    """

    #: Human-readable cipher name, used by the registry and configs.
    name: str = "abstract"
    #: Block size in bytes.
    block_size: int = 16
    #: Key size in bytes.
    key_size: int = 16
    #: Ops per shuffle group (see :meth:`shuffle_groups`).
    shuffle_group_size: int = 16
    #: Trailing recorded ops that handle *unmasked* output (the masked
    #: ciphers' final share recombination).  Output handling trivially
    #: leaks the ciphertext and sits outside any masking claim, so
    #: non-specific leakage tests (TVLA) exclude these ops from their
    #: default assessment window.
    unmasked_trailer_ops: int = 0

    @abc.abstractmethod
    def encrypt(self, plaintext: bytes, key: bytes,
                recorder: LeakageRecorder | None = None) -> bytes:
        """Encrypt one block, reporting intermediates to ``recorder``."""

    def shuffle_groups(self) -> list[int]:
        """Op offsets of the shuffling countermeasure's permutable groups.

        Each offset (relative to the cipher's first recorded op) starts a
        block of ``shuffle_group_size`` consecutive recorded ops of
        uniform width and kind whose execution order the shuffling
        countermeasure may permute — the per-byte passes of a round.  An
        empty list (the default) means the cipher does not support
        shuffling, and the platform refuses to enable it.
        """
        return []

    def decrypt(self, ciphertext: bytes, key: bytes,
                recorder: LeakageRecorder | None = None) -> bytes:
        """Decrypt one block (optional; default: unsupported)."""
        raise NotImplementedError(f"{self.name} does not implement decryption")

    # -- batch interface ------------------------------------------------- #

    @abc.abstractmethod
    def encrypt_batch(self, plaintexts, keys,
                      recorder: BatchLeakageRecorder | None = None) -> np.ndarray:
        """Encrypt a batch of blocks; returns ``(B, block_size)`` ciphertexts.

        ``plaintexts`` is a ``(B, block_size)`` uint8 matrix (or a sequence
        of ``bytes``); ``keys`` likewise, or a single key broadcast across
        the batch.  Semantics are bit-identical to calling :meth:`encrypt`
        per block: same ciphertexts, and the recorder receives the same
        per-trace operation stream.
        """

    def _check_batch(self, plaintexts, keys) -> tuple[np.ndarray, np.ndarray]:
        """Validate and broadcast batch inputs to (B, size) uint8 matrices."""
        pts = _as_block_matrix(plaintexts, self.block_size, "plaintext")
        kys = _as_block_matrix(keys, self.key_size, "key")
        if kys.shape[0] == 1 and pts.shape[0] > 1:
            kys = np.broadcast_to(kys, (pts.shape[0], self.key_size))
        if kys.shape[0] != pts.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} plaintexts but {kys.shape[0]} keys"
            )
        return pts, kys

    # -- validation helpers ---------------------------------------------- #

    def _check_block(self, data: bytes, what: str) -> None:
        if len(data) != self.block_size:
            raise ValueError(
                f"{self.name} expects a {self.block_size}-byte {what}, got {len(data)} bytes"
            )

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ValueError(
                f"{self.name} expects a {self.key_size}-byte key, got {len(key)} bytes"
            )

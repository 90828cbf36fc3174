"""Pluggable leakage hypothesis models for the distinguisher framework.

A :class:`LeakageModel` predicts, for every key guess, the quantity a trace
sample should co-vary with when that guess is right.  All shipped models
target the first AddRoundKey + SubBytes intermediate ``SBOX[pt ^ k]`` (the
classic CPA target); they differ in how the intermediate is mapped to a
predicted leakage:

* ``hw``       — Hamming weight of the S-box output (the datapath model);
* ``msb`` / ``lsb`` / ``bit<i>`` style single-bit models — one S-box output
  bit, the DPA selection function;
* ``identity`` — the raw S-box output value (linear-regression bases and
  template-style attacks consume it);
* ``hd``       — Hamming distance between the S-box input and output,
  ``HW((pt ^ k) ^ SBOX[pt ^ k])`` — the combined second-order hypothesis
  for first-order boolean masking, where the centred product of the two
  masked shares' leakages co-varies with exactly this quantity.

Every model's hypothesis table is a ``(256, 256)`` matrix over (plaintext
byte, key guess), **precomputed once and cached** in the registry: chunked
online updates do a single fancy-index per chunk instead of rebuilding the
S-box/Hamming-weight composition on every call.
"""

from __future__ import annotations

import numpy as np

from repro.ciphers.aes import SBOX

__all__ = [
    "LeakageModel",
    "available_leakage_models",
    "get_leakage_model",
    "hw_byte",
]

_SBOX = np.asarray(SBOX, dtype=np.uint8)
_HW8 = np.asarray([bin(v).count("1") for v in range(256)], dtype=np.float64)
#: ``_SBOX_XOR[p, k] = SBOX[p ^ k]`` — the intermediate for every
#: (plaintext byte, key guess) pair, shared by every model table below.
_PT = np.arange(256, dtype=np.uint8)
_SBOX_XOR = _SBOX[_PT[:, None] ^ _PT[None, :]]


class LeakageModel:
    """A named hypothesis table over (plaintext byte, key guess).

    Parameters
    ----------
    name:
        Registry name of the model.
    table:
        ``(256, 256)`` float64 matrix: ``table[p, k]`` is the predicted
        leakage of the targeted intermediate for plaintext byte ``p``
        under key guess ``k``.

    The **reference** is the model's mean prediction over a uniform
    plaintext byte — a constant, so centring hypotheses on it keeps the
    online sufficient statistics purely additive (and therefore exactly
    mergeable) while taming cancellation for models with a large mean.
    """

    def __init__(self, name: str, table: np.ndarray) -> None:
        table = np.asarray(table, dtype=np.float64)
        if table.shape != (256, 256):
            raise ValueError(
                f"leakage table must be (256, 256), got {table.shape}"
            )
        self.name = name
        self.table = table
        # Each column is the same multiset (p ^ k permutes p), so the mean
        # over uniform plaintexts is guess-independent.
        self.reference = float(table[:, 0].mean())
        self.binary = bool(np.isin(table, (0.0, 1.0)).all())
        self._bits = table.astype(np.uint8) if self.binary else None

    def hypotheses(self, pt_bytes: np.ndarray) -> np.ndarray:
        """Hypothesis matrix ``(n, 256)`` for a vector of plaintext bytes."""
        pt_bytes = np.asarray(pt_bytes, dtype=np.uint8)
        if pt_bytes.ndim != 1:
            raise ValueError(f"expected 1D plaintext bytes, got {pt_bytes.shape}")
        return self.table[pt_bytes]

    def selection_bits(self, pt_bytes: np.ndarray) -> np.ndarray:
        """Partition bits ``(n, 256)`` uint8 — binary models only (DPA)."""
        if self._bits is None:
            raise ValueError(
                f"leakage model {self.name!r} is not binary; DPA partitioning "
                f"needs a single-bit model (e.g. 'msb' or 'lsb')"
            )
        pt_bytes = np.asarray(pt_bytes, dtype=np.uint8)
        if pt_bytes.ndim != 1:
            raise ValueError(f"expected 1D plaintext bytes, got {pt_bytes.shape}")
        return self._bits[pt_bytes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeakageModel({self.name!r})"


def _hw_table() -> np.ndarray:
    return _HW8[_SBOX_XOR]


def _bit_table(bit: int) -> np.ndarray:
    return ((_SBOX_XOR >> bit) & 1).astype(np.float64)


def _identity_table() -> np.ndarray:
    return _SBOX_XOR.astype(np.float64)


def _hd_table() -> np.ndarray:
    inputs = _PT[:, None] ^ _PT[None, :]
    return _HW8[inputs ^ _SBOX_XOR]


_FACTORIES = {
    "hw": _hw_table,
    "msb": lambda: _bit_table(7),
    "lsb": lambda: _bit_table(0),
    "identity": _identity_table,
    "hd": _hd_table,
}
_CACHE: dict[str, LeakageModel] = {}


def available_leakage_models() -> tuple[str, ...]:
    """The registered leakage-model names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_leakage_model(name: str) -> LeakageModel:
    """The cached singleton model for ``name`` (tables built once).

    Raises ``ValueError`` listing the valid names for unknown models.
    """
    model = _CACHE.get(name)
    if model is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown leakage model {name!r}; available: "
                f"{', '.join(available_leakage_models())}"
            )
        model = _CACHE[name] = LeakageModel(name, factory())
    return model


def hw_byte(values: np.ndarray) -> np.ndarray:
    """Hamming weight of byte values (vectorised table lookup)."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 255):
        raise ValueError("hw_byte expects byte values in [0, 255]")
    return _HW8[values.astype(np.int64)]


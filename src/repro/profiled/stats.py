"""Streaming known-key class-conditional statistics for profiling.

The profiling phase of a template / NN-profiled attack observes traces
whose key is *known*, so every trace can be labelled with the class of its
targeted intermediate — e.g. ``HW(SBOX[pt ^ k])`` under the ``hw`` leakage
model.  :class:`ClassStats` accumulates, per attacked key byte and class,
the trace **counts**, per-sample **sums** and **sums of squares** — the
same sufficient-statistics discipline as the attack-phase
:class:`~repro.attacks.distinguishers.class_conditional.ClassConditionalDistinguisher`
(additive, therefore chunking-invariant and exactly mergeable), but keyed
by the *known-key class* instead of the raw plaintext value, and with the
second moment kept **per class** so class-conditional variances (and hence
the Mangard SNR) fall out directly.

From the store the batch assessment statistics of
:mod:`repro.attacks.assessment` are recovered exactly:

* :meth:`ClassStats.snr` — per-sample SNR maps, one row per key byte,
  matching :func:`~repro.attacks.assessment.snr_by_sample` on the same
  trace set;
* :meth:`ClassStats.welch_t` — a specific (class-split) Welch t-map per
  byte, matching :func:`~repro.attacks.assessment.welch_t_by_sample` on
  the low-class vs high-class populations;
* :func:`select_pois` — greedy top-SNR point-of-interest ranking with a
  minimum sample spacing.
"""

from __future__ import annotations

import json

import numpy as np

from repro.attacks.assessment import TVLA_THRESHOLD
from repro.attacks.leakage_models import LeakageModel, get_leakage_model
from repro.errors import load_npz, require_compatible

__all__ = ["ClassStats", "select_pois", "class_values", "TVLA_THRESHOLD"]

_EPS = 1e-12


def class_values(model: LeakageModel) -> np.ndarray:
    """The sorted distinct values a leakage model's table can take.

    These define the class alphabet of a profiled attack under that model
    (``hw``/``hd`` → 9 Hamming classes, ``identity`` → 256 values, binary
    models → 2).  Every column of the table is the same multiset (``p ^ k``
    permutes the plaintext byte), so the alphabet is key-independent.
    """
    return np.unique(model.table)


class ClassStats:
    """Per-byte, per-class streaming trace moments under a known key.

    Parameters
    ----------
    key:
        The profiling device's known key; one class label table is derived
        per key byte.
    model:
        Leakage model (name or instance) whose table defines the class of
        each trace: ``class(trace) = table[pt_b, key_b]``.
    """

    _KIND = "class_stats.v1"

    def __init__(self, key: bytes, model: str | LeakageModel = "hw") -> None:
        if not key:
            raise ValueError("profiling statistics need a known key")
        self.key = bytes(key)
        self.model = get_leakage_model(model) if isinstance(model, str) else model
        self.classes = class_values(self.model)
        self.n_bytes = len(self.key)
        # label_tables[b][p] = class index of table[p, key[b]].
        self._label_tables = np.stack([
            np.searchsorted(self.classes, self.model.table[:, kb])
            for kb in self.key
        ]).astype(np.int64)
        self._n = 0
        self._counts: np.ndarray | None = None     # (n_bytes, C)
        self._sums: np.ndarray | None = None       # (n_bytes, C, m)
        self._sumsq: np.ndarray | None = None      # (n_bytes, C, m)

    # -- accumulation ---------------------------------------------------- #

    @property
    def n_traces(self) -> int:
        return self._n

    @property
    def n_classes(self) -> int:
        return int(self.classes.size)

    @property
    def n_samples(self) -> int | None:
        return None if self._sums is None else int(self._sums.shape[2])

    def labels(self, plaintexts: np.ndarray) -> np.ndarray:
        """Class index of every (trace, byte): shape ``(n, n_bytes)``."""
        plaintexts = np.asarray(plaintexts, dtype=np.uint8)
        if plaintexts.ndim != 2 or plaintexts.shape[1] < self.n_bytes:
            raise ValueError(
                f"expected (n, >={self.n_bytes}) plaintexts, got "
                f"{plaintexts.shape}"
            )
        return np.take_along_axis(
            self._label_tables,
            plaintexts[:, : self.n_bytes].astype(np.int64).T,
            axis=1,
        ).T

    def update(self, traces: np.ndarray, plaintexts: np.ndarray) -> int:
        """Fold one chunk of known-key traces in; returns the new total."""
        traces = np.asarray(traces, dtype=np.float64)
        if traces.ndim != 2 or traces.shape[0] == 0:
            raise ValueError(f"expected a non-empty (n, m) chunk, got {traces.shape}")
        labels = self.labels(plaintexts)
        if labels.shape[0] != traces.shape[0]:
            raise ValueError(
                f"plaintext chunk carries {labels.shape[0]} rows for "
                f"{traces.shape[0]} traces"
            )
        m = traces.shape[1]
        if self._sums is None:
            c = self.n_classes
            self._counts = np.zeros((self.n_bytes, c))
            self._sums = np.zeros((self.n_bytes, c, m))
            self._sumsq = np.zeros((self.n_bytes, c, m))
        elif m != self._sums.shape[2]:
            raise ValueError(
                f"chunk has {m} samples, statistics hold {self._sums.shape[2]}"
            )
        squares = traces * traces
        for b in range(self.n_bytes):
            row = labels[:, b]
            order = np.argsort(row, kind="stable")
            sorted_labels = row[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_labels)) + 1)
            )
            present = sorted_labels[starts]
            self._counts[b] += np.bincount(row, minlength=self.n_classes)
            self._sums[b][present] += np.add.reduceat(traces[order], starts, axis=0)
            self._sumsq[b][present] += np.add.reduceat(squares[order], starts, axis=0)
        self._n += traces.shape[0]
        return self._n

    def merge(self, other: "ClassStats") -> "ClassStats":
        """Fold another accumulator fed a disjoint stream into this one."""
        if not isinstance(other, ClassStats):
            raise TypeError(f"cannot merge {type(other).__name__} into ClassStats")
        if other.key != self.key or other.model.name != self.model.name:
            raise ValueError(
                "class statistics configuration mismatch: "
                f"({self.model.name!r}, key {self.key.hex()}) vs "
                f"({other.model.name!r}, key {other.key.hex()})"
            )
        if other._n == 0:
            return self
        if self._n == 0:
            self._counts = other._counts.copy()
            self._sums = other._sums.copy()
            self._sumsq = other._sumsq.copy()
            self._n = other._n
            return self
        if other.n_samples != self.n_samples:
            raise ValueError(
                f"statistics hold {self.n_samples} vs {other.n_samples} samples"
            )
        self._counts += other._counts
        self._sums += other._sums
        self._sumsq += other._sumsq
        self._n += other._n
        return self

    # -- derived statistics ---------------------------------------------- #

    def _require_data(self) -> None:
        if self._n == 0:
            raise ValueError("no traces accumulated yet")

    def class_means(self, byte_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(present_class_indices, means)`` for one byte's populated classes."""
        self._require_data()
        present = np.flatnonzero(self._counts[byte_index] > 0)
        means = self._sums[byte_index][present] / self._counts[byte_index][present, None]
        return present, means

    def snr(self) -> np.ndarray:
        """Per-sample SNR map, shape ``(n_bytes, m)``.

        Matches :func:`repro.attacks.assessment.snr_by_sample` fed the
        same traces and this byte's class labels: the variance of the
        class-conditional means over the mean of the class-conditional
        variances, unweighted over the populated classes.
        """
        self._require_data()
        m = self.n_samples
        out = np.zeros((self.n_bytes, m))
        for b in range(self.n_bytes):
            counts = self._counts[b]
            present = np.flatnonzero(counts > 0)
            if present.size < 2:
                raise ValueError(
                    f"byte {b} has {present.size} populated classes; an SNR "
                    f"needs at least two"
                )
            n_c = counts[present, None]
            means = self._sums[b][present] / n_c
            variances = self._sumsq[b][present] / n_c - means * means
            signal = means.var(axis=0)
            noise = variances.mean(axis=0)
            out[b] = np.where(noise > _EPS, signal / np.maximum(noise, _EPS), 0.0)
        return out

    def _group_moments(self, byte_index: int, class_indices: np.ndarray):
        n = self._counts[byte_index][class_indices].sum()
        s = self._sums[byte_index][class_indices].sum(axis=0)
        s2 = self._sumsq[byte_index][class_indices].sum(axis=0)
        return n, s, s2

    def welch_t(self) -> np.ndarray:
        """Specific Welch t-map per byte, shape ``(n_bytes, m)``.

        The class alphabet is split at its value midpoint into a low and a
        high population (``hw``: HW 0–3 vs 5–8; binary models: the two
        partitions), and Welch's t-statistic is computed per sample —
        matching :func:`repro.attacks.assessment.welch_t_by_sample` on the
        two populations.  |t| above :data:`TVLA_THRESHOLD` flags
        exploitable first-order leakage.
        """
        self._require_data()
        pivot = 0.5 * (self.classes.min() + self.classes.max())
        low = np.flatnonzero(self.classes < pivot)
        high = np.flatnonzero(self.classes > pivot)
        out = np.zeros((self.n_bytes, self.n_samples))
        for b in range(self.n_bytes):
            n_a, s_a, s2_a = self._group_moments(b, low)
            n_b, s_b, s2_b = self._group_moments(b, high)
            if n_a < 2 or n_b < 2:
                raise ValueError(
                    f"byte {b} has {int(n_a)}/{int(n_b)} low/high traces; "
                    f"Welch's t needs at least two per group"
                )
            mean_a = s_a / n_a
            mean_b = s_b / n_b
            var_a = (s2_a - n_a * mean_a * mean_a) / (n_a - 1) / n_a
            var_b = (s2_b - n_b * mean_b * mean_b) / (n_b - 1) / n_b
            denom = np.sqrt(np.clip(var_a + var_b, 0.0, None))
            out[b] = np.where(
                denom > _EPS, (mean_a - mean_b) / np.maximum(denom, _EPS), 0.0
            )
        return out

    # -- persistence ------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist the statistics as an ``.npz`` checkpoint."""
        self._require_data()
        np.savez_compressed(
            path,
            kind=np.array(self._KIND),
            config=np.array(json.dumps(
                {"key": self.key.hex(), "model": self.model.name}
            )),
            n=np.array([self._n]),
            counts=self._counts,
            sums=self._sums,
            sumsq=self._sumsq,
        )

    @classmethod
    def load(cls, path) -> "ClassStats":
        """Restore statistics saved by :meth:`save`."""
        state = load_npz(path)
        require_compatible(path, {"kind": str(state.get("kind"))},
                           kind=cls._KIND)
        config = json.loads(str(state["config"]))
        stats = cls(bytes.fromhex(config["key"]), model=config["model"])
        stats._n = int(state["n"][0])
        stats._counts = state["counts"]
        stats._sums = state["sums"]
        stats._sumsq = state["sumsq"]
        return stats


def select_pois(
    snr_map: np.ndarray, count: int, min_spacing: int = 1
) -> np.ndarray:
    """Greedy top-SNR points of interest per byte, shape ``(n_bytes, count)``.

    Walks each byte's samples in decreasing SNR order and keeps a sample
    only when it is at least ``min_spacing`` samples away from every POI
    already kept — adjacent samples of a band-limited trace carry nearly
    identical information, so spacing buys template diversity for free.
    """
    snr_map = np.atleast_2d(np.asarray(snr_map, dtype=np.float64))
    if count < 1:
        raise ValueError("count must be >= 1")
    if min_spacing < 1:
        raise ValueError("min_spacing must be >= 1")
    n_bytes, m = snr_map.shape
    pois = np.zeros((n_bytes, count), dtype=np.int64)
    for b in range(n_bytes):
        chosen: list[int] = []
        for sample in np.argsort(snr_map[b])[::-1]:
            if all(abs(int(sample) - p) >= min_spacing for p in chosen):
                chosen.append(int(sample))
                if len(chosen) == count:
                    break
        if len(chosen) < count:
            raise ValueError(
                f"byte {b}: only {len(chosen)} samples satisfy "
                f"min_spacing={min_spacing} over {m} samples; lower the "
                f"spacing or the POI count"
            )
        pois[b] = sorted(chosen)
    return pois

"""The sufficient-statistics core every distinguisher is built on.

A **distinguisher** is a statistic that, fed power traces plus the known
plaintexts, scores all 256 guesses of every key byte.  Each distinguisher
in this package exposes three faces backed by **one** sufficient-statistics
implementation:

* ``batch(traces, plaintexts)`` — one-shot attack over a full trace set
  (a fresh instance fed a single chunk);
* ``update(traces, plaintexts)`` — online accumulation, chunk by chunk,
  with constant memory in the trace count;
* ``merge(other)`` — exact combination of two accumulators fed disjoint
  streams, the algebra behind sharded parallel campaigns.

Because all three go through the same accumulation code, batch == online
== merged to floating-point noise regardless of chunking or shard order —
the invariant the property suite pins per distinguisher.

Subclasses implement ``_allocate`` (statistic arrays), ``_accumulate``
(fold one centred chunk in), ``score_matrix`` (recover the per-guess score
matrix) and ``_merge_stats`` (re-base + add another accumulator's
statistics); everything else — validation, the Section IV-C boxcar
aggregation (through the shared :func:`repro.signalproc.prepare_segments`
call site), the centring reference, guess ranking, persistence and the
merge plumbing — lives here once.
"""

from __future__ import annotations

import copy as _copy
import json
from typing import Protocol, runtime_checkable

import numpy as np

from repro.attacks.key_rank import MIN_CPA_TRACES, key_byte_rank
from repro.errors import load_npz, require_compatible
from repro.signalproc import prepare_segments

__all__ = ["Distinguisher", "SufficientStatisticDistinguisher"]


@runtime_checkable
class Distinguisher(Protocol):
    """What every attack statistic exposes to campaigns and evaluators."""

    name: str
    aggregate: int
    min_traces: int
    n_traces: int

    def batch(self, traces: np.ndarray, plaintexts: np.ndarray) -> "Distinguisher":
        ...  # pragma: no cover

    def update(self, traces: np.ndarray, plaintexts: np.ndarray) -> int:
        ...  # pragma: no cover

    def merge(self, other: "Distinguisher") -> "Distinguisher":
        ...  # pragma: no cover

    def guess_scores(self) -> np.ndarray:
        ...  # pragma: no cover

    def recovered_key(self) -> bytes:
        ...  # pragma: no cover

    def key_ranks(self, true_key: bytes) -> list[int]:
        ...  # pragma: no cover


class SufficientStatisticDistinguisher:
    """Shared chunk plumbing: validation, aggregation, merge, persistence."""

    #: Registry name of the distinguisher (subclass constant).
    name = ""
    #: Checkpoint tag stored in ``.npz`` state (subclass constant).
    _KIND = ""
    #: Statistic arrays to persist/merge-assign (subclass constant).
    _STATE_FIELDS: tuple[str, ...] = ()
    #: Fewest traces the recovered scores are defined for.
    min_traces = MIN_CPA_TRACES

    def __init__(self, aggregate: int = 1) -> None:
        if aggregate < 1:
            raise ValueError("aggregate must be >= 1")
        self.aggregate = int(aggregate)
        self._n = 0
        self._n_bytes: int | None = None
        self._t_ref: np.ndarray | None = None

    # -- configuration --------------------------------------------------- #

    def _config(self) -> dict:
        """JSON-safe constructor kwargs that rebuild this configuration."""
        return {"aggregate": self.aggregate}

    def spawn(self):
        """A fresh, empty distinguisher of the identical configuration."""
        return type(self)(**self._config())

    # -- the three faces ------------------------------------------------- #

    def batch(self, traces: np.ndarray, plaintexts: np.ndarray):
        """One-shot attack: a fresh copy fed the whole set as one chunk."""
        fresh = self.spawn()
        fresh.update(traces, plaintexts)
        return fresh

    def update(self, traces: np.ndarray, plaintexts: np.ndarray) -> int:
        """Accumulate one chunk; returns the new total trace count."""
        t, pts = self._ingest(traces, plaintexts)
        self._n += t.shape[0]
        self._accumulate(t, pts)
        return self._n

    # (merge lives below with the rest of the merge plumbing)

    # -- chunk intake ---------------------------------------------------- #

    @property
    def n_traces(self) -> int:
        """Traces accumulated so far."""
        return self._n

    @property
    def n_bytes(self) -> int | None:
        """Key bytes under attack (``None`` before the first chunk)."""
        return self._n_bytes

    @property
    def n_samples(self) -> int | None:
        """Samples per trace *after* aggregation (``None`` before data)."""
        return None if self._t_ref is None else int(self._t_ref.size)

    def _ingest(
        self, traces: np.ndarray, plaintexts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate one chunk, aggregate it, and centre it on the reference."""
        traces = prepare_segments(traces, self.aggregate)
        plaintexts = np.asarray(plaintexts, dtype=np.uint8)
        if plaintexts.ndim != 2 or plaintexts.shape[0] != traces.shape[0]:
            raise ValueError(
                f"plaintext chunk {plaintexts.shape} does not match "
                f"{traces.shape[0]} traces"
            )
        if traces.shape[0] == 0:
            raise ValueError("empty chunk")
        if self._t_ref is None:
            self._n_bytes = int(plaintexts.shape[1])
            self._t_ref = traces.mean(axis=0)
            self._allocate(traces.shape[1])
        elif traces.shape[1] != self._t_ref.size:
            raise ValueError(
                f"chunk has {traces.shape[1]} aggregated samples, "
                f"accumulator holds {self._t_ref.size}"
            )
        elif plaintexts.shape[1] != self._n_bytes:
            raise ValueError(
                f"chunk has {plaintexts.shape[1]}-byte plaintexts, "
                f"accumulator holds {self._n_bytes}-byte ones"
            )
        return traces - self._t_ref, plaintexts

    def _allocate(self, m: int) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _accumulate(self, t: np.ndarray, pts: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def _require_data(self, minimum: int = 1) -> None:
        if self._n < minimum:
            raise ValueError(
                f"accumulator holds {self._n} traces, needs >= {minimum}"
            )

    # -- merging --------------------------------------------------------- #

    def copy(self):
        """An independent deep copy (statistics arrays included)."""
        return _copy.deepcopy(self)

    def merge(self, other):
        """Fold ``other``'s statistics into this accumulator, in place.

        After ``a.merge(b)``, ``a`` recovers the same matrices as one
        accumulator fed ``a``'s stream followed by ``b``'s (to floating-
        point noise); ``b`` is left untouched.  An empty accumulator is
        the identity on either side.  Returns ``self`` so merges chain.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other._config() != self._config():
            raise ValueError(
                f"distinguisher configuration mismatch: "
                f"{self._config()} vs {other._config()}"
            )
        if other._n == 0:
            return self
        if self._n == 0:
            donor = other.copy()
            self._n = donor._n
            self._n_bytes = donor._n_bytes
            self._t_ref = donor._t_ref
            for name in self._STATE_FIELDS:
                setattr(self, name, getattr(donor, name))
            return self
        if other._t_ref.size != self._t_ref.size:
            raise ValueError(
                f"accumulators hold {self._t_ref.size} vs "
                f"{other._t_ref.size} aggregated samples"
            )
        if other._n_bytes != self._n_bytes:
            raise ValueError(
                f"accumulators attack {self._n_bytes} vs "
                f"{other._n_bytes} key bytes"
            )
        # Re-base the incoming statistics onto this reference: other's
        # centred traces are t - r_other = (t - r_self) - d, so adding d
        # back is an exact affine update of the sufficient statistics.
        d = other._t_ref - self._t_ref
        self._merge_stats(other, d)
        self._n += other._n
        return self

    def _merge_stats(self, other, d: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def __iadd__(self, other):
        return self.merge(other)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.copy().merge(other)

    # -- shared guess bookkeeping -------------------------------------- #

    def score_matrix(self, byte_index: int) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _check_byte_index(self, byte_index: int) -> None:
        if not 0 <= byte_index < self._n_bytes:
            raise ValueError(f"byte_index must be in [0, {self._n_bytes})")

    def guess_scores(self) -> np.ndarray:
        """Per-byte guess scores, shape ``(n_bytes, 256)``.

        The score of a guess is the max absolute value of its recovered
        matrix row over the samples.
        """
        self._require_data(self.min_traces)
        return np.stack(
            [
                np.abs(self.score_matrix(b)).max(axis=1)
                for b in range(self._n_bytes)
            ]
        )

    def best_guesses(self) -> np.ndarray:
        """The current best guess per key byte."""
        return self.guess_scores().argmax(axis=1)

    def recovered_key(self) -> bytes:
        """The most likely key given everything accumulated so far."""
        return bytes(int(g) for g in self.best_guesses())

    def key_ranks(self, true_key: bytes) -> list[int]:
        """Per-byte ranks of the true key (1 = recovered)."""
        scores = self.guess_scores()
        if len(true_key) != self._n_bytes:
            raise ValueError(
                f"true_key has {len(true_key)} bytes, accumulator attacks "
                f"{self._n_bytes}"
            )
        return [
            key_byte_rank(scores[b], true_key[b]) for b in range(self._n_bytes)
        ]

    # -- persistence ---------------------------------------------------- #

    def save(self, path) -> None:
        """Persist the sufficient statistics as an ``.npz`` checkpoint."""
        self._require_data()
        arrays = {name: getattr(self, name) for name in self._STATE_FIELDS}
        np.savez_compressed(
            path,
            kind=np.array(self._KIND),
            config=np.array(json.dumps(self._config())),
            n=np.array([self._n]),
            n_bytes=np.array([self._n_bytes]),
            t_ref=self._t_ref,
            **arrays,
        )

    @classmethod
    def load(cls, path):
        """Restore an accumulator saved by :meth:`save`."""
        state = load_npz(path)
        require_compatible(path, {"kind": str(state.get("kind"))},
                           kind=cls._KIND)
        fields = {"config", "n", "n_bytes", "t_ref", *cls._STATE_FIELDS}
        missing = sorted(fields.difference(state))
        if missing:
            raise ValueError(
                f"{path} is an incomplete {cls.__name__} checkpoint "
                f"(missing {', '.join(missing)})"
            )
        acc = cls(**json.loads(str(state["config"])))
        acc._n = int(state["n"][0])
        acc._n_bytes = int(state["n_bytes"][0])
        acc._t_ref = state["t_ref"]
        for name in cls._STATE_FIELDS:
            setattr(acc, name, state[name])
        return acc

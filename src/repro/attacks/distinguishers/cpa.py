"""First-order CPA (Brier et al. [2]) on the class-conditional store.

The Pearson correlation between a pluggable leakage hypothesis
(:mod:`repro.attacks.leakage_models`) and every trace sample.  The
hypothesis for guess ``k`` is a fixed function of the plaintext byte, so
every hypothesis-side statistic is a linear functional of the shared
class-conditional store (:mod:`~repro.attacks.distinguishers.class_conditional`):
with centred model table ``H[v, k]`` and per-class counts/sums
``c[v]``/``S[v, :]``,

* hypothesis sum            ``Σh  = c  @ H``            (256,)
* hypothesis sum-of-squares ``Σh² = c  @ H²``           (256,)
* cross-products            ``Σht = Hᵀ @ S``            (256, m)

Accumulation therefore never touches the model — the per-chunk cost is a
bincount plus one scatter-add, ``O(c·m)`` instead of the previous
formulation's per-guess ``O(c·m·256)`` GEMM — and the 256-guess
projection runs once per scoring call.  That also makes the leakage model
swappable *after* accumulation (:meth:`CpaDistinguisher.with_model`): the
same statistics re-score under any registered hypothesis.

Incoming chunks are centred against a fixed per-sample reference (the
first chunk's mean); the model table is centred against its constant
uniform-byte mean at scoring time.  Pearson correlation is
shift-invariant, so the references change nothing but numerical
conditioning — and because they are fixed, the statistics stay purely
additive and therefore exactly mergeable.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.distinguishers.class_conditional import (
    ClassConditionalDistinguisher,
)
from repro.attacks.key_rank import MIN_CPA_TRACES
from repro.attacks.leakage_models import LeakageModel, get_leakage_model

__all__ = ["CpaDistinguisher"]

_EPS = 1e-12


class CpaDistinguisher(ClassConditionalDistinguisher):
    """Streaming CPA: class-conditional updates, scoring-time projection.

    Feed ``(c, m)`` trace chunks plus their ``(c, n_bytes)`` plaintexts
    through :meth:`update`; :meth:`correlation` then recovers the same
    ``(256, m)`` Pearson matrix the closed-form CPA would compute over all
    traces at once (to ~1e-9), at any point of the stream and regardless
    of the chunking.

    Parameters
    ----------
    model:
        Leakage model name (or a :class:`LeakageModel`) mapping the S-box
        intermediate to predicted leakage — ``"hw"`` reproduces the
        classic Hamming-weight CPA.  Only consulted at scoring time; the
        accumulated statistics are model-independent.
    aggregate:
        Section IV-C boxcar aggregation width applied to each chunk
        before accumulation (aggregation is per-trace, so it commutes
        with streaming); the sufficient statistics then live in the
        aggregated sample space, shrinking memory and update cost alike.
    """

    name = "cpa"
    _KIND = "cpa.cc1"
    min_traces = MIN_CPA_TRACES

    def __init__(self, model: str | LeakageModel = "hw", aggregate: int = 1) -> None:
        super().__init__(aggregate=aggregate)
        self.model = (
            get_leakage_model(model) if isinstance(model, str) else model
        )

    def _config(self) -> dict:
        return {"model": self.model.name, "aggregate": self.aggregate}

    def with_model(self, model: str | LeakageModel) -> "CpaDistinguisher":
        """This accumulator's statistics re-scored under another hypothesis.

        The class-conditional store never saw the original model, so the
        swap is exact: the copy scores identically to an accumulator that
        was configured with ``model`` from the start and fed the same
        stream.  The original is untouched.
        """
        swapped = self.copy()
        swapped.model = (
            get_leakage_model(model) if isinstance(model, str) else model
        )
        return swapped

    def correlation(self, byte_index: int) -> np.ndarray:
        """Recovered ``(256, m)`` correlation matrix for one key byte."""
        n, counts, class_sums = self._projection_inputs(
            byte_index, MIN_CPA_TRACES
        )
        h = self.model.table - self.model.reference     # (256 values, 256 guesses)
        s_h = counts @ h                                # (256,)
        s_h2 = counts @ (h * h)                         # (256,)
        s_ht = h.T @ class_sums                         # (256, m)
        cross = s_ht - np.outer(s_h, self._s_t / n)
        h_norm = np.sqrt(np.clip(s_h2 - s_h ** 2 / n, 0, None))
        t_norm = np.sqrt(np.clip(self._s_t2 - self._s_t ** 2 / n, 0, None))
        denom = h_norm[:, None] * t_norm[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > _EPS, cross / np.maximum(denom, _EPS), 0.0)
        return np.clip(corr, -1.0, 1.0)

    score_matrix = correlation

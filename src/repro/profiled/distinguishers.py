"""Profiled attack-phase distinguishers: templates and NN classifiers.

The attack phase of a profiled attack scores each captured trace against
every class of the profile's leakage model and ranks key guesses by the
accumulated log-likelihood of the classes each guess predicts.  Both
distinguishers here keep one sufficient statistic per attacked byte —

    ``S[b, v, c] = Σ_{traces i with pt_i[b] = v}  loglik_b(trace_i, class c)``

— the per-(plaintext-value, class) log-likelihood sums, a ``(256, C)``
matrix per byte.  The per-guess score is then a pure *projection* at
scoring time, exactly the class-conditional idiom of the unprofiled
framework:

    ``score[b, k] = Σ_v S[b, v, class_table[v, k]]``

where ``class_table[v, k]`` is the class the leakage model predicts for
plaintext byte ``v`` under guess ``k``.  The statistic is a plain sum of
per-trace terms computed from **raw** (uncentred) traces, so it is
independent of the base class's centring reference: chunking, merge order
and shard boundaries cannot change it beyond floating-point noise, and
``_merge_stats`` is a bare addition — ``AttackCampaign`` /
``ParallelCampaign`` / checkpoint ladders work unchanged.

Unlike the correlation-style distinguishers, log-likelihoods are ranked
**signed** (larger is better; most are negative), so ``guess_scores``
overrides the base's abs-max-over-samples ranking.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.attacks.distinguishers.base import SufficientStatisticDistinguisher
from repro.errors import require_compatible
from repro.profiled.profile import load_profile

__all__ = ["ProfiledDistinguisher", "TemplateDistinguisher", "NnProfiledDistinguisher"]

_PT_ROWS = np.arange(256)[:, None]


class ProfiledDistinguisher(SufficientStatisticDistinguisher):
    """Shared accumulation core of the two profiled distinguishers.

    Parameters
    ----------
    profile:
        A profile directory path (loaded via
        :func:`~repro.profiled.profile.load_profile`) or an already-built
        profile object.  Process-pool workers and checkpoint restores
        always go through a path; passing a live object skips the disk
        round-trip for single-process work.
    fingerprint:
        Optional integrity pin: when given (checkpoint restores pass the
        fingerprint recorded at save time), the loaded profile's content
        hash must match — a checkpoint accumulated under one profile must
        not be silently resumed under another.
    """

    #: Profile ``kind`` this distinguisher consumes.
    _PROFILE_KIND = ""
    _STATE_FIELDS = ("_ll_sums",)
    #: A single trace already carries likelihood information.
    min_traces = 1

    def __init__(
        self, profile, aggregate: int = 1, fingerprint: str | None = None
    ) -> None:
        if aggregate != 1:
            raise ValueError(
                "profiled distinguishers score the raw sample space their "
                "profile was built in; aggregate must be 1"
            )
        super().__init__(aggregate=1)
        if isinstance(profile, (str, os.PathLike)):
            profile = load_profile(profile)
        # A checkpoint restore also pins the profile it accumulated under.
        require_compatible(
            f"profile {profile.path or '(unsaved)'}",
            {"kind": profile.kind, "fingerprint": profile.fingerprint()},
            kind=self._PROFILE_KIND, fingerprint=fingerprint,
            hint="re-profile or replay the campaign's trace store",
        )
        self.profile = profile
        self._class_table = profile.class_table()    # (256 pt, 256 guess)

    # -- configuration --------------------------------------------------- #

    def _config(self) -> dict:
        return {
            "profile": None if self.profile.path is None else str(self.profile.path),
            "aggregate": 1,
            "fingerprint": self.profile.fingerprint(),
        }

    def spawn(self):
        # Reuse the live profile object: the disk round-trip of the base
        # implementation (cls(**_config())) is pointless in-process, and
        # unsaved profiles have no path to reload from.
        return type(self)(self.profile)

    def save(self, path) -> None:
        if self.profile.path is None:
            raise ValueError(
                "cannot checkpoint a distinguisher built on an unsaved "
                "profile — profile.save(directory) first, so the restore "
                "can find it"
            )
        super().save(path)

    # -- accumulation ---------------------------------------------------- #

    def _allocate(self, m: int) -> None:
        if m != self.profile.segment_length:
            raise ValueError(
                f"profile was built for {self.profile.segment_length}-sample "
                f"segments, chunk has {m}"
                + (f" ({self.profile.path})" if self.profile.path is not None else "")
            )
        if self._n_bytes > self.profile.n_bytes:
            raise ValueError(
                f"profile models {self.profile.n_bytes} key bytes, chunk "
                f"plaintexts carry {self._n_bytes}"
            )
        self._ll_sums = np.zeros(
            (self._n_bytes, 256, self.profile.n_classes)
        )

    def _accumulate(self, t: np.ndarray, pts: np.ndarray) -> None:
        raw = t + self._t_ref
        for b in range(self._n_bytes):
            ll = self.profile.class_log_likelihood(b, raw[:, self.profile.pois[b]])
            np.add.at(self._ll_sums[b], pts[:, b], ll)

    def _merge_stats(self, other, d: np.ndarray) -> None:
        # The statistic is computed from raw traces (reference added back
        # in _accumulate), so it is centring-independent: no re-basing.
        self._ll_sums += other._ll_sums

    # -- scoring ----------------------------------------------------------#

    def guess_log_likelihoods(self) -> np.ndarray:
        """Accumulated log-likelihood of every guess: ``(n_bytes, 256)``."""
        self._require_data(self.min_traces)
        return np.stack([
            self._ll_sums[b][_PT_ROWS, self._class_table].sum(axis=0)
            for b in range(self._n_bytes)
        ])

    def score_matrix(self, byte_index: int) -> np.ndarray:
        """Per-guess log-likelihoods as a one-column score matrix."""
        self._require_data(self.min_traces)
        self._check_byte_index(byte_index)
        scores = self._ll_sums[byte_index][_PT_ROWS, self._class_table].sum(axis=0)
        return scores[:, None]

    def guess_scores(self) -> np.ndarray:
        """Signed log-likelihood ranking (shifted per byte for stability).

        Overrides the base's abs-max-over-samples: log-likelihoods are
        negative and larger-is-better, so taking absolute values would
        invert the ranking.
        """
        scores = self.guess_log_likelihoods()
        return scores - scores.max(axis=1, keepdims=True)


class TemplateDistinguisher(ProfiledDistinguisher):
    """Gaussian-template attack over a saved ``template`` profile."""

    name = "template"
    _KIND = "template.v1"
    _PROFILE_KIND = "template"


class NnProfiledDistinguisher(ProfiledDistinguisher):
    """NN-profiled attack over a saved ``nn`` profile."""

    name = "nnp"
    _KIND = "nnp.v1"
    _PROFILE_KIND = "nn"

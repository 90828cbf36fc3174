"""Closed-form batch attack formulas: test oracles for the distinguishers.

The distinguishers accumulate class-conditional sufficient statistics and
project them at scoring time; these functions compute the same matrices
directly from the full trace set, the textbook way, so the suites can pin
streaming == merged == closed form.  They are deliberately independent of
the library's accumulation code.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.leakage_models import get_leakage_model

_EPS = 1e-12


def boxcar(traces: np.ndarray, width: int) -> np.ndarray:
    """Sum consecutive samples in non-overlapping windows (tail dropped)."""
    traces = np.asarray(traces, dtype=np.float64)
    windows = traces.shape[1] // width
    return traces[:, : windows * width].reshape(
        traces.shape[0], windows, width
    ).sum(axis=2)


def cpa_byte_correlation(
    traces: np.ndarray, pt_bytes: np.ndarray, model: str = "hw"
) -> np.ndarray:
    """Pearson correlation ``(256, m)`` of every guess with every sample.

    Samples or hypotheses with zero variance get correlation 0.
    """
    traces = np.asarray(traces, dtype=np.float64)
    hyps = get_leakage_model(model).hypotheses(pt_bytes)     # (n, 256)
    h_c = hyps - hyps.mean(axis=0)
    t_c = traces - traces.mean(axis=0)
    denom = (
        np.sqrt((h_c * h_c).sum(axis=0))[:, None]
        * np.sqrt((t_c * t_c).sum(axis=0))[None, :]
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(
            denom > _EPS, (h_c.T @ t_c) / np.maximum(denom, _EPS), 0.0
        )
    return np.clip(corr, -1.0, 1.0)


def dpa_difference(
    traces: np.ndarray, pt_bytes: np.ndarray, model: str = "msb"
) -> np.ndarray:
    """Difference of partition means ``(256, m)``, one guess at a time.

    A guess whose selection bit puts every trace in one partition gets a
    zero row.
    """
    traces = np.asarray(traces, dtype=np.float64)
    bits = get_leakage_model(model).selection_bits(pt_bytes).astype(bool)
    diff = np.zeros((256, traces.shape[1]))
    for guess in range(256):
        ones = bits[:, guess]
        if ones.any() and not ones.all():
            diff[guess] = (
                traces[ones].mean(axis=0) - traces[~ones].mean(axis=0)
            )
    return diff

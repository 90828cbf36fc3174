"""Save/load model state as ``.npz`` archives."""

from __future__ import annotations

import os

import numpy as np

from repro.errors import load_npz
from repro.nn.module import Module

__all__ = ["save_state", "load_state"]


def save_state(model: Module, path: str | os.PathLike) -> None:
    """Persist a model's parameters and buffers to an ``.npz`` file."""
    state = model.state_dict()
    np.savez(path, **state)


def load_state(model: Module, path: str | os.PathLike) -> None:
    """Restore a model saved with :func:`save_state` (strict key match)."""
    model.load_state_dict(load_npz(path))

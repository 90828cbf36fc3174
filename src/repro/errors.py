"""Typed errors and the one check that an on-disk artifact fits a run.

Every loader of what an earlier run left on disk — trace stores, sharded
store roots, profiles, campaign journals, ``.npz`` checkpoints, saved
locators — states what the current run wants and calls
:func:`require_compatible`; every ``.npz`` artifact is read through
:func:`load_npz`.  The CLI maps :class:`ShardFailure` to exit code 4 and
any other :class:`ReproError` to 2.  Each class also keeps the builtin
base its callers have always caught.
"""

from __future__ import annotations

import zipfile
import zlib
from collections.abc import Mapping

import numpy as np

__all__ = [
    "CorruptArtifactError",
    "CorruptManifestError",
    "IncompatibleArtifactError",
    "ReproError",
    "ShardFailure",
    "UsageError",
    "load_npz",
    "require_compatible",
]


class ReproError(Exception):
    """Root of the package's typed errors."""


class UsageError(ReproError, ValueError):
    """Options that are invalid or contradict each other or the target."""


class IncompatibleArtifactError(ReproError, ValueError):
    """An on-disk artifact was made under settings this run does not use."""

    def __init__(self, artifact, field: str, stored, wanted, hint: str = "") -> None:
        self.artifact = str(artifact)
        self.field = field
        self.stored = stored
        self.wanted = wanted
        self.hint = hint
        super().__init__(
            f"{artifact} records {field} {stored!r}, this run wants "
            f"{wanted!r}" + (f"; {hint}" if hint else "")
        )

    def __reduce__(self):
        # Shard workers raise it across a process boundary.
        return type(self), (self.artifact, self.field, self.stored,
                            self.wanted, self.hint)


class CorruptArtifactError(ReproError, ValueError):
    """An artifact exists but cannot be parsed or lacks its schema."""


class CorruptManifestError(CorruptArtifactError):
    """A trace-store manifest exists but cannot be parsed or lacks its schema."""


class ShardFailure(ReproError, RuntimeError):
    """A shard that failed every attempt its retry policy allowed."""

    def __init__(self, index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = int(index)
        self.attempts = int(attempts)
        self.cause = cause


def require_compatible(artifact, stored: Mapping, /, *, hint: str = "",
                       **wanted) -> None:
    """Refuse ``artifact`` unless its ``stored`` record fits ``wanted``.

    Fields are checked in ``wanted`` order.  A field is skipped when the
    artifact does not record it or the run does not ask for it (either
    side ``None``), so artifacts written before a field existed stay
    loadable.  ``hint`` is appended to the refusal message.
    """
    for field, want in wanted.items():
        have = stored.get(field)
        if have is not None and want is not None and have != want:
            raise IncompatibleArtifactError(artifact, field, have, want, hint)


def load_npz(path) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive at ``path``, read into memory.

    A file that is not a readable archive (junk, a plain ``.npy``, a
    truncated zip) raises :class:`CorruptArtifactError`; a missing file
    stays :class:`FileNotFoundError`.
    """
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a plain array, not an archive")
        with archive:
            return {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as error:
        raise CorruptArtifactError(
            f"{path} is not a readable .npz archive ({error})"
        ) from error

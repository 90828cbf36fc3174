"""Chunked on-disk trace storage for resumable attack campaigns.

A :class:`TraceStore` is a directory of sharded ``.npy`` segment files plus
a JSON manifest:

.. code-block:: text

    store/
      manifest.json            source of truth: schema + ordered shard list
      traces-000000.npy        (count, n_samples) segment matrix
      plaintexts-000000.npy    (count, block_size) uint8 matrix
      traces-000001.npy
      ...

Writes are **append-only**: every :meth:`TraceStore.append` call lands one
new shard pair (payload files fsynced) and then atomically replaces the
manifest (write-to-temporary + fsync + ``os.replace`` + directory fsync).
The manifest therefore only ever lists fully written shards — a process
killed mid-append leaves at most an orphan array file, so a half-written
store always reopens to its last durable state.  Reads are memory-mapped
(:meth:`iter_chunks`), so replaying a million-trace store into an online
accumulator never materialises the whole matrix in RAM.

Integrity: every appended shard records the SHA-256 of both payload files
in its manifest entry (older, digest-less manifests stay readable — their
shards are checked structurally only).  :meth:`TraceStore.verify` detects
missing, truncated, and bit-flipped shard payloads plus orphaned payload
files; :meth:`TraceStore.recover` quarantines the damage into a
``quarantine/`` subdirectory and truncates the manifest back to its
longest intact prefix, so a resume path re-captures the quarantined tail
deterministically instead of crashing (or silently attacking corrupt
data) mid-replay.  The surviving shard list must stay a *prefix* — store
content is replayed sequentially against a seeded capture stream, so
dropping a middle shard while keeping later ones would splice the stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import (
    CorruptManifestError,
    IncompatibleArtifactError,
    require_compatible,
)

__all__ = [
    "CorruptManifestError",
    "StoreVerification",
    "TraceStore",
    "atomic_write_json",
    "is_shard_store_root",
    "shard_store_dir",
]

_MANIFEST = "manifest.json"
_VERSION = 1
_QUARANTINE = "quarantine"

#: Payload files a store directory may legitimately contain.
_PAYLOAD_RE = re.compile(r"^(traces|plaintexts)-\d{6}\.npy$")


def shard_store_dir(store_root, index: int) -> Path:
    """Shard ``index``'s trace-store directory under a sharded store root."""
    return Path(store_root) / f"shard-{index:06d}"


def is_shard_store_root(path) -> bool:
    """Does ``path`` hold a sharded campaign's ``shard-NNNNNN`` stores?

    A serial campaign's one store keeps its manifest in ``path`` itself.
    """
    return (shard_store_dir(path, 0) / _MANIFEST).exists()


def _fsync_path(path) -> None:
    """fsync a file or directory by path (directories need O_RDONLY)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path, payload: dict) -> None:
    """Durably replace ``path`` with ``payload`` as JSON.

    Write-to-temporary + file fsync + atomic ``os.replace`` + parent
    directory fsync: after a crash the path holds either the previous or
    the new content, never a torn file, and a power cut cannot leave the
    directory entry pointing at unsynced data.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _fsync_path(path.parent)


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class StoreVerification:
    """What :meth:`TraceStore.verify` found (and :meth:`recover` moved)."""

    corrupt: tuple[int, ...]        # manifest indices with damaged payloads
    orphans: tuple[str, ...]        # payload files the manifest never listed
    quarantined: tuple[str, ...] = ()   # files recover() moved aside

    @property
    def intact(self) -> bool:
        """Every manifest-listed shard read back clean."""
        return not self.corrupt

    @property
    def clean(self) -> bool:
        """Intact and free of orphans — nothing for recover() to do."""
        return self.intact and not self.orphans


class TraceStore:
    """Append-only sharded store of attack segments and their plaintexts.

    Construct through :meth:`create`, :meth:`open`, or
    :meth:`open_or_create` — never directly.
    """

    def __init__(self, path: Path, manifest: dict) -> None:
        self._path = Path(path)
        self._manifest = manifest

    # ------------------------------------------------------------------ #
    # constructors                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        path,
        n_samples: int,
        block_size: int = 16,
        dtype=np.float64,
        key: bytes | None = None,
        meta: dict | None = None,
    ) -> "TraceStore":
        """Initialise an empty store at ``path`` (created if missing)."""
        path = Path(path)
        if (path / _MANIFEST).exists():
            raise FileExistsError(f"{path} already holds a trace store")
        if n_samples < 1 or block_size < 1:
            raise ValueError("n_samples and block_size must be positive")
        path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": _VERSION,
            "n_samples": int(n_samples),
            "block_size": int(block_size),
            "dtype": np.dtype(dtype).name,
            "key": key.hex() if key is not None else None,
            "meta": dict(meta or {}),
            "shards": [],
        }
        store = cls(path, manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path) -> "TraceStore":
        """Open an existing store (only manifest-listed shards are seen)."""
        path = Path(path)
        manifest_path = path / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no trace store at {path}")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as error:
            raise CorruptManifestError(
                f"corrupt trace-store manifest at {manifest_path}: {error}"
            ) from error
        if not isinstance(manifest, dict) or "shards" not in manifest:
            raise CorruptManifestError(
                f"corrupt trace-store manifest at {manifest_path}: "
                f"not a store manifest"
            )
        require_compatible(
            f"trace store {path}", {"version": manifest.get("version", 0)},
            version=_VERSION,
        )
        return cls(path, manifest)

    @classmethod
    def open_or_create(
        cls,
        path,
        n_samples: int,
        block_size: int = 16,
        dtype=np.float64,
        key: bytes | None = None,
        meta: dict | None = None,
    ) -> "TraceStore":
        """Open ``path`` if it holds a store, otherwise create one.

        An existing store must fit the request (:meth:`require`), which
        checks ``meta`` first so a refusal names the setting that differs
        (another countermeasure also shifts the derived key).  A sharded
        campaign's store root is refused.
        """
        if is_shard_store_root(path):
            raise IncompatibleArtifactError(
                path, "layout", "per-shard stores", "serial TraceStore",
                hint="resume it as a sharded campaign (--workers), or "
                     "point the serial campaign at a fresh directory",
            )
        if (Path(path) / _MANIFEST).exists():
            return cls.open(path).require(
                **(meta or {}), n_samples=int(n_samples),
                block_size=int(block_size), key=key,
            )
        return cls.create(
            path, n_samples, block_size=block_size, dtype=dtype, key=key, meta=meta
        )

    def require(self, key: bytes | None = None, **wanted) -> "TraceStore":
        """Refuse this store unless it fits the run; returns ``self``.

        ``wanted`` names ``meta`` entries, ``n_samples`` and ``block_size``,
        checked in order before ``key``; fields either side leaves
        unrecorded are skipped.  A store without ``capture_mode``
        predates fast capture and reads as ``exact``.
        """
        recorded = {
            "capture_mode": "exact",
            **self.meta,
            "n_samples": self.n_samples,
            "block_size": self.block_size,
            "key": self._manifest.get("key"),
        }
        require_compatible(
            f"trace store {self.path}", recorded, **wanted,
            key=None if key is None else key.hex(),
        )
        return self

    # ------------------------------------------------------------------ #
    # schema                                                             #
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> Path:
        return self._path

    @property
    def n_samples(self) -> int:
        """Samples per stored segment."""
        return int(self._manifest["n_samples"])

    @property
    def block_size(self) -> int:
        """Plaintext bytes per segment."""
        return int(self._manifest["block_size"])

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._manifest["dtype"])

    @property
    def key(self) -> bytes | None:
        """The (simulation ground-truth) key the segments were captured under."""
        encoded = self._manifest.get("key")
        return None if encoded is None else bytes.fromhex(encoded)

    @property
    def meta(self) -> dict:
        """Free-form campaign metadata recorded at creation."""
        return dict(self._manifest["meta"])

    @property
    def n_shards(self) -> int:
        return len(self._manifest["shards"])

    def __len__(self) -> int:
        return sum(int(shard["count"]) for shard in self._manifest["shards"])

    def nbytes(self) -> int:
        """On-disk payload size of all durable shards."""
        total = 0
        for shard in self._manifest["shards"]:
            for name in (shard["traces"], shard["plaintexts"]):
                total += (self._path / name).stat().st_size
        return total

    # ------------------------------------------------------------------ #
    # writes                                                             #
    # ------------------------------------------------------------------ #

    def append(self, traces: np.ndarray, plaintexts: np.ndarray) -> int:
        """Durably append one chunk; returns the new total trace count.

        The shard files are written first and the manifest is replaced
        atomically afterwards, so a crash between the two leaves the store
        at its previous consistent state.
        """
        traces = np.asarray(traces)
        plaintexts = np.asarray(plaintexts, dtype=np.uint8)
        if traces.ndim != 2 or traces.shape[1] != self.n_samples:
            raise ValueError(
                f"expected (c, {self.n_samples}) traces, got {traces.shape}"
            )
        if plaintexts.shape != (traces.shape[0], self.block_size):
            raise ValueError(
                f"expected ({traces.shape[0]}, {self.block_size}) plaintexts, "
                f"got {plaintexts.shape}"
            )
        if traces.shape[0] == 0:
            raise ValueError("refusing to append an empty shard")
        index = self.n_shards
        trace_name = f"traces-{index:06d}.npy"
        pt_name = f"plaintexts-{index:06d}.npy"
        np.save(self._path / trace_name, traces.astype(self.dtype, copy=False))
        np.save(self._path / pt_name, plaintexts)
        digests = {}
        for name in (trace_name, pt_name):
            _fsync_path(self._path / name)
            digests[name] = _file_sha256(self._path / name)
        self._manifest["shards"].append(
            {
                "traces": trace_name,
                "plaintexts": pt_name,
                "count": int(traces.shape[0]),
                "sha256": digests,
            }
        )
        self._write_manifest()
        return len(self)

    def _write_manifest(self) -> None:
        atomic_write_json(self._path / _MANIFEST, self._manifest)

    # ------------------------------------------------------------------ #
    # integrity                                                          #
    # ------------------------------------------------------------------ #

    def verify(self, deep: bool = True) -> StoreVerification:
        """Check every manifest-listed shard payload and spot orphans.

        Structural checks (file present, loadable ``.npy`` header, the
        shape the manifest promises) catch missing and truncated
        payloads; with ``deep`` the recorded SHA-256 digests additionally
        catch bit flips (shards appended before digests existed are
        checked structurally only).  Orphans are payload-named files the
        manifest never listed — the debris of a crash between payload
        write and manifest replace.
        """
        corrupt: list[int] = []
        referenced: set[str] = set()
        for index, shard in enumerate(self._manifest["shards"]):
            names = (shard["traces"], shard["plaintexts"])
            referenced.update(names)
            shapes = (
                (int(shard["count"]), self.n_samples),
                (int(shard["count"]), self.block_size),
            )
            digests = shard.get("sha256") or {}
            ok = True
            for name, shape in zip(names, shapes):
                path = self._path / name
                try:
                    array = np.load(path, mmap_mode="r")
                except (OSError, ValueError):
                    ok = False
                    break
                if tuple(array.shape) != shape:
                    ok = False
                    break
                if deep and name in digests:
                    if _file_sha256(path) != digests[name]:
                        ok = False
                        break
            if not ok:
                corrupt.append(index)
        orphans = sorted(
            name
            for name in os.listdir(self._path)
            if _PAYLOAD_RE.match(name) and name not in referenced
        )
        return StoreVerification(tuple(corrupt), tuple(orphans))

    def recover(self, deep: bool = True) -> StoreVerification:
        """Quarantine damage found by :meth:`verify`; return what moved.

        Corrupt shards force the manifest back to its longest intact
        *prefix* (the store is a sequential replay of a seeded stream, so
        shards past the first damaged one cannot be kept without splicing
        that stream); their payloads, and every orphan, move into
        ``quarantine/`` for post-mortem instead of being deleted.  The
        truncated manifest is written before the files move, so a crash
        mid-recover degrades to orphans the next recover sweeps up.
        """
        report = self.verify(deep=deep)
        if report.clean:
            return report
        quarantined: list[str] = []
        dropped: list[dict] = []
        if report.corrupt:
            first_bad = min(report.corrupt)
            dropped = self._manifest["shards"][first_bad:]
            del self._manifest["shards"][first_bad:]
            self._write_manifest()
        for shard in dropped:
            for name in (shard["traces"], shard["plaintexts"]):
                moved = self._quarantine_file(name)
                if moved is not None:
                    quarantined.append(moved)
        for name in report.orphans:
            moved = self._quarantine_file(name)
            if moved is not None:
                quarantined.append(moved)
        return dataclasses.replace(report, quarantined=tuple(quarantined))

    def _quarantine_file(self, name: str) -> str | None:
        source = self._path / name
        if not source.exists():
            return None
        quarantine = self._path / _QUARANTINE
        quarantine.mkdir(exist_ok=True)
        target = quarantine / name
        serial = 0
        while target.exists():
            serial += 1
            target = quarantine / f"{name}.{serial}"
        os.replace(source, target)
        return target.name

    # ------------------------------------------------------------------ #
    # reads                                                              #
    # ------------------------------------------------------------------ #

    def iter_chunks(
        self, chunk_size: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(traces, plaintexts)`` chunks without loading the store.

        Shards are memory-mapped; ``chunk_size`` re-slices them (a shard is
        yielded whole when ``None``).  Chunks never span shards, so every
        yielded pair is one contiguous mapped view.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for shard in self._manifest["shards"]:
            traces = np.load(self._path / shard["traces"], mmap_mode="r")
            plaintexts = np.load(self._path / shard["plaintexts"], mmap_mode="r")
            if chunk_size is None:
                yield traces, plaintexts
                continue
            for begin in range(0, traces.shape[0], chunk_size):
                end = begin + chunk_size
                yield traces[begin:end], plaintexts[begin:end]

    def load(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise the whole store in RAM (small stores / testing)."""
        if not self._manifest["shards"]:
            return (
                np.zeros((0, self.n_samples), dtype=self.dtype),
                np.zeros((0, self.block_size), dtype=np.uint8),
            )
        chunks = list(self.iter_chunks())
        return (
            np.concatenate([np.asarray(t) for t, _ in chunks], axis=0),
            np.concatenate([np.asarray(p) for _, p in chunks], axis=0),
        )

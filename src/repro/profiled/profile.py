"""Versioned profile artifacts: Gaussian templates and NN-profiled models.

A **profile** is the persisted output of the profiling phase — everything
the attack phase needs to score a trace against every class of the leakage
model, for every attacked key byte:

* the class alphabet (the distinct values of the leakage-model table);
* the per-byte points of interest (POIs) in segment-sample space;
* the per-byte class models — Gaussian templates (class means + pooled or
  per-class covariance) or a trained MLP classifier per byte;
* a ``manifest.json`` carrying the artifact version, model kind, and the
  capture metadata (cipher, RD, capture mode, segment length) the attack
  phase validates against before accumulating a single trace.

Profiles are **directories** (SNIPPETS' profile-directory idiom): a
manifest plus ``.npz`` payloads (``nn.serialize`` state per byte for NN
profiles), so they are reusable across campaigns, machines and processes —
``DistinguisherSpec(name="template", profile=DIR)`` is all a process-pool
worker needs to rebuild its accumulator.

Pooled vs per-class covariance: a pooled covariance is the classic
first-order template (class means differ, noise is shared).  Against a
masked implementation the class *means* are constant and the leakage hides
in the class-conditional **covariance** between the two share windows
(``Cov(HW(a^M), HW(b^M)) = (8 - 2·HW(a^b))/4``), so masked targets need
``pooled=False`` — the full per-class-covariance template.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.attacks.distinguishers.second_order import masked_aes_windows
from repro.attacks.leakage_models import LeakageModel, get_leakage_model
from repro.errors import CorruptArtifactError, load_npz, require_compatible
from repro.profiled.stats import ClassStats, class_values

__all__ = [
    "PROFILE_VERSION",
    "GaussianTemplateProfile",
    "NnProfile",
    "fit_template_profile",
    "fit_nn_profile",
    "load_manifest",
    "load_profile",
    "masked_byte_pois",
]

PROFILE_VERSION = 1
_MANIFEST = "manifest.json"


def masked_byte_pois(n_bytes: int = 16, shares: int = 2) -> np.ndarray:
    """Per-byte POIs for the masked-AES target (RD-0), shape ``(n_bytes, P)``.

    A masked implementation has no first-order SNR, so SNR ranking cannot
    find its POIs; instead they are derived from the cipher's deterministic
    operation layout — byte ``b``'s samples inside each of the two
    second-order windows (AddRoundKey-0 output and round-1 SubBytes output,
    both masked by the same ``m_out`` at first order), the same layout
    knowledge
    :func:`~repro.attacks.distinguishers.second_order.masked_aes_windows`
    gives cpa2.  ``shares`` is the cipher's share count (``order + 1``) —
    the op layout shifts with it, so profiling an order-2 capture needs
    ``shares=3`` for the POIs to land on the same intermediates.
    """
    (w1s, w1e), (w2s, _) = masked_aes_windows(shares=shares)
    spo = (w1e - w1s) // 16
    pois = np.zeros((n_bytes, 2 * spo), dtype=np.int64)
    for b in range(n_bytes):
        pois[b, :spo] = np.arange(w1s + spo * b, w1s + spo * (b + 1))
        pois[b, spo:] = np.arange(w2s + spo * b, w2s + spo * (b + 1))
    return pois


def _iter_fit_chunks(store, chunk_size: int):
    """Yield ``(traces, plaintexts)`` chunks from a store or an array pair."""
    if isinstance(store, tuple):
        traces, plaintexts = store
        traces = np.asarray(traces, dtype=np.float64)
        plaintexts = np.asarray(plaintexts, dtype=np.uint8)
        for begin in range(0, traces.shape[0], chunk_size):
            yield traces[begin: begin + chunk_size], plaintexts[begin: begin + chunk_size]
    else:
        yield from store.iter_chunks(chunk_size)


def _validate_pois(pois, n_bytes: int, segment_length: int) -> np.ndarray:
    pois = np.asarray(pois, dtype=np.int64)
    if pois.ndim != 2 or pois.shape[0] < n_bytes:
        raise ValueError(
            f"pois must be (>={n_bytes}, P) sample indices, got {pois.shape}"
        )
    if pois.size and (pois.min() < 0 or pois.max() >= segment_length):
        raise ValueError(
            f"pois reference samples outside the {segment_length}-sample "
            f"segments"
        )
    return pois[:n_bytes]


class _ProfileBase:
    """Shared plumbing of the two profile kinds: manifest, identity, POIs."""

    kind = ""

    def __init__(
        self,
        model: LeakageModel,
        pois: np.ndarray,
        segment_length: int,
        meta: dict | None = None,
        n_traces: int = 0,
        path: Path | None = None,
    ) -> None:
        self.model = model
        self.classes = class_values(model)
        self.pois = np.asarray(pois, dtype=np.int64)
        self.segment_length = int(segment_length)
        self.meta = dict(meta or {})
        self.n_traces = int(n_traces)
        self.path = Path(path) if path is not None else None

    @property
    def n_bytes(self) -> int:
        return int(self.pois.shape[0])

    @property
    def n_pois(self) -> int:
        return int(self.pois.shape[1])

    @property
    def n_classes(self) -> int:
        return int(self.classes.size)

    def class_table(self) -> np.ndarray:
        """``(256, 256)`` class index of the model table per (pt, guess)."""
        return np.searchsorted(self.classes, self.model.table)

    def fingerprint(self) -> str:
        """Content hash tying checkpoints to the exact profile that fed them."""
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(self.kind.encode())
        digest.update(self.model.name.encode())
        digest.update(np.ascontiguousarray(self.pois).tobytes())
        for array in self._payload_arrays():
            digest.update(np.ascontiguousarray(array).tobytes())
        self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def _payload_arrays(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _manifest(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "kind": self.kind,
            "leakage_model": self.model.name,
            "n_bytes": self.n_bytes,
            "n_pois": self.n_pois,
            "n_classes": self.n_classes,
            "segment_length": self.segment_length,
            "n_traces": self.n_traces,
            "meta": self.meta,
        }

    def _write_manifest(self, directory: Path, extra: dict | None = None) -> None:
        manifest = self._manifest()
        manifest.update(extra or {})
        tmp = directory / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, directory / _MANIFEST)

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        meta = self.meta
        target = meta.get("cipher", "?")
        return (
            f"{self.kind} profile: {target} RD-{meta.get('rd', '?')}, "
            f"{self.model.name} model ({self.n_classes} classes), "
            f"{self.n_bytes} bytes x {self.n_pois} POIs, "
            f"{self.segment_length}-sample segments, "
            f"{self.n_traces} profiling traces"
        )


class GaussianTemplateProfile(_ProfileBase):
    """Per-byte Gaussian class templates over POI vectors.

    For byte ``b`` and class ``c`` the template is a multivariate normal
    ``N(means[b, c], covs[b, c])`` over that byte's POI samples; the
    attack-phase score of a trace under a class is the Gaussian
    log-likelihood (the ``P·log 2π`` constant, common to every class and
    guess, is dropped).  ``pooled=True`` shares one covariance across the
    classes of a byte (the classic first-order template); ``pooled=False``
    estimates one per class, which is what captures masked (second-order)
    leakage.  Classes too thin to support a stable covariance estimate
    fall back to the pooled one.
    """

    kind = "template"

    def __init__(
        self,
        model: LeakageModel,
        pois: np.ndarray,
        means: np.ndarray,
        covs: np.ndarray,
        counts: np.ndarray,
        segment_length: int,
        pooled: bool = True,
        meta: dict | None = None,
        n_traces: int = 0,
        path: Path | None = None,
    ) -> None:
        super().__init__(
            model, pois, segment_length, meta=meta, n_traces=n_traces, path=path
        )
        self.means = np.asarray(means, dtype=np.float64)       # (b, C, P)
        self.covs = np.asarray(covs, dtype=np.float64)         # (b, C, P, P)
        self.counts = np.asarray(counts, dtype=np.float64)     # (b, C)
        self.pooled = bool(pooled)
        self.precisions = np.linalg.inv(self.covs)
        self.logdets = np.linalg.slogdet(self.covs)[1]

    def _payload_arrays(self):
        return (self.means, self.covs, self.counts)

    @classmethod
    def fit(
        cls,
        store,
        key: bytes,
        model: str | LeakageModel = "hw",
        pois: np.ndarray | None = None,
        pooled: bool = True,
        ridge: float = 1e-6,
        meta: dict | None = None,
        chunk_size: int = 1024,
    ) -> "GaussianTemplateProfile":
        """Estimate templates from a known-key trace store (one pass).

        ``store`` is a :class:`~repro.campaign.store.TraceStore` or a
        ``(traces, plaintexts)`` pair; ``pois`` the ``(n_bytes, P)`` sample
        indices to model (see :func:`~repro.profiled.stats.select_pois` and
        :func:`masked_byte_pois`).  ``ridge`` scales a diagonal loading on
        every covariance (relative to its mean diagonal) so thin classes
        stay invertible.
        """
        model = get_leakage_model(model) if isinstance(model, str) else model
        stats = ClassStats(key, model=model)
        segment_length = (
            store[0].shape[1] if isinstance(store, tuple) else store.n_samples
        )
        pois = _validate_pois(pois, len(key), segment_length)
        n_bytes, p = pois.shape
        c = stats.n_classes
        counts = np.zeros((n_bytes, c))
        sums = np.zeros((n_bytes, c, p))
        outers = np.zeros((n_bytes, c, p, p))
        n = 0
        for traces, plaintexts in _iter_fit_chunks(store, chunk_size):
            labels = stats.labels(plaintexts)
            n += traces.shape[0]
            for b in range(n_bytes):
                x = traces[:, pois[b]]
                row = labels[:, b]
                counts[b] += np.bincount(row, minlength=c)
                for label in np.unique(row):
                    xc = x[row == label]
                    sums[b, label] += xc.sum(axis=0)
                    outers[b, label] += xc.T @ xc
        if n < p + 2:
            raise ValueError(
                f"{n} profiling traces cannot support {p}-POI templates"
            )
        means = np.zeros((n_bytes, c, p))
        covs = np.empty((n_bytes, c, p, p))
        min_class = p + 2
        for b in range(n_bytes):
            present = np.flatnonzero(counts[b] > 0)
            means[b][present] = sums[b][present] / counts[b][present][:, None]
            scatter = (
                outers[b][present]
                - counts[b][present][:, None, None]
                * np.einsum("cp,cq->cpq", means[b][present], means[b][present])
            )
            pooled_cov = scatter.sum(axis=0) / max(1, n - present.size)
            pooled_cov = cls._load_diagonal(pooled_cov, ridge)
            global_mean = sums[b].sum(axis=0) / n
            for label in range(c):
                n_c = counts[b, label]
                if n_c == 0:
                    # Never observed: score as average-looking noise so the
                    # class neither attracts nor repels any guess strongly.
                    means[b, label] = global_mean
                    covs[b, label] = pooled_cov
                elif pooled or n_c < min_class:
                    covs[b, label] = pooled_cov
                else:
                    idx = np.searchsorted(present, label)
                    covs[b, label] = cls._load_diagonal(
                        scatter[idx] / (n_c - 1), ridge
                    )
        return cls(
            model, pois, means, covs, counts,
            segment_length=segment_length, pooled=pooled, meta=meta, n_traces=n,
        )

    @staticmethod
    def _load_diagonal(cov: np.ndarray, ridge: float) -> np.ndarray:
        p = cov.shape[0]
        loading = ridge * max(np.trace(cov) / p, 0.0) + 1e-12
        return cov + loading * np.eye(p)

    def class_log_likelihood(self, byte_index: int, x: np.ndarray) -> np.ndarray:
        """Log-likelihood of POI vectors under every class: ``(n, C)``."""
        d = x[None, :, :] - self.means[byte_index][:, None, :]      # (C, n, P)
        quad = np.einsum(
            "cnp,cpq,cnq->cn", d, self.precisions[byte_index], d
        )
        return (-0.5 * (quad + self.logdets[byte_index][:, None])).T

    def save(self, directory) -> "GaussianTemplateProfile":
        """Persist as a versioned profile directory; returns ``self``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            directory / "templates.npz",
            classes=self.classes,
            pois=self.pois,
            means=self.means,
            covs=self.covs,
            counts=self.counts,
        )
        self._write_manifest(directory, {"pooled": self.pooled})
        self.path = directory
        return self

    @classmethod
    def load(cls, directory, manifest: dict) -> "GaussianTemplateProfile":
        directory = Path(directory)
        payload = load_npz(directory / "templates.npz")
        return cls(
            get_leakage_model(manifest["leakage_model"]),
            payload["pois"],
            payload["means"],
            payload["covs"],
            payload["counts"],
            segment_length=int(manifest["segment_length"]),
            pooled=bool(manifest.get("pooled", True)),
            meta=manifest.get("meta", {}),
            n_traces=int(manifest.get("n_traces", 0)),
            path=directory,
        )


class NnProfile(_ProfileBase):
    """One MLP classifier per key byte over standardised POI vectors.

    Each byte's network is trained with the :mod:`repro.nn` trainer
    (Adam + softmax cross-entropy, best-validation-model selection) to
    predict the leakage-model class from the byte's POI samples; the
    attack-phase class score is the log-softmax of its logits minus the
    empirical log class prior of the profiling set — the network learns
    the posterior ``p(class | x)``, but key ranking must accumulate the
    likelihood ``log p(x | class)``, and under non-uniform class priors
    (Hamming-weight classes are binomial) the difference decides whether
    the ranking converges at all.

    ``combine=True`` appends the centred pairwise products of the POI
    samples to the input features.  Masked targets leak only in the
    *joint* distribution of share samples (class means are identical),
    which a small MLP on raw samples learns poorly; the product features
    expose that second-order moment directly — the classical
    centred-product combining step, learned end-to-end.
    """

    kind = "nn"

    def __init__(
        self,
        model: LeakageModel,
        pois: np.ndarray,
        networks: list,
        x_mean: np.ndarray,
        x_std: np.ndarray,
        log_prior: np.ndarray,
        segment_length: int,
        hidden: int = 32,
        combine: bool = False,
        meta: dict | None = None,
        n_traces: int = 0,
        path: Path | None = None,
    ) -> None:
        super().__init__(
            model, pois, segment_length, meta=meta, n_traces=n_traces, path=path
        )
        self.networks = list(networks)
        self.x_mean = np.asarray(x_mean, dtype=np.float64)      # (b, F)
        self.x_std = np.asarray(x_std, dtype=np.float64)        # (b, F)
        self.log_prior = np.asarray(log_prior, dtype=np.float64)  # (b, C)
        self.hidden = int(hidden)
        self.combine = bool(combine)
        for network in self.networks:
            network.eval()

    @staticmethod
    def n_features(n_pois: int, combine: bool) -> int:
        """Input width of the per-byte networks."""
        return n_pois + (n_pois * (n_pois - 1) // 2 if combine else 0)

    @staticmethod
    def _expand(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """POI samples + centred pairwise products: ``(n, P)`` → ``(n, F)``.

        ``mu`` is the profiling-set POI mean — attack traces must be
        centred by the *profiling* mean, not their own, or the product
        features drift with the attack set.
        """
        xc = x - mu
        p = x.shape[1]
        pairs = [xc[:, i] * xc[:, j] for i in range(p) for j in range(i + 1, p)]
        return np.concatenate([x, np.stack(pairs, axis=1)], axis=1)

    def _payload_arrays(self):
        arrays = [self.x_mean, self.x_std, self.log_prior]
        for network in self.networks:
            state = network.state_dict()
            arrays.extend(state[name] for name in sorted(state))
        return arrays

    @staticmethod
    def build_network(n_features: int, hidden: int, n_classes: int):
        """The per-byte classifier architecture (rebuilt identically at load)."""
        from repro.nn import Linear, ReLU, Sequential

        return Sequential(
            Linear(n_features, hidden),
            ReLU(),
            Linear(hidden, hidden),
            ReLU(),
            Linear(hidden, n_classes),
        )

    @classmethod
    def fit(
        cls,
        store,
        key: bytes,
        model: str | LeakageModel = "hw",
        pois: np.ndarray | None = None,
        hidden: int = 32,
        combine: bool = False,
        epochs: int = 8,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed: int = 0,
        meta: dict | None = None,
        chunk_size: int = 2048,
        verbose: bool = False,
    ) -> "NnProfile":
        """Train one classifier per byte from a known-key trace store.

        The POI matrix is gathered in one pass (``n × P`` per byte — small
        even for large stores), optionally product-combined
        (``combine=True``, for masked targets), standardised per feature,
        split 80/15/5 stratified, and trained with the paper's procedure
        (Adam, softmax cross-entropy, lowest-validation-loss model
        restored).
        """
        from repro.nn import Adam, Trainer, train_val_test_split

        model = get_leakage_model(model) if isinstance(model, str) else model
        stats = ClassStats(key, model=model)
        segment_length = (
            store[0].shape[1] if isinstance(store, tuple) else store.n_samples
        )
        pois = _validate_pois(pois, len(key), segment_length)
        n_bytes, p = pois.shape
        gathered: list[list[np.ndarray]] = [[] for _ in range(n_bytes)]
        labelled: list[list[np.ndarray]] = [[] for _ in range(n_bytes)]
        n = 0
        for traces, plaintexts in _iter_fit_chunks(store, chunk_size):
            labels = stats.labels(plaintexts)
            n += traces.shape[0]
            for b in range(n_bytes):
                gathered[b].append(np.asarray(traces[:, pois[b]], dtype=np.float64))
                labelled[b].append(labels[:, b])
        if n < 8:
            raise ValueError(f"{n} profiling traces are too few to train on")
        networks = []
        n_features = cls.n_features(p, combine)
        x_mean = np.zeros((n_bytes, n_features))
        x_std = np.zeros((n_bytes, n_features))
        log_prior = np.zeros((n_bytes, stats.n_classes))
        for b in range(n_bytes):
            x = np.concatenate(gathered[b])
            y = np.concatenate(labelled[b]).astype(np.int64)
            counts = np.bincount(y, minlength=stats.n_classes)
            log_prior[b] = np.log(np.maximum(counts, 1) / counts.sum())
            if combine:
                x = cls._expand(x, x.mean(axis=0, keepdims=True))
            x_mean[b] = x.mean(axis=0)
            x_std[b] = np.maximum(x.std(axis=0), 1e-9)
            z = (x - x_mean[b]) / x_std[b]
            rng = np.random.default_rng(seed + b)
            train, val, _ = train_val_test_split(z, y, rng=rng, stratify=True)
            network = cls.build_network(n_features, hidden, stats.n_classes)
            trainer = Trainer(
                network, Adam(network.parameters(), lr=lr), rng=rng
            )
            history = trainer.fit(
                train, val, epochs=epochs, batch_size=batch_size
            )
            if verbose:
                print(f"byte {b:2d}: val_acc "
                      f"{history.val_accuracy[history.best_epoch]:.3f}")
            networks.append(network)
        return cls(
            model, pois, networks, x_mean, x_std, log_prior,
            segment_length=segment_length, hidden=hidden, combine=combine,
            meta=meta, n_traces=n,
        )

    def class_log_likelihood(self, byte_index: int, x: np.ndarray) -> np.ndarray:
        """Prior-corrected log-likelihood scores of POI vectors: ``(n, C)``."""
        if self.combine:
            # Centre by the profiling-set POI means, which the expanded
            # feature means carry in their first P entries.
            p = self.pois.shape[1]
            x = self._expand(x, self.x_mean[byte_index, :p])
        z = (x - self.x_mean[byte_index]) / self.x_std[byte_index]
        logits = self.networks[byte_index].forward(z)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_posterior = shifted - np.log(
            np.exp(shifted).sum(axis=1, keepdims=True)
        )
        return log_posterior - self.log_prior[byte_index]

    def save(self, directory) -> "NnProfile":
        """Persist as a versioned profile directory; returns ``self``."""
        from repro.nn import save_state

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            directory / "scaling.npz",
            classes=self.classes,
            pois=self.pois,
            x_mean=self.x_mean,
            x_std=self.x_std,
            log_prior=self.log_prior,
        )
        for b, network in enumerate(self.networks):
            save_state(network, directory / f"nn-byte-{b:02d}.npz")
        self._write_manifest(
            directory, {"hidden": self.hidden, "combine": self.combine}
        )
        self.path = directory
        return self

    @classmethod
    def load(cls, directory, manifest: dict) -> "NnProfile":
        from repro.nn import load_state

        directory = Path(directory)
        payload = load_npz(directory / "scaling.npz")
        pois, x_mean = payload["pois"], payload["x_mean"]
        x_std, log_prior = payload["x_std"], payload["log_prior"]
        model = get_leakage_model(manifest["leakage_model"])
        hidden = int(manifest["hidden"])
        combine = bool(manifest.get("combine", False))
        n_classes = int(manifest["n_classes"])
        networks = []
        for b in range(int(manifest["n_bytes"])):
            network = cls.build_network(
                cls.n_features(pois.shape[1], combine), hidden, n_classes
            )
            load_state(network, directory / f"nn-byte-{b:02d}.npz")
            networks.append(network)
        return cls(
            model, pois, networks, x_mean, x_std, log_prior,
            segment_length=int(manifest["segment_length"]),
            hidden=hidden,
            combine=combine,
            meta=manifest.get("meta", {}),
            n_traces=int(manifest.get("n_traces", 0)),
            path=directory,
        )


fit_template_profile = GaussianTemplateProfile.fit
fit_nn_profile = NnProfile.fit

_KINDS = {
    GaussianTemplateProfile.kind: GaussianTemplateProfile,
    NnProfile.kind: NnProfile,
}


def load_manifest(directory, **wanted) -> dict:
    """Read and version-check a profile directory's manifest.

    ``wanted`` names the target a run will score the profile against —
    any of the ``meta`` entries (``cipher``, ``rd``, ...) and
    ``segment_length`` — and refuses a profile built on another one.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise CorruptArtifactError(
            f"{directory} is not a profile directory (no {_MANIFEST}); "
            f"create one with `repro profile`"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CorruptArtifactError(
            f"{manifest_path} is not valid JSON: {error}"
        ) from None
    artifact = f"profile {directory}"
    require_compatible(artifact, {"version": manifest.get("version", 0)},
                       version=PROFILE_VERSION, hint="re-run `repro profile`")
    if manifest.get("kind") not in _KINDS:
        raise CorruptArtifactError(
            f"{directory} holds an unknown profile kind "
            f"{manifest.get('kind')!r}; known: {', '.join(sorted(_KINDS))}"
        )
    require_compatible(
        artifact,
        {**manifest.get("meta", {}),
         "segment_length": manifest.get("segment_length")},
        **wanted,
    )
    return manifest


def load_profile(directory):
    """Load a profile directory, dispatching on its manifest ``kind``."""
    manifest = load_manifest(directory)
    return _KINDS[manifest["kind"]].load(directory, manifest)

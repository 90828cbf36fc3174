"""The typed error family and the one artifact-compatibility check."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import (
    CorruptArtifactError,
    CorruptManifestError,
    IncompatibleArtifactError,
    ReproError,
    ShardFailure,
    UsageError,
    load_npz,
    require_compatible,
)
from repro.runtime.retry import RetryPolicy, ShardExecutor


class TestRequireCompatible:
    def test_matching_fields_pass(self):
        require_compatible("store", {"rd": 2, "cipher": "aes"}, rd=2,
                           cipher="aes")

    def test_the_first_differing_field_is_named(self):
        with pytest.raises(IncompatibleArtifactError) as refused:
            require_compatible("store", {"rd": 2, "seed": 1}, seed=3, rd=0)
        error = refused.value
        assert (error.artifact, error.field) == ("store", "seed")
        assert (error.stored, error.wanted) == (1, 3)
        assert str(error) == "store records seed 1, this run wants 3"

    def test_fields_either_side_leaves_open_are_skipped(self):
        require_compatible("store", {"rd": None}, rd=2, cipher="aes")
        require_compatible("store", {"rd": 2}, rd=None)

    def test_the_hint_is_appended(self):
        with pytest.raises(IncompatibleArtifactError, match="; re-run it$"):
            require_compatible("x", {"version": 0}, version=1,
                               hint="re-run it")


class TestHierarchy:
    @pytest.mark.parametrize("cls,builtin", [
        (UsageError, ValueError),
        (IncompatibleArtifactError, ValueError),
        (CorruptManifestError, ValueError),
        (ShardFailure, RuntimeError),
    ])
    def test_typed_errors_keep_their_builtin_base(self, cls, builtin):
        assert issubclass(cls, ReproError)
        assert issubclass(cls, builtin)

    def test_refusals_cross_process_boundaries(self):
        error = IncompatibleArtifactError("store", "rd", 2, 0, hint="h")
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.field, copy.stored, copy.wanted) == ("rd", 2, 0)
        assert str(copy) == str(error)


def _refuse(calls=None):
    if calls is not None:
        calls.append(1)
    raise IncompatibleArtifactError("shard store", "capture_mode", "fast",
                                    "exact")


class TestShardRefusals:
    """A refusal fails identically on every attempt: no retry, no
    ShardFailure — it reaches the caller (and the CLI's exit 2) as is."""

    def test_inline_refusal_is_not_retried(self):
        calls: list[int] = []
        executor = ShardExecutor(workers=1, policy=RetryPolicy(backoff=0.0))
        executor.submit(0, _refuse, calls)
        with pytest.raises(IncompatibleArtifactError):
            executor.result(0)
        assert calls == [1]

    def test_pool_refusal_arrives_typed(self):
        executor = ShardExecutor(workers=2, policy=RetryPolicy(backoff=0.0))
        try:
            executor.submit(0, _refuse)
            with pytest.raises(IncompatibleArtifactError) as refused:
                executor.result(0)
        finally:
            executor.close(force=True)
        assert refused.value.field == "capture_mode"
        assert executor.retries == {}


def _load_locator(path):
    from repro.config import default_config
    from repro.core.locator import CryptoLocator

    CryptoLocator(default_config("aes", 1 / 8192), seed=1).load(path)


def _load_nn_state(path):
    from repro.nn import Linear, load_state

    load_state(Linear(2, 2), path)


def _checkpoint_loader(name):
    def load(path):
        from repro.attacks.distinguishers import CpaDistinguisher
        from repro.evaluation import (
            GuessingEntropyAccumulator,
            WelchTAccumulator,
        )
        from repro.profiled import ClassStats

        kinds = {"welch": WelchTAccumulator, "ge": GuessingEntropyAccumulator,
                 "class_stats": ClassStats, "distinguisher": CpaDistinguisher}
        kinds[name].load(path)
    return load


def _profile_loader(kind):
    def load(path):
        from repro.profiled.profile import GaussianTemplateProfile, NnProfile

        profile = GaussianTemplateProfile if kind == "template" else NnProfile
        profile.load(path.parent, {})
    return load


#: (file name, loader) of every ``.npz`` artifact kind.
_NPZ_KINDS = {
    "locator": ("locator.npz", _load_locator),
    "nn-state": ("state.npz", _load_nn_state),
    "welch-t": ("welch.npz", _checkpoint_loader("welch")),
    "ge-curve": ("ge.npz", _checkpoint_loader("ge")),
    "class-stats": ("stats.npz", _checkpoint_loader("class_stats")),
    "distinguisher": ("cpa.npz", _checkpoint_loader("distinguisher")),
    "template-profile": ("templates.npz", _profile_loader("template")),
    "nn-profile": ("scaling.npz", _profile_loader("nn")),
}


def _junk(path):
    path.write_text("junk\n")


def _truncated(path):
    np.savez(path, values=np.arange(4096.0))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestUnreadableArchives:
    @pytest.mark.parametrize("damage", [_junk, _truncated],
                             ids=["junk", "truncated"])
    @pytest.mark.parametrize("kind", sorted(_NPZ_KINDS))
    def test_every_npz_kind_refuses_an_unreadable_file(
        self, tmp_path, kind, damage
    ):
        name, load = _NPZ_KINDS[kind]
        damage(tmp_path / name)
        with pytest.raises(CorruptArtifactError, match=name):
            load(tmp_path / name)

    def test_a_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_npz(tmp_path / "missing.npz")

    def test_a_plain_npy_is_not_an_archive(self, tmp_path):
        np.save(tmp_path / "plain.npy", np.zeros(3))
        with pytest.raises(CorruptArtifactError, match="not an archive"):
            load_npz(tmp_path / "plain.npy")

"""The typed error family and the one artifact-compatibility check."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    CorruptManifestError,
    IncompatibleArtifactError,
    ReproError,
    ShardFailure,
    UsageError,
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

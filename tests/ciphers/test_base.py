"""LeakageRecorder / registry behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ciphers import (
    LeakageRecorder,
    available_ciphers,
    get_cipher,
)
from repro.ciphers.base import OpKind


class TestLeakageRecorder:
    def test_record_appends(self):
        rec = LeakageRecorder()
        rec.record(0xAB, width=8, kind=OpKind.LOAD)
        rec.record(0xFFFF, width=16)
        assert len(rec) == 2
        assert rec.values == [0xAB, 0xFFFF]
        assert rec.widths == [8, 16]
        assert rec.kinds == [int(OpKind.LOAD), int(OpKind.ALU)]

    def test_record_many(self):
        rec = LeakageRecorder()
        rec.record_many([1, 2, 3], width=32, kind=OpKind.MUL)
        assert rec.values == [1, 2, 3]
        assert rec.kinds == [int(OpKind.MUL)] * 3

    def test_record_nops(self):
        rec = LeakageRecorder()
        rec.record_nops(5)
        assert rec.values == [0] * 5
        assert rec.kinds == [int(OpKind.NOP)] * 5
        assert rec.widths == [LeakageRecorder.NOP_WIDTH] * 5

    def test_as_arrays_dtypes(self):
        rec = LeakageRecorder()
        rec.record(2**40, width=64)
        values, widths, kinds = rec.as_arrays()
        assert values.dtype == np.uint64
        assert widths.dtype == np.uint8
        assert kinds.dtype == np.uint8
        assert values[0] == 2**40

    def test_clear(self):
        rec = LeakageRecorder()
        rec.record_many(range(10))
        rec.clear()
        assert len(rec) == 0


class TestRegistry:
    def test_available_ciphers_complete(self):
        assert set(available_ciphers()) == {"aes", "aes_masked", "clefia", "camellia", "simon"}

    def test_get_cipher_instantiates_each(self):
        for name in available_ciphers():
            cipher = get_cipher(name)
            assert cipher.name == name
            assert cipher.block_size == 16

    def test_unknown_cipher_raises_with_names(self):
        with pytest.raises(KeyError, match="aes"):
            get_cipher("des")

    def test_decrypt_default_raises(self):
        from repro.ciphers.base import TraceableCipher

        class Stub(TraceableCipher):
            name = "stub"

            def encrypt(self, plaintext, key, recorder=None):
                return plaintext

            def encrypt_batch(self, plaintexts, keys, recorder=None):
                return plaintexts

        with pytest.raises(NotImplementedError):
            Stub().decrypt(bytes(16), bytes(16))

    def test_encrypt_batch_is_required(self):
        """There is no scalar-loop batch fallback to inherit."""
        from repro.ciphers.base import TraceableCipher

        class ScalarOnly(TraceableCipher):
            name = "scalar_only"

            def encrypt(self, plaintext, key, recorder=None):
                return plaintext

        with pytest.raises(TypeError, match="encrypt_batch"):
            ScalarOnly()

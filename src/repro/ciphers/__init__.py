"""Instrumented software cipher implementations.

Every cipher in this subpackage is a pure-Python implementation of the round
structure the paper runs on its RISC-V SoC, instrumented with a
:class:`~repro.ciphers.base.LeakageRecorder` hook: each architecturally
visible intermediate value the software computes is reported to the recorder,
and the SoC power model (:mod:`repro.soc`) turns that operation stream into a
power trace.

Fidelity notes
--------------
* **AES-128** (:mod:`repro.ciphers.aes`) is bit-exact per FIPS-197 (S-box
  derived algebraically from GF(2^8) inversion).
* **Masked AES-128** (:mod:`repro.ciphers.masked_aes`) is a first-order
  boolean-masked Tiny-AES-style implementation, functionally equivalent to
  AES-128.
* **Camellia-128** (:mod:`repro.ciphers.camellia`) is bit-exact per RFC 3713
  (S-box table recovered from a system crypto library and validated against
  the official test vector).
* **Simon-128/128** (:mod:`repro.ciphers.simon`) is bit-exact per the NSA
  specification (z2 constant sequence, official test vector).
* **Clefia-128** (:mod:`repro.ciphers.clefia`) is structurally faithful to
  RFC 6114 (4-branch GFN, 18 rounds, the official M0/M1 diffusion matrices)
  but uses locally generated S-box and round-constant tables because the
  official tables are not available offline; correctness is established via
  encrypt/decrypt round-trip and structural tests.  The locating experiments
  only depend on the power-trace *shape*, which the structure preserves.
"""

from repro.ciphers.base import (
    BatchLeakageRecorder,
    LeakageRecorder,
    TraceableCipher,
)
from repro.ciphers.aes import AES128
from repro.ciphers.masked_aes import MaskedAES128
from repro.ciphers.camellia import Camellia128
from repro.ciphers.clefia import Clefia128
from repro.ciphers.simon import Simon128
from repro.ciphers.registry import available_ciphers, get_cipher

__all__ = [
    "BatchLeakageRecorder",
    "LeakageRecorder",
    "TraceableCipher",
    "AES128",
    "MaskedAES128",
    "Camellia128",
    "Clefia128",
    "Simon128",
    "available_ciphers",
    "get_cipher",
]

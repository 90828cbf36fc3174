"""Former home of the batch CPA; first-order CPA is now a distinguisher.

:class:`~repro.attacks.distinguishers.CpaDistinguisher` is the one CPA
implementation: its ``batch()`` face is the one-shot attack, and
:func:`~repro.attacks.key_rank.full_key_ranks` /
:func:`~repro.attacks.key_rank.traces_to_rank1` run on it.  This module
path remains only because the end-to-end benchmark's probe table
(``perfbench/probes.py``) wraps ``repro.attacks.cpa.prepare_segments``;
delete the module together with that probe.
"""

from repro.signalproc import prepare_segments  # noqa: F401  (probed name)

__all__: list[str] = []

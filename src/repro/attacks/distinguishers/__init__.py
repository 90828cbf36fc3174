"""Pluggable distinguishers: one statistics core, many attack statistics.

Every distinguisher shares the sufficient-statistics base of
:mod:`repro.attacks.distinguishers.base` and therefore offers the same
three faces — ``batch`` / online ``update`` / exact ``merge`` — with
batch == online == merged to floating-point noise:

========  ==================================================  ==============
name      statistic                                           breaks
========  ==================================================  ==============
``cpa``   first-order Pearson correlation, pluggable           unmasked
          :mod:`leakage model <repro.attacks.leakage_models>`  targets
``dpa``   difference-of-means on a selection bit               unmasked
                                                               targets
``cpa2``  second-order centred-product CPA over two sample     first-order
          windows                                              boolean
                                                               masking
``lra``   linear-regression analysis with a configurable       unmasked
          basis (no leakage-model assumption)                  targets
``template``  Gaussian-template log-likelihood over a saved    per profile
          profile directory (``repro profile``)                (masking with
                                                               per-class
                                                               covariance)
``nnp``   NN-profiled log-likelihood over a saved profile      per profile
          directory
========  ==================================================  ==============

Campaigns configure distinguishers through the picklable
:class:`DistinguisherSpec` (process-pool workers rebuild their accumulator
from it); interactive code can call :func:`get_distinguisher` directly.
The two profiled distinguishers are registered **lazily** (they live in
:mod:`repro.profiled`, which imports this package's base module), so
importing the registry stays cycle-free and cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.attacks.distinguishers.base import (
    Distinguisher,
    SufficientStatisticDistinguisher,
)
from repro.attacks.distinguishers.class_conditional import (
    ClassConditionalDistinguisher,
)
from repro.attacks.distinguishers.cpa import CpaDistinguisher
from repro.attacks.distinguishers.dpa import DpaDistinguisher
from repro.attacks.distinguishers.lra import (
    LinearRegressionAnalysis,
    available_lra_bases,
    lra_basis,
)
from repro.attacks.distinguishers.second_order import (
    SecondOrderCpa,
    masked_aes_windows,
)

__all__ = [
    "Distinguisher",
    "SufficientStatisticDistinguisher",
    "ClassConditionalDistinguisher",
    "CpaDistinguisher",
    "DpaDistinguisher",
    "SecondOrderCpa",
    "LinearRegressionAnalysis",
    "DistinguisherSpec",
    "available_distinguishers",
    "available_lra_bases",
    "get_distinguisher",
    "lra_basis",
    "masked_aes_windows",
    "resolve_distinguisher",
]

_REGISTRY: dict[str, type] = {
    "cpa": CpaDistinguisher,
    "dpa": DpaDistinguisher,
    "cpa2": SecondOrderCpa,
    "lra": LinearRegressionAnalysis,
}

#: Distinguishers resolved on first use — their modules import this
#: package's submodules, so eager registration would be a cycle.
_LAZY_REGISTRY: dict[str, tuple[str, str]] = {
    "template": ("repro.profiled.distinguishers", "TemplateDistinguisher"),
    "nnp": ("repro.profiled.distinguishers", "NnProfiledDistinguisher"),
}


def available_distinguishers() -> tuple[str, ...]:
    """The registered distinguisher names, sorted."""
    return tuple(sorted(set(_REGISTRY) | set(_LAZY_REGISTRY)))


def _check_name(name: str) -> None:
    if name not in _REGISTRY and name not in _LAZY_REGISTRY:
        raise ValueError(
            f"unknown distinguisher {name!r}; available: "
            f"{', '.join(available_distinguishers())}"
        )


def _registry_class(name: str) -> type:
    _check_name(name)
    cls = _REGISTRY.get(name)
    if cls is None:
        module_name, attr = _LAZY_REGISTRY[name]
        cls = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[name] = cls
    return cls


def get_distinguisher(name: str, **kwargs) -> Distinguisher:
    """Build a fresh distinguisher by registry name.

    Raises ``ValueError`` listing the valid names for unknown ones;
    keyword arguments go to the distinguisher's constructor.
    """
    return _registry_class(name)(**kwargs)


@dataclass(frozen=True)
class DistinguisherSpec:
    """A picklable recipe for building one distinguisher configuration.

    Campaign orchestrators carry this instead of a live accumulator so
    process-pool workers (and resumed campaigns) can rebuild identical,
    empty accumulators with :meth:`build`.

    ``leakage_model=None`` uses the distinguisher's default model
    (``hw`` for cpa, ``msb`` for dpa, ``hd`` for cpa2); ``window1`` /
    ``window2`` configure ``cpa2``'s sample pair, ``basis`` configures
    ``lra``'s regression family, and ``profile`` points the profiled
    distinguishers (``template`` / ``nnp``) at their saved profile
    directory — a plain path, so the spec stays picklable and pool
    workers load the profile themselves.
    """

    name: str = "cpa"
    leakage_model: str | None = None
    aggregate: int = 1
    window1: tuple[int, int] | None = None
    window2: tuple[int, int] | None = None
    basis: str = "bits"
    profile: str | None = None

    def build(self) -> Distinguisher:
        """A fresh, empty accumulator of this configuration."""
        _check_name(self.name)
        if self.name in _LAZY_REGISTRY:
            if self.profile is None:
                raise ValueError(
                    f"{self.name} needs a saved profile directory "
                    f"(`repro profile` creates one; pass profile=DIR)"
                )
            if self.leakage_model is not None:
                raise ValueError(
                    f"{self.name} takes its leakage model from the profile "
                    f"manifest; leave leakage_model unset"
                )
            return _registry_class(self.name)(
                str(self.profile), aggregate=self.aggregate
            )
        if self.name == "cpa":
            return CpaDistinguisher(
                model=self.leakage_model or "hw", aggregate=self.aggregate
            )
        if self.name == "dpa":
            return DpaDistinguisher(
                model=self.leakage_model or "msb", aggregate=self.aggregate
            )
        if self.name == "cpa2":
            if self.window1 is None or self.window2 is None:
                raise ValueError(
                    "cpa2 needs window1 and window2 sample ranges (see "
                    "masked_aes_windows() for the aes_masked defaults)"
                )
            return SecondOrderCpa(
                self.window1,
                self.window2,
                model=self.leakage_model or "hd",
                aggregate=self.aggregate,
            )
        if self.leakage_model is not None:
            raise ValueError(
                "lra fits its own leakage function; configure `basis` "
                "instead of a leakage model"
            )
        return LinearRegressionAnalysis(
            basis=self.basis, aggregate=self.aggregate
        )


def resolve_distinguisher(
    distinguisher, aggregate: int = 1
) -> tuple[DistinguisherSpec | None, Distinguisher]:
    """Coerce a campaign's ``distinguisher`` argument into an accumulator.

    Accepts ``None`` (the default first-order HW CPA with the given
    ``aggregate``), a registry name, a :class:`DistinguisherSpec`
    or a ready-built (empty) accumulator.  Returns ``(spec, accumulator)``
    — ``spec`` is ``None`` only for a pre-built instance, which cannot be
    shipped to pool workers.
    """
    if distinguisher is None:
        spec = DistinguisherSpec(aggregate=aggregate)
    elif isinstance(distinguisher, str):
        spec = DistinguisherSpec(name=distinguisher, aggregate=aggregate)
    elif isinstance(distinguisher, DistinguisherSpec):
        spec = distinguisher
    else:
        if distinguisher.n_traces:
            raise ValueError(
                "a pre-built distinguisher must be empty — campaigns replay "
                "their stores into it"
            )
        return None, distinguisher
    return spec, spec.build()

"""Runtime layer: scenario plans and the batched experiment engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PipelineConfig, default_config
from repro.evaluation.experiments import train_locator
from repro.runtime import BatchPlan, ExperimentEngine, ScenarioSpec
from repro.runtime.engine import ScenarioResult


class TestScenarioSpec:
    def test_condition_groups_interleaving_variants(self):
        noise = ScenarioSpec(cipher="aes", max_delay=4, noise_interleaved=True)
        consecutive = ScenarioSpec(cipher="aes", max_delay=4,
                                   noise_interleaved=False)
        assert noise.condition == consecutive.condition

    def test_describe_mentions_all_axes(self):
        spec = ScenarioSpec(cipher="simon", max_delay=2,
                            noise_interleaved=False, n_cos=7, noise_std=2.0)
        label = spec.describe()
        assert "simon" in label and "RD-2" in label
        assert "consecutive" in label and "sigma=2" in label


class TestBatchPlan:
    def test_sweep_cross_product(self):
        plan = BatchPlan.sweep(
            ciphers=("aes", "camellia"), max_delays=(2, 4),
            interleaving=(True, False), noise_stds=(1.0, 0.5),
        )
        assert len(plan) == 16
        assert len(plan.conditions()) == 8
        assert len({spec.seed for spec in plan}) == 16  # unique seeds

    def test_grouped_preserves_plan_order(self):
        plan = BatchPlan.sweep(ciphers=("aes",), max_delays=(4, 2))
        conditions = plan.conditions()
        assert conditions[0] == ("aes", 4, 1.0)
        assert conditions[1] == ("aes", 2, 1.0)
        for _, specs in plan.grouped():
            assert [s.noise_interleaved for s in specs] == [True, False]

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            BatchPlan(batch_size=0)
        assert BatchPlan().with_batch_size(7).batch_size == 7


class _StubLocator:
    """Duck-typed locator: finds nothing, records what it was asked."""

    def __init__(self):
        self.config = default_config("aes", dataset_scale=1 / 64)
        self.calls: list[tuple[int, int | None]] = []

    def locate_many(self, traces, method="windowed", batch_size=None):
        self.calls.append((len(traces), batch_size))
        return [np.zeros(0, dtype=np.int64) for _ in traces]


class TestExperimentEngine:
    def test_run_with_injected_locator(self):
        stub = _StubLocator()
        engine = ExperimentEngine(locator_provider=lambda *_: stub)
        plan = BatchPlan.sweep(
            ciphers=("camellia",), max_delays=(2,), n_cos=2,
            base_seed=50, batch_size=2,
        )
        results = engine.run(plan)
        assert len(results) == len(plan) == 2
        # One batched locate pass covered both scenarios of the condition.
        assert stub.calls == [(2, 2)]
        for result, spec in zip(results, plan):
            assert isinstance(result, ScenarioResult)
            assert result.spec == spec
            assert result.stats.hit_rate == 0.0
            assert result.session.true_starts.size == 2
            assert result.cpa_traces is None
            assert len(result.row()) == len(ScenarioResult.header())

    def test_locator_cached_per_condition(self):
        built = []

        def provider(cipher, max_delay, noise_std):
            built.append((cipher, max_delay, noise_std))
            return _StubLocator()

        engine = ExperimentEngine(locator_provider=provider)
        plan = BatchPlan.sweep(ciphers=("camellia",), max_delays=(2,),
                               n_cos=2, base_seed=60)
        engine.run(plan)
        engine.run(plan)
        assert built == [("camellia", 2, 1.0)]

    def test_platform_for_honours_noise_std(self):
        engine = ExperimentEngine(locator_provider=lambda *_: _StubLocator())
        spec = ScenarioSpec(cipher="aes", max_delay=2, noise_std=0.25, seed=9)
        platform = engine.platform_for(spec)
        assert platform.oscilloscope.noise_std == 0.25
        assert platform.countermeasure.max_delay == 2


#: A locator small enough to train in about a second.
_TINY = PipelineConfig(
    cipher="camellia", n_train=128, n_inf=112, stride=16, kernel_size=17,
    n_start_windows=48, n_rest_windows=48, n_noise_windows=32, epochs=2,
    start_augmentation=4,
)


def _assert_same_network(a, b):
    wa, wb = a.cnn.network.state_dict(), b.cnn.network.state_dict()
    assert wa.keys() == wb.keys()
    for name in wa:
        np.testing.assert_array_equal(wa[name], wb[name])


class TestDefaultTraining:
    """Without a provider the engine fits one locator per condition on a
    clone platform.  Training captures full traces, which are the same
    stream in both capture modes, so the mode cannot move a locator."""

    @staticmethod
    def _locator(capture_mode, noise_std):
        engine = ExperimentEngine(
            seed=0, config_overrides={"camellia": _TINY},
            capture_mode=capture_mode,
        )
        return engine.locator_for("camellia", 0, noise_std)

    @pytest.mark.parametrize("noise_std", [1.0, 2.0])
    def test_capture_mode_does_not_move_the_locator(self, noise_std):
        _assert_same_network(self._locator("fast", noise_std),
                             self._locator("exact", noise_std))

    def test_default_noise_matches_train_locator(self):
        reference, _ = train_locator("camellia", max_delay=0, seed=0,
                                     config=_TINY)
        _assert_same_network(self._locator("exact", 1.0), reference)

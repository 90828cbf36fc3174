"""Second-order CPA vs the masked-AES platform target.

The attack the distinguisher framework exists to enable: the shipped
``aes_masked`` cipher defeats every first-order statistic at any budget,
and the second-order centred-product CPA — combining the AddRoundKey-0
window with the round-1 SubBytes window, both masked by the same
``m_out`` — recovers the full key.
"""

from __future__ import annotations

import pytest

from repro.attacks.distinguishers import (
    CpaDistinguisher,
    DistinguisherSpec,
    SecondOrderCpa,
    masked_aes_windows,
)
from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
from repro.soc.platform import SimulatedPlatform

WINDOW1, WINDOW2 = masked_aes_windows()
SEGMENT_LENGTH = WINDOW2[1] + 16


@pytest.fixture(scope="module")
def masked_capture():
    """1.5k fixed-key masked-AES segments (RD-0, shared across tests)."""
    platform = SimulatedPlatform("aes_masked", max_delay=0, seed=41)
    key = platform.random_key()
    traces, pts = platform.capture_attack_segments(
        1500, key=key, segment_length=SEGMENT_LENGTH
    )
    return key, traces, pts


class TestSecondOrderOnPlatform:
    def test_recovers_full_masked_key(self, masked_capture):
        key, traces, pts = masked_capture
        acc = SecondOrderCpa(WINDOW1, WINDOW2)
        acc.update(traces, pts)
        assert acc.recovered_key() == key
        assert acc.key_ranks(key) == [1] * 16

    def test_first_order_cpa_fails_at_same_budget(self, masked_capture):
        """No current first-order attack touches the masked target."""
        key, traces, pts = masked_capture
        recovered = CpaDistinguisher().batch(traces, pts).recovered_key()
        correct = sum(a == b for a, b in zip(recovered, key))
        assert correct <= 2   # chance level, nowhere near recovery


@pytest.mark.slow
class TestMaskedCampaignConvergence:
    """Budget-matched first- vs second-order comparison on the platform."""

    BUDGET = 4000

    def _source(self, seed):
        platform = SimulatedPlatform("aes_masked", max_delay=0, seed=seed)
        return PlatformSegmentSource(platform, segment_length=SEGMENT_LENGTH)

    def test_second_order_reaches_rank1_first_order_does_not(self):
        spec = DistinguisherSpec(name="cpa2", window1=WINDOW1, window2=WINDOW2)
        second = AttackCampaign(
            self._source(97), first_checkpoint=500, checkpoint_growth=1.5,
            rank1_patience=1, distinguisher=spec,
        ).run(self.BUDGET)
        assert second.traces_to_rank1 is not None
        assert second.key_recovered

        first = AttackCampaign(
            self._source(97), first_checkpoint=500, checkpoint_growth=1.5,
            rank1_patience=1,
        ).run(self.BUDGET)
        assert first.traces_to_rank1 is None
        assert not first.key_recovered
        assert all(record.max_rank > 1 for record in first.records)

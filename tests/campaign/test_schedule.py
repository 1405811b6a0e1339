"""CampaignSchedule construction, validation, and seeded sampling."""

import numpy as np
import pytest

from repro.campaign import CampaignSchedule, Join, Leave, Rejoin
from repro.campaign.runner import CAMPAIGN_PROFILES
from repro.campaign.schedule import STORM_PERIOD, sample_campaign_schedule
from repro.chaos import PROFILES


class TestValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least one round"):
            CampaignSchedule(rounds=0, initial_members=(0, 1))

    def test_rejects_empty_membership(self):
        with pytest.raises(ValueError, match="initial member"):
            CampaignSchedule(rounds=3, initial_members=())

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSchedule(rounds=3, initial_members=(0, 0, 1))

    def test_rejects_leave_of_absent_peer(self):
        with pytest.raises(ValueError, match="not present"):
            CampaignSchedule(
                rounds=3, initial_members=(0, 1), churn=(Leave(1, 7),)
            )

    def test_rejects_double_leave(self):
        with pytest.raises(ValueError, match="not present"):
            CampaignSchedule(
                rounds=4, initial_members=(0, 1, 2),
                churn=(Leave(1, 0), Leave(2, 0)),
            )

    def test_rejects_rejoin_without_leave(self):
        with pytest.raises(ValueError, match="never left"):
            CampaignSchedule(
                rounds=3, initial_members=(0, 1), churn=(Rejoin(1, 0),)
            )

    def test_rejects_join_reusing_live_id(self):
        with pytest.raises(ValueError, match="already used"):
            CampaignSchedule(
                rounds=3, initial_members=(0, 1), churn=(Join(1, 1),)
            )

    def test_rejects_join_reusing_departed_id(self):
        # A departed peer's id belongs to it (it may Rejoin); a fresh
        # Join with that id would fork the identity.
        with pytest.raises(ValueError, match="already used"):
            CampaignSchedule(
                rounds=4, initial_members=(0, 1, 2),
                churn=(Leave(1, 2), Join(2, 2)),
            )

    def test_rejects_churn_outside_rounds(self):
        with pytest.raises(ValueError, match="outside"):
            CampaignSchedule(
                rounds=3, initial_members=(0, 1), churn=(Leave(5, 0),)
            )

    def test_leave_then_rejoin_is_legal(self):
        s = CampaignSchedule(
            rounds=5, initial_members=(0, 1, 2),
            churn=(Leave(1, 2), Rejoin(3, 2)),
        )
        assert s.members_entering(0) == (0, 1, 2)
        assert s.members_entering(1) == (0, 1)
        assert s.members_entering(2) == (0, 1)
        assert s.members_entering(3) == (0, 1, 2)


class TestViews:
    def _schedule(self):
        return CampaignSchedule(
            rounds=6, initial_members=(0, 1, 2, 3),
            churn=(Leave(2, 3), Join(2, 4), Join(4, 5)),
        )

    def test_churn_at_boundary(self):
        s = self._schedule()
        assert s.churn_at(0) == ()
        assert {type(e).__name__ for e in s.churn_at(2)} == {"Join", "Leave"}
        assert s.churn_at(4) == (Join(4, 5),)

    def test_members_entering_applies_prefix(self):
        s = self._schedule()
        assert s.members_entering(1) == (0, 1, 2, 3)
        assert s.members_entering(2) == (0, 1, 2, 4)
        assert s.members_entering(5) == (0, 1, 2, 4, 5)

    def test_members_entering_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            self._schedule().members_entering(6)

    def test_quiesced(self):
        s = self._schedule()
        assert s.quiesced(1)
        assert not s.quiesced(2)
        assert s.quiesced(5)

    def test_describe_counts(self):
        text = self._schedule().describe()
        assert "2 join(s)" in text
        assert "1 leave(s)" in text


class TestSampling:
    def test_same_rng_state_same_schedule(self):
        p = CAMPAIGN_PROFILES["mixed"]
        a = sample_campaign_schedule(
            np.random.default_rng(7), p, 10, range(12)
        )
        b = sample_campaign_schedule(
            np.random.default_rng(7), p, 10, range(12)
        )
        assert a == b

    def test_churn_only_on_storm_boundaries(self):
        p = CAMPAIGN_PROFILES["mixed"]
        s = sample_campaign_schedule(np.random.default_rng(3), p, 12, range(12))
        assert s.churn
        assert all(e.round % STORM_PERIOD == 0 and e.round > 0 for e in s.churn)

    def test_min_alive_floor_respected(self):
        # An aggressive leave rate cannot empty the campaign.
        from dataclasses import replace

        p = replace(PROFILES["mixed"], leave_rate=1.0, join_rate=0.0,
                    rejoin_prob=0.0)
        s = sample_campaign_schedule(
            np.random.default_rng(5), p, 10, range(8), min_alive=3
        )
        for r in range(10):
            assert len(s.members_entering(r)) >= 3

    def test_zero_churn_profile_samples_empty(self):
        s = sample_campaign_schedule(
            np.random.default_rng(1), PROFILES["mixed"], 8, range(10)
        )
        assert s.churn == ()  # base profiles carry no churn rates

    def test_campaign_profiles_do_not_mutate_chaos_profiles(self):
        assert PROFILES["mixed"].leave_rate == 0.0
        assert CAMPAIGN_PROFILES["mixed"].leave_rate > 0.0
        assert set(CAMPAIGN_PROFILES) == set(PROFILES)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

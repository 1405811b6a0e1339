"""Unit tests for the dynamic re-sharding planner."""

import pytest

from repro.core.resharding import (
    BALANCE_BOUND,
    Move,
    ReshardError,
    dense_topology,
    needs_reshard,
    plan_reshard,
)


class TestNeedsReshard:
    def test_acceptable_grouping_returns_none(self):
        assert needs_reshard(((0, 1, 2), (3, 4, 5)), k=3) is None

    def test_empty_grouping_triggers(self):
        assert needs_reshard((), k=2) == "no groups"

    def test_group_below_floor_triggers(self):
        why = needs_reshard(((0, 1), (2, 3, 4)), k=3)
        assert why is not None and "floor" in why

    def test_skew_beyond_balance_bound_triggers(self):
        why = needs_reshard(((0, 1, 2), (3, 4, 5, 6, 7, 8)), k=3)
        assert why is not None and "unbalanced" in why

    def test_skew_within_balance_bound_is_fine(self):
        assert BALANCE_BOUND == 2
        assert needs_reshard(((0, 1, 2), (3, 4, 5, 6, 7)), k=3) is None
        assert needs_reshard(((0, 1, 2), (3, 4, 5, 6)), k=3) is None


class TestDenseTopology:
    def test_maps_stable_ids_to_sorted_rank(self):
        topo = dense_topology(((40, 10), (30, 20)))
        # sorted members = [10, 20, 30, 40] -> ranks 0..3
        assert topo.groups == ((0, 3), (1, 2))
        # Lowest stable id in each group leads.
        assert topo.leaders == (0, 1)

    def test_contiguous_ids(self):
        topo = dense_topology(((7, 100, 3), (55,)))
        assert sorted(pid for g in topo.groups for pid in g) == [0, 1, 2, 3]


class TestPlanReshard:
    def test_raises_below_floor(self):
        with pytest.raises(ReshardError, match="k-of-n floor"):
            plan_reshard(((0, 1),), k=3)

    def test_raises_when_everyone_left(self):
        with pytest.raises(ReshardError):
            plan_reshard((), k=2)

    def test_repairs_under_k_group(self):
        plan = plan_reshard(((0, 1), (2, 3, 4), (5, 6, 7)), k=3)
        assert min(plan.topology.group_sizes) >= 3
        assert sorted(p for g in plan.groups for p in g) == list(range(8))

    def test_minimal_moves_when_already_balanced(self):
        # A grouping that is already the cost-optimal shape: the planner
        # keeps every matched core in place, so no moves are emitted.
        groups = ((0, 1, 2), (3, 4, 5))
        plan = plan_reshard(groups, k=3, reason="requested")
        if plan.topology.group_sizes == (3, 3):
            assert plan.moves == ()

    def test_moves_record_source_and_destination(self):
        plan = plan_reshard(((0, 1, 2, 3, 4, 5, 6), (7, 8)), k=3)
        for move in plan.moves:
            assert isinstance(move, Move)
            assert move.peer in plan.groups[move.to_group]
        moved = {m.peer for m in plan.moves}
        assert moved, "rebalancing a 7/2 split requires moves"

    def test_reason_defaults_to_trigger(self):
        plan = plan_reshard(((0, 1), (2, 3, 4)), k=3)
        assert "floor" in plan.reason
        forced = plan_reshard(((0, 1, 2), (3, 4, 5)), k=3, reason="drill")
        assert forced.reason == "drill"

    def test_cost_fields_and_delta(self):
        plan = plan_reshard(((0, 1, 2), (3, 4, 5, 6, 7, 8)), k=3)
        assert plan.predicted_cost_bits > 0
        # The old grouping was feasible (all groups >= k), so the delta
        # is defined.
        assert plan.previous_cost_bits is not None
        assert plan.cost_delta_bits == (
            plan.predicted_cost_bits - plan.previous_cost_bits
        )

    def test_infeasible_previous_grouping_has_no_delta(self):
        plan = plan_reshard(((0,), (1, 2, 3, 4)), k=3)
        assert plan.previous_cost_bits is None
        assert plan.cost_delta_bits is None
        assert "infeasible" in plan.describe()

    def test_describe_mentions_reason_and_shape(self):
        plan = plan_reshard(((0, 1), (2, 3, 4)), k=3)
        text = plan.describe()
        assert "reshard[" in text
        assert "move(s)" in text

    def test_group_count_shrink_conserves_members(self):
        # Three tiny groups must collapse into fewer groups; the members
        # of dissolved groups may not be lost.
        plan = plan_reshard(((0, 1), (2, 3), (4, 5)), k=3)
        assert sorted(p for g in plan.groups for p in g) == list(range(6))
        assert min(plan.topology.group_sizes) >= 3


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

"""Tests for the deduction engine, its rules and the work budget."""

import pytest

from repro.deduction import (
    BudgetExhausted,
    ChooseCombination,
    Contradiction,
    DeductionProcess,
    DiscardCombination,
    ForbidCycle,
    FuseVCs,
    MarkVCsIncompatible,
    PinVCs,
    ScheduleInCycle,
    SchedulingState,
    SetExitDeadlines,
    WorkBudget,
)
from repro.deduction.consequence import CycleFixed
from repro.deduction.rules import default_rules
from repro.deduction.rules.bounds import ComponentPropagation
from repro.machine import example_2cluster, paper_4c_16i_2lat
from repro.sgraph import SchedulingGraph
from repro.workloads import paper_figure1_block



def fresh_state(block=None, machine=None):
    block = block or paper_figure1_block()
    machine = machine or example_2cluster()
    return block, machine, SchedulingState(block, machine, SchedulingGraph(block, machine))


class TestWorkBudget:
    def test_unlimited_budget_never_raises(self):
        budget = WorkBudget(None)
        for _ in range(1000):
            budget.charge()
        assert budget.remaining is None
        assert not budget.exhausted()

    def test_budget_exhaustion(self):
        budget = WorkBudget(5)
        for _ in range(5):
            budget.charge()
        assert budget.exhausted()
        with pytest.raises(BudgetExhausted):
            budget.charge()

    def test_remaining(self):
        budget = WorkBudget(10)
        budget.charge(4)
        assert budget.remaining == 6


class TestEngineBasics:
    def test_apply_copies_by_default(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert result.ok
        assert result.state is not state
        assert state.lstart[0] == float("inf")  # original untouched

    def test_apply_in_place(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}), in_place=True)
        assert result.state is state

    def test_contradiction_reported_not_raised(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 4, 6: 6}))
        assert not result.ok
        assert isinstance(result.contradiction, str)

    def test_work_and_consequences_counted(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert result.work > 0
        assert len(result.consequences) > 0

    def test_budget_propagates(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        with pytest.raises(BudgetExhausted):
            dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}), budget=WorkBudget(3))

    def test_unknown_decision_type_rejected(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()

        class Bogus:
            pass

        with pytest.raises(TypeError):
            dp.apply(state, Bogus())

    def test_invocation_counter(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert dp.invocations == 2


class TestDecisionExpansion:
    def test_schedule_in_cycle(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7})).state
        result = dp.apply(base, ScheduleInCycle(0, 0))
        assert result.ok
        assert result.state.is_fixed(0)

    def test_forbid_cycle(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        result = dp.apply(base, ForbidCycle(0, base.estart[0]))
        assert result.ok
        assert result.state.estart[0] == base.estart[0] + 1

    def test_forbid_cycle_without_slack_contradicts(self):
        """At the tight AWCT target, pushing I0 off cycle 0 leaves no valid
        schedule: three 2-cycle operations would have to share cycle 3 on a
        machine with two integer units."""
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7})).state
        result = dp.apply(base, ForbidCycle(0, base.estart[0]))
        assert not result.ok

    def test_choose_and_discard_combination(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7})).state
        chosen = dp.apply(base, ChooseCombination(1, 2, 1))
        assert chosen.ok
        assert chosen.state.chosen_distance(1, 2) == 1
        discarded = dp.apply(base, DiscardCombination(1, 2, 1))
        assert discarded.ok
        assert 1 in discarded.state.discarded_distances(1, 2)

    def test_fuse_and_incompatible_decisions(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        fused = dp.apply(base, FuseVCs.single(1, 2))
        assert fused.ok and fused.state.same_vc(1, 2)
        split = dp.apply(base, MarkVCsIncompatible.single(1, 2))
        assert split.ok and split.state.vcg.are_incompatible(1, 2)

    def test_pin_decision(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, PinVCs(pins=((0, 1),)))
        assert result.ok
        assert result.state.vcg.pin_of(0) == 1


class TestRuleDeductions:
    def test_bound_propagation_forward_and_backward(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        s = result.state
        # Forward: successors of I0 cannot start before its latency.
        assert s.estart[5] >= s.estart[1] + 2
        # Backward: producers must leave room for their consumers.
        assert s.lstart[0] <= s.lstart[3] - 2

    def test_paper_example_b1_at_6_contradicts(self):
        """Section 5: with B0 at 4, B1 cannot be scheduled in cycle 6."""
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 4, 6: 6}))
        assert not result.ok

    def test_paper_example_forced_fusion(self):
        """Section 5 / Figure 9.c: with B0 at 4 and B1 at 7, I0, I3 and B0
        end up in the same virtual cluster because no communication fits."""
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 4, 6: 7}))
        assert result.ok
        s = result.state
        assert s.same_vc(0, 3)
        assert s.same_vc(3, 4)

    def test_must_overlap_forces_single_remaining_combination(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        # Fix I1 and I2 to the same cycle 3 (cycle 2 would leave no room for
        # a copy of v0, forcing both into I0's cluster); they must overlap,
        # only distance 0 remains, so the deduction must choose it and split
        # their virtual clusters.
        step = dp.apply(base, ScheduleInCycle(1, 3))
        assert step.ok
        step2 = dp.apply(step.state, ScheduleInCycle(2, 3))
        assert step2.ok
        assert step2.state.chosen_distance(1, 2) == 0
        assert step2.state.vcg.are_incompatible(1, 2)

    def test_same_cycle_infeasible_at_tight_target(self):
        """At the tight target the same two placements contradict: both
        consumers of v0 would have to share I0's cluster (no room for a
        copy), which a single integer unit per cluster cannot issue — the
        reasoning of the paper's Section 5 example."""
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7})).state
        step = dp.apply(base, ScheduleInCycle(1, 2))
        assert step.ok
        step2 = dp.apply(step.state, ScheduleInCycle(2, 2))
        assert not step2.ok

    def test_same_cycle_same_class_capacity_one_marks_incompatible(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7})).state
        step = dp.apply(base, ChooseCombination(1, 2, 0))
        assert step.ok
        assert step.state.vcg.are_incompatible(1, 2)

    def test_machine_wide_capacity_contradiction(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        one = dp.apply(base, ScheduleInCycle(1, 2)).state
        two = dp.apply(one, ScheduleInCycle(2, 2)).state
        third = dp.apply(two, ScheduleInCycle(3, 2))
        # Only two INT units exist machine-wide on the example machine.
        assert not third.ok

    def test_incompatibility_inserts_communication(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        result = dp.apply(base, MarkVCsIncompatible.single(0, 1))
        assert result.ok
        comms = result.state.comms.fully_linked()
        assert any(c.value == "v0" and c.consumer == 1 for c in comms)

    def test_rule1_no_room_for_copy_forces_fusion(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 4, 6: 7})).state
        # Already verified above that I0/I3/B0 are fused via rule 1.
        assert base.same_vc(0, 3)

    def test_fusing_incompatible_is_contradiction(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        split = dp.apply(base, MarkVCsIncompatible.single(1, 2)).state
        result = dp.apply(split, FuseVCs.single(1, 2))
        assert not result.ok

    def test_bus_contention_detected_on_non_pipelined_bus(self):
        block = paper_figure1_block()
        machine = paper_4c_16i_2lat()
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 8})).state
        # Force two values to need copies with overlapping, fully pinned
        # windows: the engine must refuse at least one of the attempts or
        # keep the bus conflict-free.
        first = dp.apply(base, MarkVCsIncompatible.single(0, 1))
        assert first.ok
        state1 = first.state
        comm_ids = state1.comm_ids
        assert comm_ids
        pin = dp.apply(state1, ScheduleInCycle(comm_ids[0], state1.estart[comm_ids[0]]))
        assert pin.ok

    def test_plc_created_for_common_consumer_of_incompatible_vcs(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        result = dp.apply(base, MarkVCsIncompatible.single(1, 2))
        assert result.ok
        # I1 and I2 share consumer I4 (op 5): a partially linked copy to it
        # must be anticipated.
        partial = result.state.comms.partially_linked()
        assert any(set(c.possible_consumers()) == {5} for c in partial)

    def test_plc_rules_can_be_disabled(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess(rules=default_rules(enable_plc=False))
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        result = dp.apply(base, MarkVCsIncompatible.single(1, 2))
        assert result.ok
        assert result.state.comms.partially_linked() == []

    def test_plc_promoted_on_fusion_rule6(self):
        block, machine, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        split = dp.apply(base, MarkVCsIncompatible.single(1, 2)).state
        fused = dp.apply(split, FuseVCs.single(1, 5))
        assert fused.ok
        # The alternative (1 -> 5) is now local, so the copy is assigned to
        # the other producer (rule 6): it becomes fully linked from I2.
        flcs = fused.state.comms.fully_linked()
        assert any(c.producer == 2 and c.consumer == 5 for c in flcs)


class TestComponentPropagation:
    """The rule skips components whose members already sit at the
    anchor's bounds plus their offsets; everything else still walks."""

    def _pinned(self, cycle_2):
        """Op 1 fixed at cycle 2 and op 2 at *cycle_2*, then linked into
        one rigid component at distance 1 behind the rule's back."""
        _, _, state = fresh_state()
        dp = DeductionProcess()
        base = dp.apply(state, SetExitDeadlines.from_mapping({4: 6, 6: 9})).state
        one = dp.apply(base, ScheduleInCycle(1, 2)).state
        both = dp.apply(one, ScheduleInCycle(2, cycle_2))
        assert both.ok and both.state.is_fixed(1) and both.state.is_fixed(2)
        both.state.components.link(1, 2, 1)
        return both.state

    def test_a_rigid_fixed_component_yields_nothing(self):
        state = self._pinned(3)
        assert ComponentPropagation().fire(state, CycleFixed(1, 2)) == []

    def test_a_contradictory_pin_inside_a_fixed_component_still_raises(self):
        state = self._pinned(4)
        with pytest.raises(Contradiction, match="lstart of 2 would become 3 < estart 4"):
            ComponentPropagation().fire(state, CycleFixed(1, 2))

"""Deduction-engine rule registration and work accounting.

Covers the engine's explicit rule-registration hooks (each invalidates
the type-keyed dispatch table), the per-rule-class work split (it sums to
the gated ``dp_work`` total) and block charging of the work budget (same
exhaustion point as unit-by-unit charges).
"""

import pytest

from repro.deduction import DeductionProcess, SchedulingState, WorkBudget
from repro.deduction.consequence import (
    BoundChange,
    CycleFixed,
    SetExitDeadlines,
)
from repro.deduction.engine import BudgetExhausted
from repro.deduction.rules import default_rules
from repro.deduction.rules.base import Rule
from repro.machine import example_2cluster, paper_2c_8i_1lat
from repro.scheduler import VirtualClusterScheduler
from repro.sgraph import SchedulingGraph
from repro.workloads import fir_kernel, paper_figure1_block


# --------------------------------------------------------------------------- #
# rule registration hooks
# --------------------------------------------------------------------------- #
class _CountingRule(Rule):
    triggers = (BoundChange, CycleFixed)

    def __init__(self):
        self.fired = 0

    def fire(self, state, change):
        self.fired += 1
        return []


def _bounded(block=None, machine=None):
    block = block or paper_figure1_block()
    machine = machine or example_2cluster()
    return block, SchedulingState(block, machine, SchedulingGraph(block, machine))


class TestRuleRegistration:
    def test_rules_view_is_immutable(self):
        dp = DeductionProcess()
        assert isinstance(dp.rules, tuple)
        with pytest.raises(AttributeError):
            dp.rules.append(_CountingRule())  # type: ignore[attr-defined]

    def test_add_rule_invalidates_dispatch(self):
        block, state = _bounded()
        dp = DeductionProcess()
        # Populate the dispatch table first.
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        extra = _CountingRule()
        dp.add_rule(extra)
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert extra.fired > 0
        assert extra in dp.rules

    def test_remove_rule_invalidates_dispatch(self):
        block, state = _bounded()
        extra = _CountingRule()
        dp = DeductionProcess(rules=default_rules() + [extra])
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        fired_before = extra.fired
        assert fired_before > 0
        dp.remove_rule(extra)
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert extra.fired == fired_before
        assert extra not in dp.rules

    def test_rules_assignment_uses_registration(self):
        block, state = _bounded()
        dp = DeductionProcess()
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        extra = _CountingRule()
        dp.rules = [extra]
        dp.apply(state.copy(), SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert dp.rules == (extra,)
        assert extra.fired > 0

    def test_work_by_rule_sums_to_total_work(self):
        block, state = _bounded()
        dp = DeductionProcess()
        result = dp.apply(state, SetExitDeadlines.from_mapping({4: 5, 6: 7}))
        assert result.work > 0
        assert sum(dp.work_by_rule.values()) == result.work
        assert all(
            name.endswith("Rule") or name.endswith("Propagation") for name in dp.work_by_rule
        )


# --------------------------------------------------------------------------- #
# work accounting
# --------------------------------------------------------------------------- #
class TestWorkAccounting:
    def test_rule_split_sums_to_dp_work(self):
        """The reported dp_rule_* split always sums to the gated dp_work
        total."""
        for block in (fir_kernel(taps=3), paper_figure1_block()):
            result = VirtualClusterScheduler().schedule(block, paper_2c_8i_1lat())
            assert result.ok
            split = {k: v for k, v in result.stats.items() if k.startswith("dp_rule_")}
            assert sum(split.values()) == result.work

    def test_charge_block_matches_unit_charges(self):
        limit = 10
        unit = WorkBudget(limit)
        block_budget = WorkBudget(limit)
        for _ in range(7):
            unit.charge()
        block_budget.charge_block(7)
        assert unit.spent == block_budget.spent == 7
        with pytest.raises(BudgetExhausted):
            for _ in range(7):
                unit.charge()
        with pytest.raises(BudgetExhausted):
            block_budget.charge_block(7)
        assert unit.spent == block_budget.spent == limit + 1

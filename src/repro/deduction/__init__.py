"""The Deduction Process (Section 3.3 of the paper).

The deduction process (DP) is the engine at the heart of the proposed
technique.  Every tentative decision — choosing or discarding a combination,
pinning an operation to a cycle, fusing virtual clusters or marking them
incompatible — is submitted to the DP, which derives all *mandatory*
consequences of the decision on a copy of the scheduling state, or reports a
contradiction proving that no valid schedule can follow from it.

The package is organised as:

* :mod:`repro.deduction.consequence` — change events, decisions, and the
  contradiction type exchanged between the state, the rules and the engine;
* :mod:`repro.deduction.state` — the scheduling state (bounds, combination
  lists, connected components, virtual cluster graph, communications);
* :mod:`repro.deduction.rules` — the state-updating and deduction rules;
* :mod:`repro.deduction.engine` — the worklist engine that applies a
  decision and runs the rules to a fixed point.
"""

from repro.deduction.consequence import (
    Change,
    BoundChange,
    CombinationChosen,
    CombinationDiscarded,
    VCsFused,
    VCsIncompatible,
    CommCreated,
    CommResolved,
    CycleFixed,
    Contradiction,
    Decision,
    ChooseCombination,
    DiscardCombination,
    ScheduleInCycle,
    ForbidCycle,
    FuseVCs,
    MarkVCsIncompatible,
    SetExitDeadlines,
    PinVCs,
)
from repro.deduction.state import SchedulingState
from repro.deduction.engine import DeductionProcess, DeductionResult, WorkBudget, BudgetExhausted

__all__ = [
    "Change",
    "BoundChange",
    "CombinationChosen",
    "CombinationDiscarded",
    "VCsFused",
    "VCsIncompatible",
    "CommCreated",
    "CommResolved",
    "CycleFixed",
    "Contradiction",
    "Decision",
    "ChooseCombination",
    "DiscardCombination",
    "ScheduleInCycle",
    "ForbidCycle",
    "FuseVCs",
    "MarkVCsIncompatible",
    "SetExitDeadlines",
    "PinVCs",
    "SchedulingState",
    "DeductionProcess",
    "DeductionResult",
    "WorkBudget",
    "BudgetExhausted",
]

"""The deduction engine: apply a decision and derive its consequences.

The engine implements the black box of the paper's Figure 2: given the
current scheduling state and a decision, it produces either the new state
with every mandatory consequence applied, or a contradiction.  Internally it
is a worklist: the decision expands into initial change events; every change
is shown to every rule; the changes the rules produce are queued in turn,
until the queue drains ("the DP ends when no decision remains to be treated
by the set of rules") or a contradiction is raised.

The amount of work performed (number of rule firings) is the deterministic
stand-in for compilation time used by the evaluation harness; callers may
pass a :class:`WorkBudget` to bound it, reproducing the paper's per-block
compile-time thresholds.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Type

from repro.deduction.consequence import (
    Change,
    ChooseCombination,
    Contradiction,
    Decision,
    DiscardCombination,
    ForbidCycle,
    FuseVCs,
    MarkVCsIncompatible,
    PinVCs,
    ScheduleInCycle,
    SetExitDeadlines,
)
from repro.deduction.rules import default_rules
from repro.deduction.rules.base import Rule
from repro.deduction.state import SchedulingState


class BudgetExhausted(Exception):
    """The scheduler's work budget ran out (compile-time threshold hit)."""


def budget_exhausted_message(limit: int, spent: int) -> str:
    """The one exhaustion message of every raise path.

    :meth:`WorkBudget.charge`, :meth:`WorkBudget.charge_block` and the
    inlined fast loop of :meth:`DeductionProcess.apply` all raise through
    this helper, so the message (and the ``spent`` value it reports) cannot
    drift between the unit-by-unit and block accounting paths."""
    return f"work budget of {limit} units exhausted ({spent} spent)"


@dataclass
class WorkBudget:
    """A deterministic compile-effort budget shared across DP invocations.

    An optional *observer* is notified when ``spent`` reaches
    ``notify_at`` — the tier-transition hook of
    :class:`repro.scheduler.policy.PolicyTracker`.  The observer is
    expected to advance (or clear) ``notify_at`` itself; with
    ``notify_at`` unset the charge paths are exactly the bare counters,
    and the deduction engine keeps its inlined fast loop."""

    limit: Optional[int] = None
    spent: int = 0
    #: Called as ``observer(budget)`` when ``spent`` crosses ``notify_at``.
    observer: Optional[Callable[["WorkBudget"], None]] = None
    #: The next ``spent`` value at which the observer fires (None = never).
    notify_at: Optional[int] = None

    def charge(self, amount: int = 1) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted(budget_exhausted_message(self.limit, self.spent))
        if self.notify_at is not None and self.spent >= self.notify_at:
            self._notify()

    def charge_block(self, amount: int) -> None:
        """Charge *amount* units with the same exhaustion semantics as
        *amount* successive one-unit :meth:`charge` calls (budget-policy
        refinement charges a whole re-run's work as one block, and the
        recorded ``spent`` must match the unit-by-unit accounting exactly)."""
        if self.limit is None or self.spent + amount <= self.limit:
            self.spent += amount
            if self.notify_at is not None and self.spent >= self.notify_at:
                self._notify()
            return
        self.spent = self.limit + 1
        raise BudgetExhausted(budget_exhausted_message(self.limit, self.spent))

    def _notify(self) -> None:
        if self.observer is not None:
            self.observer(self)
        elif self.notify_at is not None and self.spent >= self.notify_at:
            self.notify_at = None  # nobody listening; stop checking

    @property
    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return max(self.limit - self.spent, 0)

    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit


@dataclass
class DeductionResult:
    """Outcome of submitting one decision to the deduction process."""

    state: SchedulingState
    consequences: List[Change] = field(default_factory=list)
    contradiction: Optional[str] = None
    work: int = 0

    @property
    def ok(self) -> bool:
        return self.contradiction is None


class DeductionProcess:
    """Applies decisions to scheduling states using a rule set.

    Rule dispatch is indexed by change type: instead of showing every change
    event to every rule (a linear ``rule.applies`` scan on the hottest loop
    of the engine), a dispatch table keyed on ``type(change)`` is built
    lazily from the rules' declared triggers, so each event only visits the
    rules that can fire on it.  The table is filled through
    ``rule.applies``, which preserves exact ``isinstance`` semantics and the
    rule order of a linear scan.

    The rule set is managed through explicit registration hooks
    (:meth:`add_rule` / :meth:`remove_rule` / :meth:`set_rules`, or
    assignment to :attr:`rules`), each of which invalidates the dispatch
    table; :meth:`apply` no longer diffs the rule list on every invocation.
    :attr:`rules` is therefore a tuple — mutating a rule list behind the
    engine's back is impossible rather than silently absorbed.

    The worklist is the paper's flat first-in-first-out queue; the CI
    perf-regression gate pins ``dp_work`` and the schedule digests to it.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        max_iterations: int = 200_000,
    ) -> None:
        self._rules: Tuple[Rule, ...] = (
            tuple(rules) if rules is not None else tuple(default_rules())
        )
        self.max_iterations = max_iterations
        self._dispatch: Dict[Type[Change], List[Tuple[Rule, str]]] = {}
        #: Total number of DP invocations performed through this instance.
        self.invocations = 0
        #: Rule firings per rule class name, accumulated across invocations
        #: (sums to the total ``work`` this instance has performed).  A
        #: defaultdict so the hottest loop increments without a ``.get``;
        #: entries only appear for rules that actually fired.
        self.work_by_rule: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # rule registration
    # ------------------------------------------------------------------ #
    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The registered rules, in dispatch order (read-only view)."""
        return self._rules

    @rules.setter
    def rules(self, rules: Sequence[Rule]) -> None:
        self.set_rules(rules)

    def set_rules(self, rules: Sequence[Rule]) -> None:
        """Replace the whole rule set and invalidate the dispatch table."""
        self._rules = tuple(rules)
        self.invalidate_dispatch()

    def add_rule(self, rule: Rule) -> None:
        """Register *rule* after the existing ones."""
        self._rules = self._rules + (rule,)
        self.invalidate_dispatch()

    def remove_rule(self, rule: Rule) -> None:
        """Unregister *rule* (identity match); missing rules are ignored."""
        self._rules = tuple(r for r in self._rules if r is not rule)
        self.invalidate_dispatch()

    def invalidate_dispatch(self) -> None:
        """Drop the per-change-type dispatch table (rebuilt lazily).

        Called by every registration hook; call it directly after mutating
        a registered rule's ``triggers`` in place."""
        self._dispatch = {}

    def _rules_for(self, change: Change) -> List[Tuple[Rule, str]]:
        """``(rule, rule class name)`` pairs reacting to *change*, cached
        per concrete change type (the name rides along so the per-rule-class
        work split costs no attribute walk per firing)."""
        cls = change.__class__
        rules = self._dispatch.get(cls)
        if rules is None:
            rules = [(r, r.__class__.__name__) for r in self._rules if r.applies(change)]
            self._dispatch[cls] = rules
        return rules

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def apply(
        self,
        state: SchedulingState,
        decision: Decision,
        budget: Optional[WorkBudget] = None,
        in_place: bool = False,
    ) -> DeductionResult:
        """Evaluate *decision* on *state*.

        The state is copied unless ``in_place`` is requested (used when the
        caller has already decided to commit the decision).  The returned
        result carries the new state, the full list of consequences and the
        amount of work performed; a contradiction is reported in the result
        rather than raised.  :class:`BudgetExhausted` propagates to the
        caller because it is not a property of the decision but of the
        scheduling session.
        """
        self.invocations += 1
        working = state if in_place else state.copy()
        consequences: List[Change] = []
        work = 0
        work_by_rule = self.work_by_rule
        dispatch = self._dispatch
        try:
            queue: Deque[Change] = deque(self._expand(working, decision))
            consequences.extend(queue)
            if budget is None or budget.notify_at is None:
                # The fast loop binds every per-event operation to a local:
                # this is the hottest loop in the code base and each saved
                # attribute walk or method call is paid a million times per
                # scheduling run.  A budget carrying a tier-transition mark
                # (``notify_at``) instead takes the generic loop below,
                # whose per-firing ``charge()`` fires the policy observer.
                popleft = queue.popleft
                queue_extend = queue.extend
                cons_extend = consequences.extend
                dispatch_get = dispatch.get
                max_iterations = self.max_iterations
                iterations = 0
                if budget is None:
                    while queue:
                        iterations += 1
                        if iterations > max_iterations:
                            raise Contradiction(
                                "deduction did not reach a fixed point (possible rule loop)"
                            )
                        change = popleft()
                        pairs = dispatch_get(change.__class__)
                        if pairs is None:
                            pairs = self._rules_for(change)
                        for rule, name in pairs:
                            work += 1
                            work_by_rule[name] += 1
                            produced = rule.fire(working, change)
                            if produced:
                                queue_extend(produced)
                                cons_extend(produced)
                    return DeductionResult(
                        state=working, consequences=consequences, work=work
                    )
                # Budgeted variant: the per-firing charge() call is inlined
                # as local arithmetic with the exact semantics of
                # WorkBudget.charge (increment first, then compare, leaving
                # ``spent`` one past the limit on exhaustion); the finally
                # block keeps the budget object coherent on every exit path.
                b_limit = budget.limit
                b_spent = budget.spent
                try:
                    while queue:
                        iterations += 1
                        if iterations > max_iterations:
                            raise Contradiction(
                                "deduction did not reach a fixed point (possible rule loop)"
                            )
                        change = popleft()
                        pairs = dispatch_get(change.__class__)
                        if pairs is None:
                            pairs = self._rules_for(change)
                        for rule, name in pairs:
                            work += 1
                            work_by_rule[name] += 1
                            b_spent += 1
                            if b_limit is not None and b_spent > b_limit:
                                raise BudgetExhausted(
                                    budget_exhausted_message(b_limit, b_spent)
                                )
                            produced = rule.fire(working, change)
                            if produced:
                                queue_extend(produced)
                                cons_extend(produced)
                finally:
                    budget.spent = b_spent
                return DeductionResult(
                    state=working, consequences=consequences, work=work
                )
            charge = budget.charge
            iterations = 0
            while queue:
                iterations += 1
                if iterations > self.max_iterations:
                    raise Contradiction(
                        "deduction did not reach a fixed point (possible rule loop)"
                    )
                change = queue.popleft()
                pairs = dispatch.get(change.__class__)
                if pairs is None:
                    pairs = self._rules_for(change)
                for rule, name in pairs:
                    work += 1
                    work_by_rule[name] += 1
                    charge()
                    produced = rule.fire(working, change)
                    if produced:
                        queue.extend(produced)
                        consequences.extend(produced)
        except Contradiction as exc:
            return DeductionResult(
                state=working,
                consequences=consequences,
                contradiction=exc.reason,
                work=work,
            )
        return DeductionResult(state=working, consequences=consequences, work=work)

    def check(
        self,
        state: SchedulingState,
        decision: Decision,
        budget: Optional[WorkBudget] = None,
    ) -> DeductionResult:
        """Evaluate *decision* without ever mutating *state* (always copies)."""
        return self.apply(state, decision, budget=budget, in_place=False)

    # ------------------------------------------------------------------ #
    # decision expansion
    # ------------------------------------------------------------------ #
    @staticmethod
    def _expand(state: SchedulingState, decision: Decision) -> List[Change]:
        if isinstance(decision, ChooseCombination):
            return state.choose_combination(decision.u, decision.v, decision.distance)
        if isinstance(decision, DiscardCombination):
            return state.discard_combination(decision.u, decision.v, decision.distance)
        if isinstance(decision, ScheduleInCycle):
            return state.fix_cycle(decision.op_id, decision.cycle)
        if isinstance(decision, ForbidCycle):
            return state.forbid_cycle(decision.op_id, decision.cycle)
        if isinstance(decision, FuseVCs):
            changes: List[Change] = []
            for u, v in decision.pairs:
                changes += state.fuse_vcs(u, v)
            return changes
        if isinstance(decision, MarkVCsIncompatible):
            changes = []
            for u, v in decision.pairs:
                changes += state.mark_incompatible(u, v)
            return changes
        if isinstance(decision, SetExitDeadlines):
            return state.set_exit_deadlines(decision.as_dict())
        if isinstance(decision, PinVCs):
            changes = []
            for op_id, cluster in decision.pins:
                changes += state.pin_vc(op_id, cluster)
            return changes
        raise TypeError(f"unknown decision type {type(decision).__name__}")

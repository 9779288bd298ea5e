"""The composable decision-stage pipeline of the proposed scheduler.

The paper's technique is a fixed sequence of six decision stages driven
by the deduction process (Section 4): decide combinations, pin original
operations to cycles, eliminate out-edges, map virtual clusters onto
physical clusters, decide/pin the communications created along the way,
and finally extract the schedule.  Historically all six lived inside one
``VirtualClusterScheduler`` class; they are now independent
:class:`DecisionStage` objects sharing a :class:`StageContext`, composed
by a :class:`StagePipeline` whose order is a configuration value
(``VcsConfig.stage_order``) rather than a hard-wired branch.

Every stage body is a verbatim move of the corresponding scheduler
method: the default pipeline must reproduce the monolithic scheduler's
schedules and deterministic work counts byte for byte (the conformance
corpus, ``conformance.json``, pins both).  The probing primitives —
in-place trail probing with checkpoint/rollback/redo — live in
:class:`ProbeEngine`, shared by all stages, so stage code never touches
the trail directly.

Per-stage wall times and call counts are accumulated in
``StageContext.timings`` and surfaced as
``ScheduleResult.stage_timings`` (reported, never gated: wall time is
host dependent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.deduction.consequence import (
    Change,
    ChooseCombination,
    Decision,
    DiscardCombination,
    ForbidCycle,
    FuseVCs,
    MarkVCsIncompatible,
    ScheduleInCycle,
)
from repro.deduction.engine import (
    BudgetExhausted,
    DeductionProcess,
    DeductionResult,
    WorkBudget,
)
from repro.deduction.state import SchedulingState
from repro.scheduler import candidates as cand
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.heuristics import state_score
from repro.scheduler.schedule import Schedule, ScheduledComm
from repro.vcluster.mapping import map_virtual_to_physical

if TYPE_CHECKING:
    from repro.scheduler.policy import PolicyTracker

#: Canonical stage names, in the paper's order (extraction included: the
#: pipeline always ends by turning the final state into a schedule).
STAGE_COMBINATIONS = "combinations"
STAGE_FIX_CYCLES = "fix-cycles"
STAGE_ELIMINATE_OUTEDGES = "eliminate-outedges"
STAGE_FINAL_MAPPING = "final-mapping"
STAGE_FIX_COMMUNICATIONS = "fix-communications"
STAGE_EXTRACTION = "extraction"

DEFAULT_STAGE_ORDER: Tuple[str, ...] = (
    STAGE_COMBINATIONS,
    STAGE_FIX_CYCLES,
    STAGE_ELIMINATE_OUTEDGES,
    STAGE_FINAL_MAPPING,
    STAGE_FIX_COMMUNICATIONS,
    STAGE_EXTRACTION,
)

#: The A2 ablation: map virtual clusters eagerly after stage 1 instead of
#: postponing the mapping to the end.
EAGER_STAGE_ORDER: Tuple[str, ...] = (
    STAGE_COMBINATIONS,
    STAGE_ELIMINATE_OUTEDGES,
    STAGE_FINAL_MAPPING,
    STAGE_FIX_CYCLES,
    STAGE_FIX_COMMUNICATIONS,
    STAGE_EXTRACTION,
)


def new_probe_stats() -> Dict[str, int]:
    """Fresh probe counters (the ``ScheduleResult.stats`` payload)."""
    return {
        "probes": 0,
        "rollbacks": 0,
        "redos": 0,
        "trail_entries_undone": 0,
        "early_cut_skips": 0,
    }


class PipelineConfig(Protocol):
    """The configuration surface the pipeline and its stages read.

    Structurally matched by :class:`repro.scheduler.vcs.VcsConfig` (a
    Protocol avoids the circular import); read-only properties so frozen
    or mutable config objects both conform."""

    @property
    def stage1_max_decisions(self) -> int: ...

    @property
    def stage1_slack_limit(self) -> float: ...

    @property
    def cycle_candidates(self) -> int: ...

    @property
    def use_matching(self) -> bool: ...


class ProbeEngine:
    """Probing primitives shared by every decision stage.

    A candidate decision is probed in place: applied through the
    deduction process on top of a trail checkpoint, then kept, rolled
    back, or rolled back with a redo log for a later :meth:`redo`.  The
    engine keeps the probe counters and enforces the wall-clock
    deadline.
    """

    def __init__(self, config: PipelineConfig, stats: Optional[Dict[str, int]] = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else new_probe_stats()
        self.deadline: Optional[float] = None
        #: Optional :class:`~repro.scheduler.policy.PolicyTracker`: counts
        #: probes (and can raise on probe-budget exhaustion) via
        #: :meth:`PolicyTracker.note_probe`.
        self.tracker: Optional["PolicyTracker"] = None
        #: When set (``finalize_partial`` policies), a
        #: :class:`BudgetExhausted` raised mid-deduction rolls the state
        #: back to the sequence's entry checkpoint before propagating, so
        #: the exhaustion handler sees a consistent best-so-far state
        #: instead of a half-applied decision.
        self.recover_on_exhaustion = False

    def _note_probe(self) -> None:
        if self.tracker is not None:
            self.tracker.note_probe()

    def check_time(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExhausted("wall-clock limit exceeded")

    def apply_sequence(
        self,
        dp: DeductionProcess,
        state: SchedulingState,
        decisions: Sequence[Decision],
        budget: Optional[WorkBudget],
    ) -> DeductionResult:
        """Apply *decisions* to *state* in place, accumulating consequences
        and work across the whole sequence (multi-decision studies report
        the total, not just the last decision's share).

        With :attr:`recover_on_exhaustion`, budget exhaustion mid-sequence
        rolls the state back to the entry checkpoint before re-raising —
        partial mutations of the aborted deduction never escape."""
        if self.recover_on_exhaustion:
            mark = state.checkpoint()
            try:
                return self._apply_sequence(dp, state, decisions, budget)
            except BudgetExhausted:
                state.rollback(mark)
                raise
        return self._apply_sequence(dp, state, decisions, budget)

    def _apply_sequence(
        self,
        dp: DeductionProcess,
        state: SchedulingState,
        decisions: Sequence[Decision],
        budget: Optional[WorkBudget],
    ) -> DeductionResult:
        consequences: List[Change] = []
        work = 0
        for decision in decisions:
            result = dp.apply(state, decision, budget=budget, in_place=True)
            consequences.extend(result.consequences)
            work += result.work
            if not result.ok:
                return DeductionResult(
                    state=state,
                    consequences=consequences,
                    contradiction=result.contradiction,
                    work=work,
                )
        return DeductionResult(state=state, consequences=consequences, work=work)

    def probe(
        self,
        dp: DeductionProcess,
        state: SchedulingState,
        decisions: Sequence[Decision],
        budget: WorkBudget,
    ) -> Tuple[int, DeductionResult]:
        """Apply *decisions* in place on top of a checkpoint.

        The caller decides whether to keep the mutations or roll back to
        the returned mark."""
        self._note_probe()
        mark = state.checkpoint()
        self.stats["probes"] += 1
        return mark, self.apply_sequence(dp, state, decisions, budget)

    def rollback(self, state: SchedulingState, mark: int) -> None:
        self.stats["rollbacks"] += 1
        self.stats["trail_entries_undone"] += state.rollback(mark)

    def rollback_capture(self, state: SchedulingState, mark: int) -> List[tuple]:
        self.stats["rollbacks"] += 1
        log = state.rollback_capture(mark)
        self.stats["trail_entries_undone"] += len(log)
        return log

    def redo(self, state: SchedulingState, log: List[tuple]) -> None:
        """Keep a probed winner by re-applying its captured mutations —
        byte-exact and without re-running its deduction (the work was
        already charged when the candidate was probed)."""
        self.stats["redos"] += 1
        state.redo(log)

    def try_keep(
        self,
        dp: DeductionProcess,
        state: SchedulingState,
        decisions: Sequence[Decision],
        budget: WorkBudget,
    ) -> Optional[SchedulingState]:
        """Attempt *decisions*; on success return *state*, mutated in
        place, on contradiction return None with *state* unchanged."""
        mark, result = self.probe(dp, state, decisions, budget)
        if result.ok:
            return state
        self.rollback(state, mark)
        return None


@dataclass
class StageContext:
    """Everything the decision stages share while scheduling one AWCT
    target: the deduction process, the work budget, the configuration,
    the probing engine (with its trail marks and stats), the per-stage
    timing accumulator and the extracted schedule."""

    dp: DeductionProcess
    budget: WorkBudget
    config: PipelineConfig
    engine: ProbeEngine
    #: Per-op cycle hints (e.g. from a CARS pre-pass in the hybrid
    #: backend); biases cycle-candidate selection in the pinning stages.
    cycle_hints: Dict[int, int] = field(default_factory=dict)
    #: Budget-policy runtime state (``None`` without a policy).  Stages
    #: consult :attr:`PolicyTracker.cheap` to pick full vs cheap mode.
    tracker: Optional["PolicyTracker"] = None
    #: Per-stage ``{"calls": n, "wall_time_s": t}``, accumulated across
    #: AWCT targets.
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Set by the extraction stage.
    schedule: Optional[Schedule] = None
    #: Why the last pipeline run abandoned its AWCT target: the rejecting
    #: stage and the subject it failed on (an op, a pair or a candidate
    #: set); ``None`` while the run has not been rejected.
    rejection: Optional[Tuple[str, object]] = None

    def reject(self, stage: str, subject: object = None) -> Optional[SchedulingState]:
        """Record why *stage* abandons the target; returns ``None``, the
        stage's own return value."""
        self.rejection = (stage, subject)
        return None

    def record_timing(self, stage_name: str, elapsed: float) -> None:
        entry = self.timings.setdefault(stage_name, {"calls": 0, "wall_time_s": 0.0})
        entry["calls"] += 1
        entry["wall_time_s"] += elapsed


class DecisionStage(Protocol):
    """One decision stage of the proposed technique.

    A stage advances the scheduling state towards a complete schedule —
    making decisions through the deduction process via the context's
    probing engine — and returns the resulting state, or ``None`` when it
    proves no schedule exists for the current AWCT target, recording the
    subject it failed on with :meth:`StageContext.reject` where it has
    one."""

    name: str

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        ...


# --------------------------------------------------------------------------- #
# stage 1: combinations between original operations
# --------------------------------------------------------------------------- #
class CombinationsStage:
    """Decide combinations between original operations (Section 4.4.1.1)."""

    name = STAGE_COMBINATIONS

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        engine, config = ctx.engine, ctx.config
        decisions_made = 0
        while decisions_made < config.stage1_max_decisions:
            engine.check_time()
            pick = cand.most_constraining_pair(state)
            if pick is None:
                return state
            u, v, slack = pick
            forced = state.must_overlap(u, v)
            if not forced and slack > config.stage1_slack_limit:
                return state
            if not forced and ctx.tracker is not None and ctx.tracker.cheap:
                # Cheap mode (policy tier critical): optional pairs are no
                # longer studied — remaining budget goes to finishing the
                # mandatory decisions, not exploring.
                return state
            decisions_made += 1
            if not self._decide_pair(ctx, state, u, v):
                return ctx.reject(self.name, (u, v))
        return state

    @staticmethod
    def _decide_pair(ctx: StageContext, state: SchedulingState, u: int, v: int) -> bool:
        """One stage-1 iteration; False when no schedule exists for this
        AWCT target.

        Probes every remaining combination of the pair (rolling each back
        with redo capture), commits the mandatory discards of contradictory
        combinations as they are found — later probes must see them — and
        finally keeps the winner by rolling back to the winner's probe
        point (undoing discards committed after it, which the winning
        lineage never saw) and redoing the captured mutations, without
        re-running any deduction."""
        engine = ctx.engine
        best: Optional[Tuple[Tuple, int, int, List[tuple]]] = None  # (score, distance, mark, redo log)
        for distance in list(state.remaining_combinations(u, v)):
            mark, study = engine.probe(
                ctx.dp, state, [ChooseCombination(u, v, distance)], ctx.budget
            )
            if study.ok:
                score = state_score(state)
                log = engine.rollback_capture(state, mark)
                if best is None or (score, distance) < (best[0], best[1]):
                    best = (score, distance, mark, log)
            else:
                engine.rollback(state, mark)
                # Discarding the contradictory combination is mandatory.
                commit = engine.apply_sequence(
                    ctx.dp, state, [DiscardCombination(u, v, distance)], ctx.budget
                )
                if not commit.ok:
                    return False

        if best is not None:
            _, _, mark, log = best
            engine.rollback(state, mark)
            engine.redo(state, log)
            return True
        # The pair can neither be chosen nor discarded: no schedule exists
        # for this AWCT target.
        return state.is_pair_decided(u, v)


# --------------------------------------------------------------------------- #
# stages 2 / 6: pin operations with slack to cycles
# --------------------------------------------------------------------------- #
class _FixCyclesBody:
    """Shared loop of the cycle-pinning stages (original operations in
    stage 2, communications in stage 6)."""

    @staticmethod
    def fix_cycles(
        ctx: StageContext, state: SchedulingState, communications: bool
    ) -> Optional[SchedulingState]:
        engine, config = ctx.engine, ctx.config
        stage = STAGE_FIX_COMMUNICATIONS if communications else STAGE_FIX_CYCLES
        safety = 0
        limit = 8 * (len(state.all_ids) + 4)
        while True:
            safety += 1
            if safety > limit:
                return None
            engine.check_time()
            op_id = cand.lowest_slack_operation(state, communications=communications)
            if op_id is None:
                return state
            # Copies are few and bus contention is unforgiving (especially on
            # a non-pipelined bus), so more alternative cycles are studied
            # for them than for ordinary operations.
            n_candidates = (
                max(4, config.cycle_candidates)
                if communications
                else config.cycle_candidates
            )
            if ctx.tracker is not None and ctx.tracker.cheap:
                # Cheap mode (policy tier critical): one candidate cycle
                # per operation — the greedy earliest-feasible choice —
                # instead of a studied window.
                n_candidates = 1
            hint = None if communications else ctx.cycle_hints.get(op_id)
            cycles = cand.cycle_candidates(state, op_id, n_candidates, hint=hint)
            # Each candidate's optimistic floor on the first two score
            # components.  The deduction never drops a communication it has
            # fully linked (only unresolved PLCs go, at stage-6 entry), so
            # today's fully-linked count floors the n_communications of
            # every probed state; original estarts never decrease, so
            # compactness is floored by today's sum plus the pinned
            # operation's own shift (communications do not count in it).
            # Cycles ascend, so the floors ascend too.
            estart = state.estart[op_id]
            flc_floor = float(len(state.comms.fully_linked()))
            comp_base = state.compactness()
            shift = 0 if communications else 1
            floors = [(flc_floor, comp_base + shift * (cycle - estart)) for cycle in cycles]
            earliest_contradicts = False
            kept = False
            best: Optional[Tuple[Tuple, int, List[tuple]]] = None  # (score, cycle, redo log)
            last = len(cycles) - 1
            for index, cycle in enumerate(cycles):
                if best is not None and floors[index] > best[0][:2]:
                    # No remaining cycle can beat the (score, cycle) winner.
                    engine.stats["early_cut_skips"] += len(cycles) - index
                    break
                mark, study = engine.probe(
                    ctx.dp, state, [ScheduleInCycle(op_id, cycle)], ctx.budget
                )
                if not study.ok:
                    engine.rollback(state, mark)
                    if cycle == estart:
                        earliest_contradicts = True
                    continue
                score = state_score(state)
                if best is not None and (score, cycle) >= (best[0], best[1]):
                    engine.rollback(state, mark)
                    continue
                if index == last or floors[index + 1] > score[:2]:
                    # The new winner is final: keep it in place instead of
                    # capturing it and redoing it.
                    engine.stats["early_cut_skips"] += last - index
                    kept = True
                    break
                best = (score, cycle, engine.rollback_capture(state, mark))
            if kept:
                continue
            if best is not None:
                engine.redo(state, best[2])
                continue
            if earliest_contradicts and state.slack(op_id) > 0:
                committed = engine.try_keep(
                    ctx.dp, state, [ForbidCycle(op_id, state.estart[op_id])], ctx.budget
                )
                if committed is None:
                    return ctx.reject(stage, op_id)
                state = committed
                continue
            return ctx.reject(stage, op_id)


class FixCyclesStage:
    """Pin original operations with remaining slack to cycles (stage 2)."""

    name = STAGE_FIX_CYCLES

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        return _FixCyclesBody.fix_cycles(ctx, state, communications=False)


class FixCommunicationsStage:
    """Decide and pin the communications created along the way (stages 5/6)."""

    name = STAGE_FIX_COMMUNICATIONS

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        state.drop_unresolved_plcs()
        return _FixCyclesBody.fix_cycles(ctx, state, communications=True)


# --------------------------------------------------------------------------- #
# stage 3: eliminate out-edges
# --------------------------------------------------------------------------- #
class EliminateOutedgesStage:
    """Fuse VCs selected by a maximum weight matching, or mark them
    incompatible, inserting communications (Section 4.4.2)."""

    name = STAGE_ELIMINATE_OUTEDGES

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        engine, config = ctx.engine, ctx.config
        safety = 0
        limit = 4 * len(state.original_ids) + 16
        while True:
            safety += 1
            if safety > limit:
                return None
            engine.check_time()
            if not state.outedges():
                return state

            if config.use_matching:
                pairs = cand.matching_candidates(state)
                if len(pairs) > 1:
                    kept = engine.try_keep(
                        ctx.dp, state, [FuseVCs(pairs=tuple(pairs))], ctx.budget
                    )
                    if kept is not None:
                        state = kept
                        continue
                    # A failed matching is not decomposed into per-pair
                    # discards (Section 4.4.2); fall through to the single
                    # highest-weight edge.

            pair = cand.highest_weight_pair(state)
            if pair is None:
                return state
            a, b = pair
            kept = engine.try_keep(ctx.dp, state, [FuseVCs.single(a, b)], ctx.budget)
            if kept is not None:
                state = kept
                continue
            kept = engine.try_keep(
                ctx.dp, state, [MarkVCsIncompatible.single(a, b)], ctx.budget
            )
            if kept is not None:
                state = kept
                continue
            return ctx.reject(self.name, pair)


# --------------------------------------------------------------------------- #
# stage 4: final mapping of virtual clusters to physical clusters
# --------------------------------------------------------------------------- #
class FinalMappingStage:
    """Reduce and map virtual clusters onto physical clusters (stage 4)."""

    name = STAGE_FINAL_MAPPING

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        engine = ctx.engine
        n_clusters = state.machine.n_clusters
        safety = 0
        limit = 4 * len(state.original_ids) + 16
        while True:
            safety += 1
            if safety > limit:
                return None
            engine.check_time()
            if state.vcg.n_vcs <= n_clusters:
                mapping = map_virtual_to_physical(state.vcg, n_clusters, injective=True)
                if mapping is not None:
                    return state
            candidates = cand.fusion_candidates_for_mapping(state)
            if not candidates:
                return ctx.reject(self.name, ())
            progressed = False
            for a, b in candidates:
                kept = engine.try_keep(ctx.dp, state, [FuseVCs.single(a, b)], ctx.budget)
                if kept is not None:
                    state = kept
                    progressed = True
                    break
                kept = engine.try_keep(
                    ctx.dp, state, [MarkVCsIncompatible.single(a, b)], ctx.budget
                )
                if kept is not None:
                    state = kept
                    progressed = True
                    break
            if not progressed:
                return ctx.reject(self.name, tuple(candidates))


# --------------------------------------------------------------------------- #
# extraction: turn the final state into a validated schedule
# --------------------------------------------------------------------------- #
class ExtractionStage:
    """Extract the schedule from a fully-decided state and validate it.

    Stores the schedule on the context; returns ``None`` (abandoning the
    AWCT target) when the state cannot be turned into a complete, valid
    schedule."""

    name = STAGE_EXTRACTION

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        schedule = self.extract(state)
        if schedule is None:
            return ctx.reject(self.name, "incomplete")
        if not validate_schedule(schedule).ok:
            return ctx.reject(self.name, "invalid")
        ctx.schedule = schedule
        return state

    @staticmethod
    def extract(state: SchedulingState) -> Optional[Schedule]:
        machine = state.machine
        mapping = map_virtual_to_physical(state.vcg, machine.n_clusters, injective=True)
        if mapping is None:
            mapping = map_virtual_to_physical(state.vcg, machine.n_clusters)
        if mapping is None:
            return None
        cycles: Dict[int, int] = {}
        clusters: Dict[int, int] = {}
        for op_id in state.original_ids:
            if not state.is_fixed(op_id):
                return None
            cycles[op_id] = state.estart[op_id]
            clusters[op_id] = mapping[state.vcg.vc_of(op_id)]
        comms: List[ScheduledComm] = []
        for comm in state.comms.fully_linked():
            if not state.is_fixed(comm.comm_id):
                return None
            producer = comm.producer
            src = clusters.get(producer, 0) if producer is not None else 0
            dst = clusters.get(comm.consumer) if comm.consumer is not None else None
            comms.append(
                ScheduledComm(
                    value=comm.value or f"comm{comm.comm_id}",
                    producer=comm.producer if comm.producer is not None else -1,
                    cycle=state.estart[comm.comm_id],
                    src_cluster=src,
                    dst_cluster=dst,
                )
            )
        return Schedule(
            block=state.block,
            machine=machine,
            cycles=cycles,
            clusters=clusters,
            comms=comms,
        )


#: Stage name -> constructor, in the paper's order.
STAGE_FACTORIES: Dict[str, Callable[[], DecisionStage]] = {
    STAGE_COMBINATIONS: CombinationsStage,
    STAGE_FIX_CYCLES: FixCyclesStage,
    STAGE_ELIMINATE_OUTEDGES: EliminateOutedgesStage,
    STAGE_FINAL_MAPPING: FinalMappingStage,
    STAGE_FIX_COMMUNICATIONS: FixCommunicationsStage,
    STAGE_EXTRACTION: ExtractionStage,
}


def available_stages() -> Tuple[str, ...]:
    """The registered stage names, in the paper's order."""
    return tuple(STAGE_FACTORIES)


class UnknownStageError(ValueError):
    """A stage name that is not in :data:`STAGE_FACTORIES`."""


def resolve_stage_order(config) -> Tuple[str, ...]:
    """The effective stage order of a configuration.

    ``config.stage_order`` wins when set; otherwise the order is the
    paper's, with the A2 ablation (``eager_mapping``) mapping virtual
    clusters right after stage 1.  The extraction stage is always
    appended when missing — every pipeline must end by producing a
    schedule."""
    order = getattr(config, "stage_order", None)
    if order is None:
        eager = getattr(config, "eager_mapping", False)
        order = EAGER_STAGE_ORDER if eager else DEFAULT_STAGE_ORDER
    order = tuple(order)
    for name in order:
        if name not in STAGE_FACTORIES:
            raise UnknownStageError(
                f"unknown stage {name!r}; known stages: {', '.join(STAGE_FACTORIES)}"
            )
    if STAGE_EXTRACTION in order[:-1]:
        # A premature extraction finds unfixed operations, abandons every
        # AWCT target and silently degrades the whole run to the fallback.
        raise UnknownStageError(
            f"stage {STAGE_EXTRACTION!r} must come last (it turns the fully-decided "
            "state into the schedule)"
        )
    if STAGE_EXTRACTION not in order:
        order = order + (STAGE_EXTRACTION,)
    return order


class StagePipeline:
    """An ordered composition of decision stages.

    Runs the stages in sequence on one scheduling state, recording each
    stage's wall time in the context.  A stage returning ``None`` (no
    schedule exists for this AWCT target) aborts the pipeline; a stage
    that did not record a subject is recorded as rejecting on none."""

    def __init__(self, stages: Sequence[DecisionStage]):
        self.stages: Tuple[DecisionStage, ...] = tuple(stages)

    @classmethod
    def from_config(cls, config) -> "StagePipeline":
        return cls(tuple(STAGE_FACTORIES[name]() for name in resolve_stage_order(config)))

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: StageContext, state: SchedulingState) -> Optional[SchedulingState]:
        ctx.schedule = None
        ctx.rejection = None
        current: Optional[SchedulingState] = state
        for stage in self.stages:
            ctx.engine.check_time()
            t0 = time.perf_counter()
            try:
                current = stage.run(ctx, current)
            finally:
                ctx.record_timing(stage.name, time.perf_counter() - t0)
            if current is None:
                if ctx.rejection is None:
                    ctx.reject(stage.name)
                return None
        return current

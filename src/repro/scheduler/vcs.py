"""The proposed technique: virtual cluster scheduling through the scheduling
graph (Section 4 of the paper).

The driver iterates over target AWCT values from an enhanced lower bound
upwards; for each target it initialises a scheduling state through the
deduction process and runs the paper's six decision stages — now a
composable :class:`~repro.scheduler.pipeline.StagePipeline` of independent
:class:`~repro.scheduler.pipeline.DecisionStage` objects (combinations,
fix-cycles, eliminate-outedges, final-mapping, fix-communications,
extraction) sharing a :class:`~repro.scheduler.pipeline.StageContext`.
The stage order is configuration (``VcsConfig.stage_order``), with the
paper's order as the default and the A2 eager-mapping ablation as a
reordering rather than a separate code path.

Whenever the deduction process proves that a candidate can neither be chosen
nor discarded, the target AWCT is abandoned and the next one is tried.  A
work budget (the compile-time proxy) or wall-clock limit aborts the whole
attempt, in which case the scheduler falls back to its ``fallback`` backend
for the block — CARS by default, exactly the paper's threshold mechanism,
but expressed as backend composition (any registered scheduler backend can
stand in).

The walk and the fallback
-------------------------
Every abandoned target records its rejection: the stage that gave up and
the subject it failed on (an operation, a pair, a candidate set), or
``deadlines`` when the exit deadlines alone contradict.  Some rejections
are target-bound — a looser target gives the stage room — and some are
structural: the same stage fails on the same subject whatever the
target.  Walking on through a structural rejection only burns the
``max_awct_steps`` budget before the fallback.  So when
:data:`STRUCTURAL_STREAK` consecutive targets are rejected by the same
stage on the same subject, the walk probes the pipeline once at the
*ceiling target*: each exit's deadline at its cycle in the fallback's
schedule.  That schedule meets those deadlines, so the ceiling is the
loosest target that can still matter.  If the ceiling is rejected by the
streak's stage as well, the rejection is structural and the walk stops;
otherwise it walks on as before.

A walk that ends without a schedule — stopped, or out of targets —
probes the ceiling if it has not done so yet, and returns the ceiling's
schedule when it strictly beats the fallback's.  A schedule found at a
later target is compared too: the better of it and the fallback's is
returned (the fallback marked as such, its work counted only when it
wins).  A schedule found at the first target is returned as is, since
its AWCT meets a proven lower bound.  With ``fallback_to_cars=False``
(which includes the budget policy's refinement rounds) none of this
applies and the walk is the paper's.  Rejections per stage, the ceiling
probe and the reason the walk ended are reported in
``ScheduleResult.stats``, never fingerprinted.

Hot-path design
---------------
Candidate decisions are *probed in place* using the scheduling state's
mutation trail (``checkpoint``/``rollback``) instead of deep-copying the
state per candidate: a probe applies the decision through the deduction
process, records the resulting score, and rolls the state back.  A
winner that later candidates might still beat is rolled back with a redo
log and, once it has won, replayed from that log without re-running its
deduction or re-charging the work budget.

The cycle-pinning rounds (stages 2 and 6) probe candidate cycles in
ascending order and stop as soon as an optimistic floor on the score —
the fully-linked communications already present, and the compactness
plus the operation's own shift — proves that no later cycle can beat the
current winner (the early cut).  A new winner that is the last candidate,
or that already cuts the next one, is final and stays in place: it is
neither captured nor redone, and a candidate that loses is rolled back
plainly.

A single pristine state is built per block and rolled back between AWCT
targets and minAWCT probes, so the global estart computation runs once
and bound deltas propagate only from changed nodes.  The probing
primitives live in :class:`~repro.scheduler.pipeline.ProbeEngine`,
shared by all stages.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bounds.awct import min_exit_cycles
from repro.bounds.enumeration import ExitBoundEnumerator
from repro.deduction.consequence import SetExitDeadlines
from repro.deduction.engine import BudgetExhausted, DeductionProcess, WorkBudget
from repro.deduction.rules import default_rules
from repro.deduction.state import SchedulingState
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.pipeline import (
    ProbeEngine,
    StageContext,
    StagePipeline,
    new_probe_stats,
)
from repro.scheduler.policy import PolicyTracker, SchedulePolicy, cheap_extraction
from repro.scheduler.schedule import Schedule, ScheduleResult
from repro.sgraph.scheduling_graph import SchedulingGraph

#: ``VcsConfig`` fields coerced from strings by :meth:`VcsConfig.from_dict`
#: (environment overrides arrive as text).
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")

#: A run of this many consecutive AWCT targets rejected by the same stage
#: on the same subject makes the walk probe its ceiling target.
STRUCTURAL_STREAK = 8
#: The rejecting "stage" of a target whose exit deadlines alone contradict.
DEADLINES = "deadlines"


@dataclass
class VcsConfig:
    """Tunable knobs of the proposed scheduler.

    The defaults correspond to the configuration used for the main results;
    the ablation benchmarks flip individual flags.  The whole object is
    picklable — it travels inside :class:`repro.api.ScheduleRequest` to
    worker processes — and round-trips through :meth:`to_dict` /
    :meth:`from_dict` (the JSON/CLI/environment configuration surface).
    """

    #: Deterministic compile-effort limit (deduction rule firings); None =
    #: unlimited.  The only dp_work limit: a ``policy`` reacts to it.
    work_budget: Optional[int] = None
    #: Wall-clock limit in seconds; None = unlimited.  The only wall limit.
    time_limit: Optional[float] = None
    #: Maximum number of AWCT targets the walk tries before it gives up
    #: (the count reported as ``awct_target_steps``).  With the fallback
    #: on, the walk may stop earlier on a structural rejection, and a walk
    #: that ends without a schedule probes the ceiling target (each exit
    #: at its cycle in the fallback's schedule) once more, counted apart.
    max_awct_steps: int = 48
    #: Stage 1 only studies pairs whose combination slack is at most this
    #: value (pairs forced to overlap are always studied); the remaining
    #: pairs are decided implicitly by the cycle-pinning stage.  The default
    #: of -1 restricts stage 1 to pairs that are forced to overlap: electing
    #: to rigidly link two operations that could also be kept apart turned
    #: out to over-constrain the schedule more often than it helped.
    stage1_slack_limit: float = -1.0
    #: Hard cap on stage-1 decisions per AWCT target.
    stage1_max_decisions: int = 64
    #: Number of cycles studied per operation in stages 2 and 6.
    cycle_candidates: int = 2
    #: Enable the partially-linked-communication rules (ablation A1).
    enable_plc: bool = True
    #: Map virtual clusters eagerly after stage 1 instead of postponing the
    #: mapping to the end (ablation A2).  Shorthand for the corresponding
    #: ``stage_order``.
    eager_mapping: bool = False
    #: Use the maximum weight matching in stage 3 (ablation A3); when off,
    #: out-edges are eliminated one highest-weight pair at a time.
    use_matching: bool = True
    #: Fall back to the fallback backend (CARS by default) when the budget
    #: is exhausted — the paper's timeout mechanism.  When False the
    #: scheduler returns a schedule-less result instead.
    fallback_to_cars: bool = True
    #: Explicit decision-stage order (names from
    #: :func:`repro.scheduler.pipeline.available_stages`); None selects the
    #: paper's order (or the eager-mapping variant).
    stage_order: Optional[Tuple[str, ...]] = None
    #: Budget policy (:class:`~repro.scheduler.policy.SchedulePolicy`):
    #: status tiers as ``work_budget``/``time_limit`` (and its own probe
    #: limit) fill up, graceful degradation on exhaustion
    #: (``finalize_partial``) and leftover-budget refinement, which needs
    #: a ``work_budget``.  ``None`` (the default) is fail-equivalent and
    #: leaves every code path byte-identical to the policy-free scheduler.
    #: Environment form: ``REPRO_VCS_WORK_BUDGET=20000
    #: REPRO_VCS_POLICY=finalize_partial``.
    policy: Optional[SchedulePolicy] = None

    def __post_init__(self) -> None:
        if self.policy is not None and self.policy.refine_rounds > 0 and self.work_budget is None:
            raise ValueError(
                "SchedulePolicy.refine_rounds spends leftover dp_work budget; "
                "set VcsConfig.work_budget as well"
            )

    # ------------------------------------------------------------------ #
    # serialisation (CLI / JSON / environment configuration surface)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-serialisable description (inverse of :meth:`from_dict`)."""
        # Shallow: every field is a scalar or an immutable tuple except the
        # nested policy, and the job server keys every request by this
        # dict (``dataclasses.asdict`` deep-copies at some 10x the cost).
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if out["stage_order"] is not None:
            out["stage_order"] = list(out["stage_order"])
        if out["policy"] is not None:
            out["policy"] = out["policy"].to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "VcsConfig":
        """Build a config from a mapping, coercing string values (JSON or
        environment sources); unknown keys are rejected."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(
                f"unknown VcsConfig keys {sorted(unknown)}; known: {sorted(fields)}"
            )
        kwargs = {}
        for key, value in data.items():
            kwargs[key] = cls._coerce(key, value)
        return cls(**kwargs)

    @staticmethod
    def _coerce(key: str, value):
        if value is None:
            return None
        if key == "policy":
            if isinstance(value, SchedulePolicy):
                return value
            if isinstance(value, str):
                # Environment/CLI form: "mode=...,max_probes=...".
                return SchedulePolicy.parse(value)
            if isinstance(value, Mapping):
                return SchedulePolicy.from_dict(value)
            raise ValueError(f"invalid policy {value!r} for VcsConfig.policy")
        if key == "stage_order":
            # Environment/CLI sources deliver a comma-separated string.
            if isinstance(value, str):
                value = [name.strip() for name in value.split(",") if name.strip()]
            return tuple(str(name) for name in value)
        if key in ("work_budget", "max_awct_steps", "stage1_max_decisions", "cycle_candidates"):
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid integer {value!r} for VcsConfig.{key}") from None
        if key in ("time_limit", "stage1_slack_limit"):
            try:
                return float(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid number {value!r} for VcsConfig.{key}") from None
        # Booleans: accept real bools and the usual textual spellings.
        if isinstance(value, str):
            text = value.strip().lower()
            if text in _BOOL_TRUE:
                return True
            if text in _BOOL_FALSE:
                return False
            raise ValueError(f"invalid boolean {value!r} for VcsConfig.{key}")
        return bool(value)


@dataclass
class _Walk:
    """The record of one AWCT walk: targets rejected per stage, the
    current streak of identical rejections, the ceiling probe's outcome
    and the fallback's result (computed at most once)."""

    #: Streaks, the ceiling and the fallback comparison are active
    #: (``VcsConfig.fallback_to_cars``); otherwise the walk is the paper's.
    extended: bool
    rejections: Dict[str, int] = field(default_factory=dict)
    streak_of: Optional[Tuple[str, object]] = None
    streak: int = 0
    ceiling_probed: bool = False
    #: The rejected ceiling was run again with CARS-centred windows.
    ceiling_retried: bool = False
    ceiling_schedule: Optional[Schedule] = None
    ceiling_rejection: Optional[Tuple[str, object]] = None
    fallback: Optional[ScheduleResult] = None
    #: Why the walk ended: ``schedule``, ``structural``, ``max-steps``,
    #: ``targets`` (the enumerator ran dry) or ``budget``.
    stop: str = ""

    def reject(self, rejection: Tuple[str, object]) -> bool:
        """Count one rejected target; True when it completes a streak."""
        stage = rejection[0]
        self.rejections[stage] = self.rejections.get(stage, 0) + 1
        self.streak = self.streak + 1 if rejection == self.streak_of else 1
        self.streak_of = rejection
        return self.extended and self.streak == STRUCTURAL_STREAK

    def structural(self) -> bool:
        """Whether the ceiling was rejected by the current streak's stage:
        loosening the target does not help, so walking on is wasted."""
        return (
            self.ceiling_rejection is not None
            and self.streak_of is not None
            and self.ceiling_rejection[0] == self.streak_of[0]
        )


class VirtualClusterScheduler:
    """Scheduler implementing the paper's technique.

    Parameters
    ----------
    config:
        The :class:`VcsConfig` knobs; defaults to the main-results
        configuration.
    fallback:
        The scheduler backend used when the work budget or wall-clock
        limit is exhausted or the walk finds nothing better
        (``config.fallback_to_cars``); its schedule also sets the ceiling
        target.  Any object with
        a ``schedule(block, machine) -> ScheduleResult`` method works —
        the registry composes the default CARS baseline in, and tests can
        substitute other backends.  ``None`` builds a
        :class:`~repro.scheduler.cars.CarsScheduler` lazily.
    """

    name = "VCS"

    def __init__(self, config: Optional[VcsConfig] = None, fallback=None) -> None:
        self.config = config or VcsConfig()
        self._fallback = fallback
        self._pipeline = StagePipeline.from_config(self.config)
        #: Probe counters of the most recent :meth:`schedule` call.
        self.stats: Dict[str, int] = new_probe_stats()
        #: Per-stage call counts and wall times of the most recent call.
        self.stage_timings: Dict[str, Dict[str, float]] = {}
        #: Per-op cycle hints centring the pinning stages' candidate
        #: windows; only a refinement round's scheduler has any.
        self._hints: Dict[int, int] = {}

    @property
    def stage_order(self) -> Tuple[str, ...]:
        """The effective decision-stage order of this scheduler."""
        return self._pipeline.stage_names

    def _fallback_backend(self):
        if self._fallback is None:
            from repro.scheduler.cars import CarsScheduler

            self._fallback = CarsScheduler()
        return self._fallback

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def schedule(self, block: Superblock, machine: ClusteredMachine) -> ScheduleResult:
        """Schedule *block* on *machine*; never returns without a schedule
        (falls back to the fallback backend on budget exhaustion or when
        it beats the walk, unless configured not to)."""
        start = time.perf_counter()
        self.stats = new_probe_stats()
        engine = ProbeEngine(self.config, self.stats)
        dp = DeductionProcess(rules=default_rules(enable_plc=self.config.enable_plc))
        budget = WorkBudget(self.config.work_budget)
        policy = self.config.policy
        tracker: Optional[PolicyTracker] = None
        if policy is not None:
            tracker = PolicyTracker(
                policy, budget, started=start, wall_limit=self.config.time_limit
            )
            tracker.attach(budget)
            engine.tracker = tracker
            # Exhaustion recovery (rollback to the sequence entry) only
            # matters when a partially-decided state will be finalized.
            engine.recover_on_exhaustion = policy.finalizes_partial
        if self.config.time_limit is not None:
            engine.deadline = start + self.config.time_limit
        sgraph = SchedulingGraph(block, machine)
        ctx = StageContext(
            dp=dp,
            budget=budget,
            config=self.config,
            engine=engine,
            cycle_hints=self._hints,
            tracker=tracker,
        )
        self.stage_timings = ctx.timings

        # One pristine state serves every minAWCT probe and AWCT target
        # (rolled back in between).
        shared = SchedulingState(block, machine, sgraph)
        pristine = shared.checkpoint()

        steps_tried = 0
        timed_out = False
        walk = _Walk(extended=self.config.fallback_to_cars)
        schedule: Optional[Schedule] = None
        try:
            initial = self._tighten_exit_bounds(block, machine, ctx, shared)
            enumerator = ExitBoundEnumerator(block, machine, initial_cycles=initial)
            for target in itertools.islice(enumerator, self.config.max_awct_steps):
                steps_tried += 1
                engine.check_time()
                schedule = self._try_target(ctx, target.exit_cycles, shared, pristine)
                if schedule is not None:
                    walk.stop = "schedule"
                    break
                if walk.reject(ctx.rejection):
                    if not walk.ceiling_probed:
                        self._probe_ceiling(ctx, walk, block, machine, shared, pristine)
                    if walk.structural():
                        walk.stop = "structural"
                        break
            else:
                walk.stop = "max-steps" if steps_tried == self.config.max_awct_steps else "targets"
            if schedule is None and walk.extended and not walk.ceiling_probed:
                # The floor: a walk that found nothing tries the ceiling
                # before settling for the fallback.
                self._probe_ceiling(ctx, walk, block, machine, shared, pristine)
        except BudgetExhausted as exc:
            timed_out = True
            walk.stop = "budget"
            if tracker is not None:
                tracker.mark_exhausted(str(exc))

        if tracker is not None and timed_out and tracker.policy.finalizes_partial:
            return self._finalize_partial(
                block, machine, shared, budget, tracker, steps_tried, dp, ctx, start, walk
            )

        source = "vcs" if schedule is not None else "none"
        work = budget.spent
        # A schedule found at the first target meets a proven lower bound;
        # any other outcome is checked against the fallback and the ceiling.
        if walk.extended and not (schedule is not None and steps_tried == 1):
            fallback = self._fallback_result(walk, block, machine)
            if timed_out or _beats(fallback.schedule, schedule):
                schedule, source = fallback.schedule, "fallback"
                work = budget.spent + fallback.work
            if not timed_out and _beats(walk.ceiling_schedule, schedule):
                schedule, source, work = walk.ceiling_schedule, "vcs", budget.spent
        result = ScheduleResult(
            scheduler=self.name,
            block=block,
            machine=machine,
            schedule=schedule,
            work=work,
            wall_time=time.perf_counter() - start,
            timed_out=timed_out,
            awct_target_steps=steps_tried,
            fallback_used=(source == "fallback"),
            stats=self._result_stats(dp, walk),
            stage_timings={k: dict(v) for k, v in ctx.timings.items()},
        )
        if tracker is not None:
            if source == "vcs":
                self._refine(block, result, budget, tracker)
            result.policy = tracker.summary(partial=False, source=source)
            result.wall_time = time.perf_counter() - start
        return result

    def _fallback_result(
        self, walk: "_Walk", block: Superblock, machine: ClusteredMachine
    ) -> ScheduleResult:
        """The fallback backend's result for this block, computed once."""
        if walk.fallback is None:
            walk.fallback = self._fallback_backend().schedule(block, machine)
        return walk.fallback

    def _probe_ceiling(
        self,
        ctx: StageContext,
        walk: "_Walk",
        block: Superblock,
        machine: ClusteredMachine,
        shared: SchedulingState,
        pristine: int,
    ) -> None:
        """Run the pipeline once at the ceiling target: every exit's
        deadline at its cycle in the fallback's schedule, which that
        schedule is known to meet.  A rejected ceiling is run once more
        with the cycle-candidate windows centred on the fallback's cycles;
        the first rejection stays the walk's record either way."""
        walk.ceiling_probed = True
        fallback = self._fallback_result(walk, block, machine).schedule
        if fallback is None:
            return
        exit_cycles = {exit_id: fallback.cycles[exit_id] for exit_id in block.exit_ids}
        walk.ceiling_schedule = self._try_target(ctx, exit_cycles, shared, pristine)
        if walk.ceiling_schedule is not None:
            return
        walk.ceiling_rejection = ctx.rejection
        walk.ceiling_retried = True
        hints, ctx.cycle_hints = ctx.cycle_hints, dict(fallback.cycles)
        walk.ceiling_schedule = self._try_target(ctx, exit_cycles, shared, pristine)
        ctx.cycle_hints = hints

    def _result_stats(self, dp: DeductionProcess, walk: "_Walk") -> Dict[str, object]:
        """The probe counters, the deduction engine's per-rule-class work
        split and the walk's record: targets rejected per stage, whether
        the ceiling was probed and why the walk stopped (all reported,
        never gated)."""
        stats: Dict[str, object] = dict(self.stats)
        for name in sorted(dp.work_by_rule):
            stats[f"dp_rule_{name}"] = dp.work_by_rule[name]
        for stage in sorted(walk.rejections):
            stats[f"rejected_{stage}"] = walk.rejections[stage]
        stats["ceiling_probes"] = int(walk.ceiling_probed)
        stats["ceiling_retries"] = int(walk.ceiling_retried)
        stats["walk_stop"] = walk.stop
        return stats

    # ------------------------------------------------------------------ #
    # budget-policy phases: partial finalization and refinement
    # ------------------------------------------------------------------ #
    def _finalize_partial(
        self,
        block: Superblock,
        machine: ClusteredMachine,
        shared: SchedulingState,
        budget: WorkBudget,
        tracker: PolicyTracker,
        steps_tried: int,
        dp: DeductionProcess,
        ctx: StageContext,
        start: float,
        walk: "_Walk",
    ) -> ScheduleResult:
        """Exhaustion under a ``finalize_partial`` policy.

        The shared trail state holds the best-so-far valid decision set
        (exhaustion recovery rolled back the aborted deduction, so it is
        consistent); freeze it and finalize cheaply — a list-scheduling
        extraction over the partially-fixed scheduling graph
        (:func:`~repro.scheduler.policy.cheap_extraction`) — then emit the
        better of that extraction and the plain fallback schedule, so the
        output is never worse than the paper's timeout mechanism."""
        extraction = cheap_extraction(block, machine, shared)
        chosen: Optional[Schedule] = None
        source = "none"
        extra_work = 0
        if extraction is not None and extraction.schedule is not None:
            chosen, source = extraction.schedule, "partial-extraction"
            extra_work += extraction.work
        if self.config.fallback_to_cars:
            fallback = self._fallback_result(walk, block, machine)
            extra_work += fallback.work
            if fallback.schedule is not None and (
                chosen is None or fallback.schedule.awct < chosen.awct
            ):
                # Strict improvement only: ties keep the extraction, whose
                # cluster decisions came from the paid-for deduction.
                chosen, source = fallback.schedule, "fallback"
        if chosen is not None:
            chosen.provenance = {"policy": "finalize_partial", "source": source}
        result = ScheduleResult(
            scheduler=self.name,
            block=block,
            machine=machine,
            schedule=chosen,
            work=budget.spent + extra_work,
            wall_time=time.perf_counter() - start,
            timed_out=True,
            awct_target_steps=steps_tried,
            fallback_used=(source == "fallback"),
            stats=self._result_stats(dp, walk),
            stage_timings={k: dict(v) for k, v in ctx.timings.items()},
        )
        result.policy = tracker.summary(partial=True, source=source)
        return result

    def _refine(
        self,
        block: Superblock,
        result: ScheduleResult,
        budget: WorkBudget,
        tracker: PolicyTracker,
    ) -> None:
        """Spend leftover budget improving a successful schedule.

        Randomized-restart / large-neighborhood re-probing: each round
        frees the worst-slack region of the current best schedule — the
        operations completing latest, which bound the AWCT — keeps every
        other operation hinted at its current cycle, and re-runs the full
        pipeline under the remaining dp_work and wall budget.  Strict AWCT
        improvements (validated) replace the best schedule; anything else
        is discarded, so AWCT is monotone non-increasing across rounds and
        every intermediate output is a complete valid schedule — the
        anytime property.  The round RNG is seeded from the policy seed
        and the block name (:meth:`SchedulePolicy.refine_rng_seed`), never
        from process state, so refinement is deterministic.  ``VcsConfig``
        guarantees a dp_work limit (the "remaining budget" that bounds each
        round); a wall limit bounds the rounds too, read off the tracker's
        clock."""
        policy = tracker.policy
        if policy.refine_rounds <= 0 or result.schedule is None:
            return
        assert budget.limit is not None
        time_limit = self.config.time_limit
        best = result.schedule
        rng = random.Random(policy.refine_rng_seed(block.name))
        for round_no in range(policy.refine_rounds):
            remaining = budget.limit - budget.spent
            wall_left = None if time_limit is None else time_limit - tracker.wall_s()
            if remaining <= 0 or (wall_left is not None and wall_left <= 0):
                break
            hints, freed = self._neighborhood_hints(best, rng, policy.refine_neighborhood)
            config = dataclasses.replace(
                self.config,
                policy=None,
                work_budget=remaining,
                time_limit=wall_left,
                fallback_to_cars=False,
            )
            rescheduler = VirtualClusterScheduler(config)
            rescheduler._hints = hints
            attempt = rescheduler.schedule(block, best.machine)
            entry: Dict[str, object] = {
                "round": round_no,
                "freed_ops": sorted(freed),
                "work": attempt.work,
                "awct": attempt.schedule.awct if attempt.schedule is not None else None,
            }
            try:
                budget.charge_block(attempt.work)
            except BudgetExhausted as exc:
                tracker.mark_exhausted(str(exc))
                entry["accepted"] = False
                tracker.refine_history.append(entry)
                break
            accepted = (
                attempt.schedule is not None
                and attempt.schedule.awct < best.awct
                and validate_schedule(attempt.schedule).ok
            )
            if accepted:
                best = attempt.schedule
                assert best is not None
                best.provenance = {"policy": "refine", "round": str(round_no)}
            entry["accepted"] = accepted
            entry["best_awct"] = best.awct
            tracker.refine_history.append(entry)
            tracker.refresh()
        result.schedule = best
        result.work = budget.spent

    @staticmethod
    def _neighborhood_hints(
        schedule: Schedule, rng: random.Random, neighborhood: int
    ) -> Tuple[Dict[int, int], List[int]]:
        """One refinement round's cycle hints.

        Samples the freed region from the operations completing latest
        (twice the neighborhood size as the pool) and hints every other
        operation at its current cycle; returns ``(hints, freed_ops)``."""
        block = schedule.block
        completion = {
            op_id: cycle + block.op(op_id).latency
            for op_id, cycle in schedule.cycles.items()
        }
        ordered = sorted(completion, key=lambda op_id: (-completion[op_id], op_id))
        pool = ordered[: max(2 * neighborhood, 1)]
        k = min(len(pool), max(1, neighborhood))
        freed = set(rng.sample(pool, k))
        hints = {op_id: cycle for op_id, cycle in schedule.cycles.items() if op_id not in freed}
        return hints, sorted(freed)

    # ------------------------------------------------------------------ #
    # minAWCT tightening (Section 4.2)
    # ------------------------------------------------------------------ #
    def _tighten_exit_bounds(
        self,
        block: Superblock,
        machine: ClusteredMachine,
        ctx: StageContext,
        shared: SchedulingState,
        max_probe: int = 6,
    ) -> Dict[int, int]:
        """Enhanced minAWCT (Section 4.2): probe each exit's earliest cycle
        through the deduction process and push it up when the DP proves it
        impossible.  Every probe runs on *shared*, which is rolled back to
        its state at entry in between and on return."""
        engine = ctx.engine
        pristine = shared.checkpoint()
        base = min_exit_cycles(block, machine)
        tightened: Dict[int, int] = {}
        for exit_id, cycle in base.items():
            chosen = cycle
            for attempt in range(max_probe):
                engine.check_time()
                engine.rollback(shared, pristine)
                result = engine.apply_sequence(
                    ctx.dp,
                    shared,
                    [SetExitDeadlines.from_mapping({exit_id: chosen})],
                    ctx.budget,
                )
                if result.ok:
                    break
                chosen += 1
            tightened[exit_id] = chosen
        engine.rollback(shared, pristine)
        return tightened

    # ------------------------------------------------------------------ #
    # per-target scheduling: run the stage pipeline
    # ------------------------------------------------------------------ #
    def _try_target(
        self,
        ctx: StageContext,
        exit_cycles: Mapping[int, int],
        state: SchedulingState,
        pristine: int,
    ) -> Optional[Schedule]:
        """Run the pipeline for one target's exit deadlines on *state*,
        rolled back to *pristine* first.  Returns the extracted schedule,
        or None with the reason in ``ctx.rejection`` — a contradiction of
        the deadlines themselves counts as a rejection too."""
        ctx.engine.rollback(state, pristine)
        result = ctx.engine.apply_sequence(
            ctx.dp, state, [SetExitDeadlines.from_mapping(exit_cycles)], ctx.budget
        )
        if not result.ok:
            ctx.reject(DEADLINES)
            return None
        if self._pipeline.run(ctx, result.state) is None:
            return None
        return ctx.schedule


def _beats(candidate: Optional[Schedule], incumbent: Optional[Schedule]) -> bool:
    """Whether *candidate* strictly improves on *incumbent* (None loses)."""
    return candidate is not None and (incumbent is None or candidate.awct < incumbent.awct)

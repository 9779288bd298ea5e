"""Anytime scheduling: budget policies with status tiers and graceful
degradation.

The paper's only answer to budget exhaustion is the timeout fallback to
CARS, which discards every deduction the VCS engine already paid for.  A
:class:`SchedulePolicy` replaces that binary with a quality dial.  The
compile-effort limits themselves live in one place,
:class:`~repro.scheduler.vcs.VcsConfig` (``work_budget`` for the
deterministic ``dp_work``, ``time_limit`` for wall time); the policy adds
a probe-count limit and says what to do as those limits fill up: it
tracks the spend, exposes a status *tier*, and defines what happens when
a limit runs out:

========== =============================================================
tier       action
========== =============================================================
healthy    full pipeline, nothing recorded beyond the spend counters
warning    tier transition recorded (service-level signal, no behaviour
           change)
critical   stages switch to *cheap mode*: the cycle-pinning stages study
           a single candidate cycle per operation and stage 1 stops
           studying optional pairs, so the remaining budget is spent
           finishing the attempt instead of exploring it
exhausted  ``exhaustion_mode`` decides: ``"fail"`` reproduces the
           paper's behaviour (abandon the attempt, fall back to the
           fallback backend), ``"finalize_partial"`` freezes the
           best-so-far valid decision set and finalizes it cheaply (see
           below), so the work already spent still shapes the output
========== =============================================================

``finalize_partial`` finalization runs a list-scheduling extraction over
the partially-fixed scheduling graph: the virtual-cluster structure the
deduction process has committed so far is mapped onto physical clusters
and handed to the CARS machinery as per-operation cluster hints
(:func:`cheap_extraction`), producing a complete schedule that still
passes :func:`~repro.scheduler.correctness.validate_schedule`.  The
scheduler emits the better of that extraction and the plain fallback
schedule, so the partial-finalize output is never worse than the paper's
timeout mechanism and usually better — the paid-for cluster decisions
survive.

A policy with leftover budget after a *successful* run can spend it
improving the schedule: ``refine_rounds`` enables the randomized-restart
/ large-neighborhood re-probing loop of
:meth:`~repro.scheduler.vcs.VirtualClusterScheduler` (release the
worst-slack region of the current best schedule, re-run the pipeline
under the remaining ``dp_work`` and wall budget, keep strict
improvements), during which every intermediate output is a complete
validated schedule — the anytime property.  Refinement needs a
``work_budget``; ``VcsConfig`` rejects ``refine_rounds`` without one.

The shape (exhaustion modes ``fail`` vs ``finalize_partial``; status
tiers healthy/warning/critical/exhausted with per-tier actions) follows
the error-budget policy engines of service-reliability tooling; here the
"error budget" is compile effort.

The default configuration — ``VcsConfig.policy = None`` — is
fail-equivalent and leaves every scheduler code path byte-identical to
the policy-free implementation; the conformance corpus
(``conformance.json``) holds that invariant.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.deduction.engine import BudgetExhausted, WorkBudget
from repro.deduction.state import SchedulingState
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.cars import CarsScheduler
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.schedule import ScheduleResult
from repro.vcluster.mapping import map_virtual_to_physical

# --------------------------------------------------------------------------- #
# tiers and modes
# --------------------------------------------------------------------------- #
TIER_HEALTHY = "healthy"
TIER_WARNING = "warning"
TIER_CRITICAL = "critical"
TIER_EXHAUSTED = "exhausted"

#: Escalation order; a tracker's tier only ever moves rightward.
TIERS: Tuple[str, ...] = (TIER_HEALTHY, TIER_WARNING, TIER_CRITICAL, TIER_EXHAUSTED)

MODE_FAIL = "fail"
MODE_FINALIZE_PARTIAL = "finalize_partial"
EXHAUSTION_MODES: Tuple[str, ...] = (MODE_FAIL, MODE_FINALIZE_PARTIAL)

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


@dataclass(frozen=True)
class SchedulePolicy:
    """Tier thresholds, probe limit, exhaustion and refinement behaviour
    of one run; the ``dp_work`` and wall limits it reacts to are
    ``VcsConfig.work_budget`` and ``VcsConfig.time_limit``.

    Pure data: picklable (it travels inside
    :class:`~repro.scheduler.vcs.VcsConfig` to runner workers), hashable,
    and round-trips through :meth:`to_dict` / :meth:`from_dict`;
    :meth:`parse` reads the compact ``key=value,key=value`` spelling of
    the ``REPRO_VCS_POLICY`` environment override.  The runtime state
    lives in :class:`PolicyTracker`, created per :meth:`schedule` call.
    """

    #: What exhaustion does: ``"fail"`` (the paper's fallback) or
    #: ``"finalize_partial"`` (freeze + cheap finalize, see module doc).
    exhaustion_mode: str = MODE_FAIL
    #: Probe-count ceiling (trail probes / copy studies); None = unlimited.
    max_probes: Optional[int] = None
    #: Tier thresholds as fractions of each limit (``work_budget``,
    #: ``time_limit``, ``max_probes``): the tracker is ``warning`` once
    #: any resource fraction reaches ``warning_at`` and ``critical`` at
    #: ``critical_at``.
    warning_at: float = 0.5
    critical_at: float = 0.85
    #: Leftover-budget refinement rounds after a successful run (0 = off;
    #: needs ``VcsConfig.work_budget``).  Each round frees the worst-slack
    #: region of the best schedule and re-runs the pipeline under the
    #: remaining dp_work and wall budget, keeping strict AWCT improvements
    #: only.
    refine_rounds: int = 0
    #: Operations released per refinement round (the "large neighborhood").
    refine_neighborhood: int = 4
    #: Seed of the deterministic refinement RNG (mixed with the block name).
    refine_seed: int = 0

    def __post_init__(self) -> None:
        if self.exhaustion_mode not in EXHAUSTION_MODES:
            raise ValueError(
                f"unknown exhaustion mode {self.exhaustion_mode!r}; "
                f"known modes: {', '.join(EXHAUSTION_MODES)}"
            )
        if not (0.0 < self.warning_at <= self.critical_at <= 1.0):
            raise ValueError(
                "tier thresholds must satisfy 0 < warning_at <= critical_at <= 1 "
                f"(got warning_at={self.warning_at}, critical_at={self.critical_at})"
            )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-serialisable description (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SchedulePolicy":
        """Build a policy from a mapping, coercing string values (JSON or
        environment sources); unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SchedulePolicy keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**{key: cls._coerce(key, value) for key, value in data.items()})

    @classmethod
    def parse(cls, text: str) -> "SchedulePolicy":
        """Parse the compact ``REPRO_VCS_POLICY`` spelling.

        Either a bare mode (``"fail"`` / ``"finalize_partial"``) or a
        comma-separated ``key=value`` list, e.g.
        ``"mode=finalize_partial,max_probes=500,refine_rounds=2"``
        (``mode`` is shorthand for ``exhaustion_mode``)."""
        text = text.strip()
        if not text:
            return cls()
        if "=" not in text:
            return cls(exhaustion_mode=text)
        data: Dict[str, str] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"invalid policy item {item!r} (expected key=value)")
            key, value = item.split("=", 1)
            key = key.strip()
            data["exhaustion_mode" if key == "mode" else key] = value.strip()
        return cls.from_dict(data)

    @staticmethod
    def _coerce(key: str, value):
        if value is None:
            return None
        if key == "exhaustion_mode":
            return str(value).strip().lower()
        if key in ("max_probes", "refine_rounds", "refine_neighborhood", "refine_seed"):
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid integer {value!r} for SchedulePolicy.{key}") from None
        if key in ("warning_at", "critical_at"):
            try:
                return float(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid number {value!r} for SchedulePolicy.{key}") from None
        if isinstance(value, str):
            text = value.strip().lower()
            if text in _BOOL_TRUE:
                return True
            if text in _BOOL_FALSE:
                return False
            raise ValueError(f"invalid value {value!r} for SchedulePolicy.{key}")
        return value

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    @property
    def finalizes_partial(self) -> bool:
        return self.exhaustion_mode == MODE_FINALIZE_PARTIAL

    def refine_rng_seed(self, block_name: str) -> int:
        """The deterministic per-block seed of the refinement RNG."""
        return (self.refine_seed << 16) ^ zlib.crc32(block_name.encode("utf-8"))


class PolicyTracker:
    """Runtime spend tracking of one :class:`SchedulePolicy`.

    Created per :meth:`~repro.scheduler.vcs.VirtualClusterScheduler.schedule`
    call; observes the run's :class:`WorkBudget` (tier-transition marks on
    ``charge``/``charge_block``), counts probes through
    :meth:`note_probe`, and records every tier transition with the spend
    coordinates at which it happened.  ``wall_limit`` is the run's
    enforced wall-clock limit (``VcsConfig.time_limit``).  The tier never
    de-escalates: resource fractions only grow within a run.
    """

    def __init__(
        self,
        policy: SchedulePolicy,
        budget: WorkBudget,
        started: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        wall_limit: Optional[float] = None,
    ) -> None:
        self.policy = policy
        self.budget = budget
        self.clock = clock
        self.wall_limit = wall_limit
        self.started = clock() if started is None else started
        self.probes = 0
        self.tier = TIER_HEALTHY
        #: ``{"tier", "dp_work", "probes", "wall_s"}`` per transition, in
        #: escalation order (the initial healthy entry included so the
        #: trace always starts at the origin).
        self.transitions: List[Dict[str, object]] = []
        self.exhausted_reason: Optional[str] = None
        #: Filled by the refine phase: one entry per round.
        self.refine_history: List[Dict[str, object]] = []
        self._record(TIER_HEALTHY)

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach(self, budget: WorkBudget) -> None:
        """Install the tier marks on *budget*; its limit
        (``VcsConfig.work_budget``) is the dp_work ceiling, taken as is.

        The observer fires exactly at the spend values where a tier
        threshold is crossed, so tier transitions cost nothing in
        between."""
        budget.observer = self._on_budget
        budget.notify_at = self._next_dp_mark()

    def _on_budget(self, budget: WorkBudget) -> None:
        self.refresh()

    def _next_dp_mark(self) -> Optional[int]:
        """The next ``spent`` value at which the tier can change."""
        limit = self.budget.limit
        if limit is None:
            return None
        index = TIERS.index(self.tier)
        if index < TIERS.index(TIER_WARNING):
            fraction = self.policy.warning_at
        elif index < TIERS.index(TIER_CRITICAL):
            fraction = self.policy.critical_at
        else:
            return None
        # The first integer spend at/above the threshold.
        return max(1, math.ceil(fraction * limit))

    # ------------------------------------------------------------------ #
    # spend accounting
    # ------------------------------------------------------------------ #
    def note_probe(self) -> None:
        """Count one candidate probe; raises on probe-budget exhaustion."""
        self.probes += 1
        limit = self.policy.max_probes
        if limit is not None and self.probes > limit:
            message = f"probe budget of {limit} probes exhausted ({self.probes} spent)"
            raise BudgetExhausted(message)
        self.refresh()

    def wall_s(self) -> float:
        return self.clock() - self.started

    def fractions(self) -> Dict[str, float]:
        """How full each limited resource is (absent = unlimited)."""
        out: Dict[str, float] = {}
        if self.budget.limit:
            out["dp_work"] = self.budget.spent / self.budget.limit
        if self.policy.max_probes:
            out["probes"] = self.probes / self.policy.max_probes
        if self.wall_limit:
            out["wall"] = self.wall_s() / self.wall_limit
        return out

    def refresh(self) -> str:
        """Recompute the tier from the current spend; record transitions."""
        if self.tier == TIER_EXHAUSTED:
            return self.tier
        fractions = self.fractions()
        fraction = max(fractions.values(), default=0.0)
        if fraction >= self.policy.critical_at:
            target = TIER_CRITICAL
        elif fraction >= self.policy.warning_at:
            target = TIER_WARNING
        else:
            target = TIER_HEALTHY
        if TIERS.index(target) > TIERS.index(self.tier):
            self.tier = target
            self._record(target)
            self.budget.notify_at = self._next_dp_mark()
        return self.tier

    def mark_exhausted(self, reason: str) -> None:
        """Record the terminal transition (called by the scheduler's
        exhaustion handler, whatever resource raised)."""
        if self.tier != TIER_EXHAUSTED:
            self.tier = TIER_EXHAUSTED
            self._record(TIER_EXHAUSTED)
            self.budget.notify_at = None
        self.exhausted_reason = reason

    def _record(self, tier: str) -> None:
        self.transitions.append(
            {
                "tier": tier,
                "dp_work": self.budget.spent,
                "probes": self.probes,
                "wall_s": self.wall_s(),
            }
        )

    # ------------------------------------------------------------------ #
    # per-tier actions
    # ------------------------------------------------------------------ #
    @property
    def cheap(self) -> bool:
        """Whether stages should run in cheap mode (critical or worse)."""
        return self.tier in (TIER_CRITICAL, TIER_EXHAUSTED)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self, partial: bool, source: str) -> Dict[str, object]:
        """The ``ScheduleResult.policy`` payload.

        ``partial`` says whether the result was finalized from a
        partially-decided state; ``source`` names what produced the
        emitted schedule (``"vcs"``, ``"partial-extraction"``,
        ``"fallback"``).  Wall readings ride along for reporting; the
        fingerprint provenance uses only the deterministic fields."""
        return {
            "mode": self.policy.exhaustion_mode,
            "tier": self.tier,
            "partial_finalize": partial,
            "source": source,
            "transitions": [dict(t) for t in self.transitions],
            "probes": self.probes,
            "dp_limit": self.budget.limit,
            "dp_spent": self.budget.spent,
            "exhausted_reason": self.exhausted_reason,
            "refine": [dict(r) for r in self.refine_history],
        }


# --------------------------------------------------------------------------- #
# cheap finalization of a partially-decided state
# --------------------------------------------------------------------------- #
def partial_cluster_hints(state: SchedulingState) -> Dict[int, int]:
    """Per-operation cluster hints from a partially-decided state.

    Maps the virtual-cluster structure the deduction process has committed
    so far onto physical clusters (injective first, like the extraction
    stage) and reads each original operation's cluster off the mapping.
    Empty when the VCG cannot be mapped — the extraction then degrades to
    plain CARS."""
    n_clusters = state.machine.n_clusters
    mapping = map_virtual_to_physical(state.vcg, n_clusters, injective=True)
    if mapping is None:
        mapping = map_virtual_to_physical(state.vcg, n_clusters)
    if mapping is None:
        return {}
    return {op_id: mapping[state.vcg.vc_of(op_id)] for op_id in state.original_ids}


def cheap_extraction(
    block: Superblock,
    machine: ClusteredMachine,
    state: Optional[SchedulingState],
) -> Optional[ScheduleResult]:
    """List-scheduling extraction over the partially-fixed scheduling graph.

    Runs the CARS machinery with the partial state's cluster decisions as
    hints (see :class:`~repro.scheduler.cars.CarsScheduler`): dependences,
    per-cycle resources and interconnect occupancy are enforced by the
    list scheduler, so the result is a complete schedule by construction;
    it is validated anyway and ``None`` is returned when anything is off
    (the caller then falls back)."""
    hints = partial_cluster_hints(state) if state is not None else {}
    extractor = CarsScheduler(cluster_hints=hints or None)
    try:
        result = extractor.schedule(block, machine)
    except RuntimeError:  # exceeded max_cycles: treat as "no extraction"
        return None
    if result.schedule is None or not validate_schedule(result.schedule).ok:
        return None
    return result

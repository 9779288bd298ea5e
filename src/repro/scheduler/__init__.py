"""Schedulers: the proposed virtual-cluster scheduler and the baselines.

* :class:`~repro.scheduler.vcs.VirtualClusterScheduler` — the paper's
  technique (scheduling graph + virtual clusters + deduction process,
  Section 4), its six decision stages composed from
  :mod:`repro.scheduler.pipeline`.
* :class:`~repro.scheduler.cars.CarsScheduler` — the CARS baseline (unified
  assign-and-schedule list scheduling, Kailas et al.), the comparison point
  of the paper's evaluation.
* :class:`~repro.scheduler.list_scheduler.ListScheduler` — a plain list
  scheduler with naive cluster assignment, useful as a sanity reference.
* :class:`~repro.scheduler.policy.SchedulePolicy` — anytime-scheduling
  budget policies: spend limits with status tiers, graceful degradation
  on exhaustion (``finalize_partial``) and leftover-budget refinement.

All backends are registered by name in :mod:`repro.scheduler.registry`
(``create("vcs" | "cars" | "list", ...)``) and produce a
:class:`~repro.scheduler.schedule.Schedule` that can be checked with
:func:`~repro.scheduler.correctness.validate_schedule` and scored with
the AWCT metric.
"""

from repro.scheduler.schedule import Schedule, ScheduledComm, ScheduleResult
from repro.scheduler.correctness import ScheduleError, ValidationReport, validate_schedule
from repro.scheduler.list_scheduler import ListScheduler
from repro.scheduler.cars import CarsScheduler
from repro.scheduler.heuristics import state_score, compare_states
from repro.scheduler.pipeline import (
    DecisionStage,
    ProbeEngine,
    StageContext,
    StagePipeline,
    UnknownStageError,
    available_stages,
    resolve_stage_order,
)
from repro.scheduler.policy import (
    TIERS,
    PolicyTracker,
    SchedulePolicy,
    cheap_extraction,
    partial_cluster_hints,
)
from repro.scheduler.fingerprint import (
    CODE_SALT,
    block_digest,
    machine_digest,
    schedule_cache_key,
    spec_digest,
)
from repro.scheduler.vcs import VcsConfig, VirtualClusterScheduler
from repro.scheduler.registry import (
    BackendInfo,
    BackendSpec,
    SchedulerBackend,
    UnknownBackendError,
    available_backends,
    backend_info,
    create,
    register_backend,
)

__all__ = [
    "Schedule",
    "ScheduledComm",
    "ScheduleResult",
    "ScheduleError",
    "ValidationReport",
    "validate_schedule",
    "ListScheduler",
    "CarsScheduler",
    "state_score",
    "compare_states",
    "DecisionStage",
    "ProbeEngine",
    "StageContext",
    "StagePipeline",
    "UnknownStageError",
    "available_stages",
    "resolve_stage_order",
    "TIERS",
    "PolicyTracker",
    "SchedulePolicy",
    "cheap_extraction",
    "partial_cluster_hints",
    "CODE_SALT",
    "block_digest",
    "machine_digest",
    "schedule_cache_key",
    "spec_digest",
    "VcsConfig",
    "VirtualClusterScheduler",
    "BackendInfo",
    "BackendSpec",
    "SchedulerBackend",
    "UnknownBackendError",
    "available_backends",
    "backend_info",
    "create",
    "register_backend",
]

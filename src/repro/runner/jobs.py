"""Scheduling jobs: the picklable unit of work of the parallel runner.

A :class:`ScheduleJob` fully describes one scheduler run — which
scheduler backend (any name registered in
:mod:`repro.scheduler.registry`), on which superblock, on which machine,
under which configuration — and carries a stable, human-readable job id
so batches can be enumerated, sharded, retried and merged
deterministically.  Because the backend is named rather than
instantiated, a single batch can mix heterogeneous backends
(``cars``/``vcs``/``hybrid``/``list``) and still shard across worker
processes: the job pickles its :class:`~repro.scheduler.BackendSpec`
coordinates, and the worker instantiates the backend on its side.
:func:`run_schedule_job` is the module-level worker entry point (module
level so it pickles by reference under every multiprocessing start
method).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.runner.cache import CacheSpec, CacheStats, worker_cache
from repro.runner.pool import MachineRef, resolve_machine
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.fingerprint import schedule_cache_key
from repro.scheduler.registry import BackendSpec, backend_info
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig
from repro.workloads.suite import stable_block_id

#: The default baseline/proposed pair of the paper's experiments.  Any
#: backend registered in :mod:`repro.scheduler.registry` is a valid
#: ``ScheduleJob.scheduler``; this tuple is only the default comparison.
SCHEDULER_KINDS = ("cars", "vcs")


def schedule_job_id(
    scheduler: str,
    workload_name: str,
    machine_name: str,
    block_index: int,
    block_name: str,
) -> str:
    """The stable id of one (scheduler, workload, machine, block) job.

    Built on :func:`repro.workloads.suite.stable_block_id` — one id scheme
    for blocks across the whole system.  Ids are pure functions of the
    job's coordinates — independent of enumeration order, worker
    assignment and completion order — so a parallel batch and a serial
    batch name identical jobs identically.
    """
    return f"{scheduler}:{machine_name}:{stable_block_id(workload_name, block_index, block_name)}"


@dataclass(frozen=True)
class ScheduleJob:
    """One scheduler-backend run on one block of one machine."""

    job_id: str
    #: A backend name registered in :mod:`repro.scheduler.registry`.
    scheduler: str
    block: Superblock
    machine: ClusteredMachine
    vcs_config: Optional[VcsConfig] = None
    #: Validate the produced schedule inside the worker (parallelises the
    #: correctness check along with the scheduling).
    check_schedule: bool = True
    #: Backend-specific constructor options, as sorted ``(key, value)``
    #: pairs so the job stays hashable and picklable.
    backend_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Raises UnknownBackendError for unregistered names — validation
        # happens at enumeration time, not inside a worker process.
        backend_info(self.scheduler)

    @property
    def spec(self) -> BackendSpec:
        """The job's backend coordinates as a :class:`BackendSpec`."""
        return BackendSpec(
            name=self.scheduler, vcs=self.vcs_config, options=self.backend_options
        )


def run_schedule_job(job: ScheduleJob) -> ScheduleResult:
    """Execute one job; the worker entry point of schedule batches."""
    result = job.spec.create().schedule(job.block, job.machine)
    if job.check_schedule and result.schedule is not None:
        validate_schedule(result.schedule).raise_if_invalid()
    return result


@dataclass(frozen=True)
class JobPayload:
    """The wire form of one :class:`ScheduleJob` on the runner.

    On the parallel path the job's machine is stripped and replaced by a
    :class:`~repro.runner.pool.MachineRef` (digest + declarative spec),
    so repeated jobs on the same machine ship a small reference payload
    that warm workers resolve against their per-process intern table
    instead of unpickling a full ``ClusteredMachine`` per job.  The
    payload also carries the :class:`~repro.runner.cache.CacheSpec` and
    the job's precomputed content-addressed cache key, so workers never
    consult the environment.
    """

    job: ScheduleJob
    #: ``None`` on the serial path (the job keeps its machine object).
    machine_ref: Optional[MachineRef] = None
    cache: CacheSpec = CacheSpec.disabled()
    #: Empty when caching is off for this payload.
    cache_key: str = ""

    @property
    def job_id(self) -> str:
        return self.job.job_id


def _run_payload_job(payload: JobPayload) -> Tuple[str, ScheduleResult]:
    """Worker entry point of cache-aware batches.

    Returns ``(outcome, result)`` where outcome is ``"hit"`` (served from
    the result cache), ``"miss"`` (computed and stored) or ``"off"``
    (computed, caching disabled) — the parent folds the tags into
    ``BatchResult.cache``, since worker-process counters are invisible
    across the process boundary.
    """
    job = payload.job
    if payload.machine_ref is not None:
        job = replace(job, machine=resolve_machine(payload.machine_ref))
    cache = worker_cache(payload.cache)
    if cache is not None and payload.cache_key:
        hit = cache.get(payload.cache_key)
        if hit is not None:
            return ("hit", hit)
    result = run_schedule_job(job)
    if cache is not None and payload.cache_key:
        cache.put(payload.cache_key, result)
        return ("miss", result)
    return ("off", result)


def _resolve_cache_spec(cache: object) -> CacheSpec:
    if cache is None:
        return CacheSpec.from_env()
    if isinstance(cache, CacheSpec):
        return cache
    spec = getattr(cache, "spec", None)
    if callable(spec):
        # A ResultCache instance.
        return spec()
    raise TypeError(f"cache must be None, a CacheSpec or a ResultCache, got {type(cache).__name__}")


def job_cache_key(job: ScheduleJob, spec: CacheSpec) -> str:
    """The job's content-addressed result-cache key; empty when *spec*
    disables caching.  The key the job server derives from the same job's
    JSON (:func:`repro.scheduler.fingerprint.wire_cache_key`)."""
    if not (spec.enabled and spec.root):
        return ""
    return schedule_cache_key(job.block, job.machine, job.spec.to_dict(), salt=spec.salt)


def _execute_job_batch(
    jobs: Sequence[ScheduleJob],
    runner: Optional["BatchScheduler"] = None,
    cache: object = None,
    on_error: str = "raise",
) -> "BatchResult":
    """Run a job list through the (cached, machine-interned) batch runner.

    The execution core behind :func:`repro.api.schedule_many` (the public
    entry point) and the HTTP job server: jobs are keyed by content
    (:func:`repro.scheduler.fingerprint.schedule_cache_key`)
    and served from the on-disk result cache when possible; cache misses
    compute and store.  ``cache=None`` follows the environment
    (``REPRO_CACHE``/``REPRO_CACHE_DIR``); pass
    :meth:`CacheSpec.disabled() <repro.runner.cache.CacheSpec.disabled>`
    to force cold computes.  On the parallel path machines travel as
    interned references (see :class:`JobPayload`); the serial path keeps
    the original machine objects.  Values come back in submission order
    with ``BatchResult.cache`` aggregating worker-side hit/miss/store
    outcomes.
    """
    from repro.runner.batch import BatchError, BatchScheduler

    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    runner = runner if runner is not None else BatchScheduler()
    spec = _resolve_cache_spec(cache)
    jobs = list(jobs)
    intern_machines = runner.n_workers > 1

    payloads: List[JobPayload] = []
    for job in jobs:
        key = job_cache_key(job, spec)
        if intern_machines:
            payloads.append(
                JobPayload(
                    job=replace(job, machine=None),
                    machine_ref=MachineRef.of(job.machine),
                    cache=spec,
                    cache_key=key,
                )
            )
        else:
            payloads.append(JobPayload(job=job, cache=spec, cache_key=key))

    result = runner.map(
        _run_payload_job,
        payloads,
        job_ids=[job.job_id for job in jobs],
        on_error="capture",
    )
    stats = CacheStats()
    outcomes: List[str] = [""] * len(result.values)
    for index, value in enumerate(result.values):
        if value is None:
            continue
        outcome, schedule_result = value
        stats.record(outcome)
        outcomes[index] = outcome
        result.values[index] = schedule_result
    result.cache = stats
    result.cache_outcomes = outcomes
    if result.failures and on_error == "raise":
        raise BatchError(result.failures)
    return result


def enumerate_workload_jobs(
    workload_name: str,
    blocks: Sequence[Superblock],
    machine: ClusteredMachine,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
) -> List[ScheduleJob]:
    """Enumerate the jobs of one workload on one machine, in the canonical
    order: blocks in position order, ``schedulers`` order within a block.

    The canonical order is the contract the deterministic merge relies
    on: results are reassembled by job list position, so any two calls
    with the same inputs enumerate identical job lists.  ``vcs_config``
    is attached to the backends that consume it (``vcs``, ``hybrid``, …)
    and omitted from the rest, so one call can enumerate a heterogeneous
    backend comparison.
    """
    jobs: List[ScheduleJob] = []
    for index, block in enumerate(blocks):
        for scheduler in schedulers:
            jobs.append(
                ScheduleJob(
                    job_id=schedule_job_id(
                        scheduler, workload_name, machine.name, index, block.name
                    ),
                    scheduler=scheduler,
                    block=block,
                    machine=machine,
                    vcs_config=(
                        vcs_config if backend_info(scheduler).uses_vcs_config else None
                    ),
                    check_schedule=check_schedules,
                )
            )
    return jobs


def fingerprint_digest(fingerprints: Iterable[object]) -> str:
    """A stable hex digest of a sequence of schedule fingerprints.

    ``fingerprint_digest([result.fingerprint()])`` is the per-case digest
    of the conformance corpus (``conformance.json``) and of
    :class:`~repro.api.ScheduleResponse`; over several results it digests
    a whole population (a scenario cell) byte-for-byte without storing
    it.
    """
    canonical = json.dumps(list(fingerprints), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

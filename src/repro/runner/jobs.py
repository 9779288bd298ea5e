"""Scheduling jobs on the runner: one :class:`repro.api.ScheduleRequest`
per scheduler run.

A request fully describes one run — which scheduler backend (any name
registered in :mod:`repro.scheduler.registry`), on which superblock, on
which machine, under which configuration — and
:func:`enumerate_workload_jobs` names each with a stable job id
(:func:`schedule_job_id`) so batches can be enumerated, sharded, retried
and merged deterministically.  Because the backend is named rather than
instantiated, a single batch can mix heterogeneous backends
(``cars``/``vcs``/``hybrid``/``list``) and still shard across worker
processes: the request pickles its :class:`~repro.scheduler.BackendSpec`
coordinates, and the worker instantiates the backend on its side.
:func:`run_schedule_job` is the module-level worker entry point (module
level so it pickles by reference under every multiprocessing start
method).

``repro.api`` imports this module, so ``ScheduleRequest`` is named here
only for type checking and imported inside :func:`enumerate_workload_jobs`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.runner.cache import CacheSpec, CacheStats, worker_cache
from repro.runner.pool import MachineRef, resolve_machine
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.fingerprint import schedule_cache_key
from repro.scheduler.registry import backend_info
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig
from repro.workloads.suite import stable_block_id

if TYPE_CHECKING:
    from repro.api import ScheduleRequest
    from repro.runner.batch import BatchResult, BatchScheduler

#: The default baseline/proposed pair of the paper's experiments.  Any
#: backend registered in :mod:`repro.scheduler.registry` is a valid
#: ``ScheduleRequest.backend``; this tuple is only the default comparison.
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


def run_schedule_job(request: ScheduleRequest) -> ScheduleResult:
    """Execute one request; the worker entry point of schedule batches."""
    result = request.spec.create().schedule(request.block, request.machine)
    if request.check_schedule and result.schedule is not None:
        validate_schedule(result.schedule).raise_if_invalid()
    return result


@dataclass(frozen=True)
class JobPayload:
    """The wire form of one request on the runner, serial or pool.

    The request's machine is stripped and replaced by a
    :class:`~repro.runner.pool.MachineRef` (digest + declarative spec),
    so repeated jobs on the same machine ship a small reference payload
    that the executing process resolves against its intern table
    instead of unpickling a full ``ClusteredMachine`` per job.  The
    payload also carries the :class:`~repro.runner.cache.CacheSpec` and
    the job's precomputed content-addressed cache key, so workers never
    consult the environment.
    """

    #: The request with ``machine=None`` and its job id pinned.
    request: ScheduleRequest
    machine_ref: MachineRef
    cache: CacheSpec = CacheSpec.disabled()
    #: Empty when caching is off for this payload.
    cache_key: str = ""

    @property
    def job_id(self) -> str:
        return self.request.job_id


def _run_payload_job(payload: JobPayload) -> Tuple[str, ScheduleResult]:
    """Worker entry point of cache-aware batches.

    Returns ``(outcome, result)`` where outcome is ``"hit"`` (served from
    the result cache), ``"miss"`` (computed and stored) or ``"off"``
    (computed, caching disabled) — the parent folds the tags into
    ``BatchResult.cache``, since worker-process counters are invisible
    across the process boundary.
    """
    cache = worker_cache(payload.cache)
    if cache is not None and payload.cache_key:
        hit = cache.get(payload.cache_key)
        if hit is not None:
            return ("hit", hit)
    result = run_schedule_job(
        replace(payload.request, machine=resolve_machine(payload.machine_ref))
    )
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


def job_cache_key(request: ScheduleRequest, spec: CacheSpec) -> str:
    """The request's content-addressed result-cache key; empty when *spec*
    disables caching.  The key the job server derives from the same
    request's JSON (:func:`repro.scheduler.fingerprint.wire_cache_key`)."""
    if not (spec.enabled and spec.root):
        return ""
    return schedule_cache_key(
        request.block, request.machine, request.spec.to_dict(), salt=spec.salt
    )


def _execute_job_batch(
    requests: Sequence[ScheduleRequest],
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
    on_error: str = "raise",
) -> BatchResult:
    """Run a request list through the (cached, machine-interned) batch
    runner.

    The execution core behind :func:`repro.api.schedule_many` (the public
    entry point) and the HTTP job server: requests are keyed by content
    (:func:`repro.scheduler.fingerprint.schedule_cache_key`)
    and served from the on-disk result cache when possible; cache misses
    compute and store.  ``cache=None`` follows the environment
    (``REPRO_CACHE``/``REPRO_CACHE_DIR``); pass
    :meth:`CacheSpec.disabled() <repro.runner.cache.CacheSpec.disabled>`
    to force cold computes.  Serial and pool paths ship the same
    :class:`JobPayload`, machines travelling as interned references.
    Values come back in submission order with ``BatchResult.cache``
    aggregating worker-side hit/miss/store outcomes.
    """
    from repro.runner.batch import BatchError, BatchScheduler

    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    runner = runner if runner is not None else BatchScheduler()
    spec = _resolve_cache_spec(cache)
    payloads = [
        JobPayload(
            request=replace(request, job_name=request.job_id, machine=None),
            machine_ref=MachineRef.of(request.machine),
            cache=spec,
            cache_key=job_cache_key(request, spec),
        )
        for request in requests
    ]

    result = runner.map(
        _run_payload_job,
        payloads,
        job_ids=[payload.job_id for payload in payloads],
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
) -> List[ScheduleRequest]:
    """Enumerate the requests of one workload on one machine, in the
    canonical order: blocks in position order, ``schedulers`` order
    within a block.

    The canonical order is the contract the deterministic merge relies
    on: results are reassembled by job list position, so any two calls
    with the same inputs enumerate identical job lists.  Each request's
    ``job_name`` is its :func:`schedule_job_id`.  ``vcs_config`` is
    attached to the backends that consume it (``vcs``, ``hybrid``, …)
    and omitted from the rest, so one call can enumerate a heterogeneous
    backend comparison.
    """
    from repro.api import ScheduleRequest

    return [
        ScheduleRequest(
            block=block,
            machine=machine,
            backend=scheduler,
            vcs=vcs_config if backend_info(scheduler).uses_vcs_config else None,
            check_schedule=check_schedules,
            job_name=schedule_job_id(scheduler, workload_name, machine.name, index, block.name),
        )
        for index, block in enumerate(blocks)
        for scheduler in schedulers
    ]


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

"""Parallel batch execution of independent scheduling jobs.

Block-level scheduling is embarrassingly parallel: every (superblock,
machine, scheduler) job is independent and deterministic, so the whole
paper evaluation (Figures 10-12, the conformance gate, ``repro suite``)
can be sharded across a process pool.  The package provides:

* :class:`BatchScheduler` — dispatches a job list across a
  ``ProcessPoolExecutor`` in work-stealing strides (per-job error and
  timeout capture) and merges the results back into submission order, so
  the output is byte-identical to a serial run regardless of completion
  order.  ``REPRO_JOBS=1`` (the default) selects an in-process serial
  backend with the same interface.
* :mod:`repro.runner.pool` — the process-wide persistent worker pool
  batches run on by default: warm workers that pre-import the package
  and intern reconstructed machines by digest, one executor reused
  across every batch of a suite run (``REPRO_POOL=fresh`` opts out).
* :mod:`repro.runner.cache` — the content-addressed on-disk result
  cache (``REPRO_CACHE``/``REPRO_CACHE_DIR``): schedule results keyed
  by (block digest, machine digest, backend spec, code salt), so warm
  suite re-runs recompute only changed cells.
* :class:`ScheduleJob` / :func:`run_schedule_job` — the picklable job
  description and the module-level worker that executes one scheduler on
  one block; :func:`repro.api.schedule_many` is the cache-aware,
  machine-interning driver the suite entry points use.
* :func:`enumerate_workload_jobs` — deterministic job enumeration with
  stable job ids for one workload on one machine.

The determinism guarantee is documented in DESIGN.md ("The parallel
runner"); ``tests/test_runner.py`` enforces it.
"""

from repro.runner.batch import (
    BatchError,
    BatchResult,
    BatchScheduler,
    JobFailure,
    resolve_jobs,
)
from repro.runner.cache import (
    CacheSpec,
    CacheStats,
    ResultCache,
    cache_enabled,
    default_cache_dir,
)
from repro.runner.jobs import (
    SCHEDULER_KINDS,
    JobPayload,
    ScheduleJob,
    enumerate_workload_jobs,
    fingerprint_digest,
    run_schedule_job,
    schedule_job_id,
)
from repro.runner.pool import (
    MachineRef,
    PersistentPool,
    shared_pool,
    shared_pool_stats,
    shutdown_shared_pools,
)

__all__ = [
    "BatchError",
    "BatchResult",
    "BatchScheduler",
    "JobFailure",
    "resolve_jobs",
    "CacheSpec",
    "CacheStats",
    "ResultCache",
    "cache_enabled",
    "default_cache_dir",
    "SCHEDULER_KINDS",
    "JobPayload",
    "ScheduleJob",
    "enumerate_workload_jobs",
    "fingerprint_digest",
    "run_schedule_job",
    "schedule_job_id",
    "MachineRef",
    "PersistentPool",
    "shared_pool",
    "shared_pool_stats",
    "shutdown_shared_pools",
]

"""The batch scheduler: deterministic parallel execution of a job list.

Jobs are assumed independent and deterministic.  Each job is one pool
task, and its result is written back into the slot of its originating
job, so the returned value list is in submission order no matter which
worker finished first — a parallel run is byte-identical to a serial
one.  Idle workers pull the next pending job off the executor's queue,
so a straggler never holds finished work behind it.

By default batches run on the process-wide persistent pool
(:mod:`repro.runner.pool`): the executor survives across
``map`` calls, so a suite of many small batches pays worker spin-up and
package import once instead of per batch.  ``persistent=False`` gives
one batch an executor of its own.

Failure handling is per job: an exception inside a job is captured in
the worker (type, message, traceback) and reported as a
:class:`JobFailure`.  Two whole-pool failure modes are also mapped back
onto jobs: a worker process that dies (``BrokenProcessPool``) fails
every job still in flight, and a job that outlives its ``timeout``
tears the pool down and fails the unfinished jobs as ``timeout`` /
``cancelled``.  In both cases a shared pool is *replaced*, not merely
shut down — the next batch transparently gets a fresh pool.  A batch
whose executor was torn down by *another* batch sharing the pool did
nothing wrong: each of its unfinished jobs is resubmitted once on the
fresh executor.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.config import env_knob, parse_jobs
from repro.runner.cache import CacheStats
from repro.runner.pool import PersistentPool, shared_pool

#: Environment variable selecting the default worker count.
JOBS_ENV_VAR = env_knob("jobs").env


def resolve_jobs(jobs: Optional[object] = None) -> int:
    """Resolve a worker count from an explicit value or ``REPRO_JOBS``.

    ``None`` falls back to the environment variable, and an unset
    environment means serial execution.  ``"auto"`` selects the machine's
    CPU count.  Anything else must be a positive integer — zero and
    negative counts are rejected with :class:`ValueError` (use ``"auto"``
    to ask for the CPU count explicitly).  The parse rule lives in
    :func:`repro.config.parse_jobs` (precedence: explicit arg > env >
    default).
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV_VAR, "1")
    return parse_jobs(jobs)


@dataclass(frozen=True)
class JobFailure:
    """One job that did not produce a result."""

    index: int
    job_id: str
    #: ``"error"`` (exception in the job), ``"timeout"`` (job deadline
    #: expired), ``"crash"`` (worker process died) or ``"cancelled"``
    #: (job abandoned while tearing the pool down).
    kind: str
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""

    def describe(self) -> str:
        detail = f": {self.error_type}: {self.message}" if self.error_type else ""
        return f"job {self.job_id} [{self.kind}]{detail}"


class BatchError(RuntimeError):
    """Raised when a batch had failures and ``on_error='raise'``."""

    def __init__(self, failures: Sequence[JobFailure]):
        self.failures = list(failures)
        lines = [failure.describe() for failure in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"... and {len(self.failures) - 5} more")
        super().__init__(f"{len(self.failures)} of the batch's jobs failed:\n" + "\n".join(lines))


@dataclass
class BatchResult:
    """Outcome of one batch, in submission order."""

    #: One entry per job, in submission order; ``None`` for failed jobs.
    values: List[Any]
    failures: List[JobFailure] = field(default_factory=list)
    wall_time: float = 0.0
    n_workers: int = 1
    backend: str = "serial"
    #: Result-cache hit/miss/store counters aggregated from the workers;
    #: ``None`` when the batch ran without a cache-aware job function.
    cache: Optional[CacheStats] = None
    #: Per-job outcome tags (``"hit"``/``"miss"``/``"off"``; ``""`` for
    #: failed jobs), in submission order — the per-job split behind the
    #: aggregate ``cache`` counters.  ``None`` outside cache-aware runs.
    cache_outcomes: Optional[List[str]] = None

    @property
    def n_jobs(self) -> int:
        return len(self.values)

    @property
    def ok(self) -> bool:
        return not self.failures

    def harvest(self, index: int, job_id: str, outcome: Tuple[str, Any]) -> None:
        """Fold one :func:`_run_job` outcome into slot *index*."""
        tag, value = outcome
        if tag == "ok":
            self.values[index] = value
        else:
            self.failures.append(JobFailure(index, job_id, "error", *value))


def _run_job(fn: Callable[[Any], Any], payload: Any) -> Tuple[str, Any]:
    """Run one job, capturing its error: the pool's task and the serial
    backend's step.

    Module-level so it pickles by reference under every start method.
    """
    # Exception (not BaseException): SystemExit/KeyboardInterrupt abort
    # the worker, or the serial batch.
    try:
        return "ok", fn(payload)
    except Exception as exc:
        return "err", (type(exc).__name__, str(exc), traceback.format_exc())


class BatchScheduler:
    """Run a list of independent jobs across worker processes, one job per
    pool task.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` reads ``REPRO_JOBS`` (default 1 = serial),
        ``"auto"`` or values <= 0 use the CPU count.
    timeout:
        Per-job time allowance in seconds; ``None`` disables the
        deadline.  Only the process backend can preempt; the serial
        backend runs every job to completion.
    persistent:
        Reuse the process-wide shared pool (:func:`repro.runner.pool.shared_pool`)
        across batches (the default); ``False`` spins up an executor per
        ``map`` call.
    """

    def __init__(
        self,
        jobs: Optional[object] = None,
        timeout: Optional[float] = None,
        persistent: bool = True,
    ):
        self.n_workers = resolve_jobs(jobs)
        self.timeout = timeout
        self.persistent = persistent

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        job_ids: Optional[Sequence[str]] = None,
        on_error: str = "raise",
    ) -> BatchResult:
        """Run ``fn`` over ``payloads``; results come back in input order.

        ``on_error='raise'`` raises :class:`BatchError` if any job failed;
        ``on_error='capture'`` returns the failures in the result instead,
        with ``None`` in the failed jobs' value slots.

        With more than one worker every non-empty batch runs on the pool,
        a one-job batch included, so the caller's process never computes
        a job; with one worker the batch runs serially in the caller.
        Several threads may map on the same shared pool at once.
        """
        if on_error not in ("raise", "capture"):
            raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
        payloads = list(payloads)
        ids = self._job_ids(payloads, job_ids)

        start = time.perf_counter()
        if self.n_workers == 1 or not payloads:
            result = BatchResult(values=[None] * len(payloads), backend="serial")
            for index, payload in enumerate(payloads):
                result.harvest(index, ids[index], _run_job(fn, payload))
        else:
            result = self._map_process_pool(fn, payloads, ids)
        result.wall_time = time.perf_counter() - start

        if result.failures and on_error == "raise":
            raise BatchError(result.failures)
        return result

    # ------------------------------------------------------------------ #
    # the process backend
    # ------------------------------------------------------------------ #
    def _acquire_executor(self) -> Tuple[ProcessPoolExecutor, Optional[PersistentPool]]:
        """The executor to run on, plus the shared pool owning it (if any)."""
        if self.persistent:
            pool = shared_pool(self.n_workers)
            try:
                return pool.executor(), pool
            except Exception:
                # A broken registry entry (e.g. executor shut down behind
                # our back): replace and retry once before giving up.
                pool.replace()
                return pool.executor(), pool
        return ProcessPoolExecutor(max_workers=self.n_workers), None

    def _map_process_pool(self, fn, payloads, ids) -> BatchResult:
        # One job per pool task: idle workers pull the next pending job,
        # so a straggler never holds finished work behind it.  Results
        # land in values[index] whatever the completion order.
        result = BatchResult(
            values=[None] * len(payloads), n_workers=self.n_workers, backend="process"
        )
        aborted = False

        def fail(index: int, kind: str, exc: Optional[BaseException] = None) -> None:
            error = (type(exc).__name__, str(exc)) if exc is not None else ()
            result.failures.append(JobFailure(index, ids[index], kind, *error))

        def submit_all(executor):
            futures = []
            for payload in payloads:
                try:
                    future = executor.submit(_run_job, fn, payload)
                except (BrokenProcessPool, RuntimeError) as exc:
                    if not futures:
                        raise
                    # The pool broke under a job already submitted: this
                    # job fails (or is retried) with it below.
                    future = Future()
                    future.set_exception(BrokenProcessPool(str(exc)))
                futures.append(future)
            return futures

        executor, pool = self._acquire_executor()
        try:
            try:
                futures = submit_all(executor)
            except (BrokenProcessPool, RuntimeError):
                # The shared executor died between batches; replace it and
                # resubmit the whole batch on a fresh pool.
                if pool is None:
                    raise
                pool.replace(executor)
                executor = pool.executor()
                futures = submit_all(executor)
            for index, future in enumerate(futures):
                if aborted:
                    # The pool is gone; keep whatever already finished and
                    # fail the rest without waiting.
                    if future.cancelled():
                        fail(index, "cancelled")
                    elif future.done():
                        exc = future.exception()
                        if exc is None:
                            result.harvest(index, ids[index], future.result())
                        else:
                            fail(index, "crash", exc)
                    else:
                        future.cancel()
                        fail(index, "cancelled")
                    continue
                job_executor, retried = executor, False
                while True:
                    try:
                        result.harvest(index, ids[index], future.result(timeout=self.timeout))
                    except FutureTimeoutError:
                        fail(index, "timeout")
                        self._kill_workers(job_executor, pool)
                        aborted = True
                    except (BrokenProcessPool, CancelledError) as exc:
                        if pool is not None and not retried and not pool.replace(job_executor):
                            # Another batch on the shared pool tore this
                            # executor down; run the job again on the
                            # fresh one.
                            retried = True
                            job_executor = pool.executor()
                            future = job_executor.submit(_run_job, fn, payloads[index])
                            continue
                        fail(index, "crash", exc)
                        aborted = True
                    break
                if aborted:
                    executor = job_executor
        finally:
            if pool is not None:
                pool.count_batch()
                if aborted:
                    # Crashed or timed out: discard the executor so the
                    # next batch transparently gets a fresh pool.
                    pool.replace(executor)
            else:
                executor.shutdown(wait=not aborted, cancel_futures=True)

        result.failures.sort(key=lambda f: f.index)
        return result

    # ------------------------------------------------------------------ #
    # failure bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _job_ids(payloads, job_ids) -> List[str]:
        if job_ids is None:
            return [getattr(p, "job_id", f"job-{i:04d}") for i, p in enumerate(payloads)]
        ids = list(job_ids)
        if len(ids) != len(payloads):
            raise ValueError(f"{len(ids)} job ids for {len(payloads)} payloads")
        return ids

    @staticmethod
    def _kill_workers(executor: ProcessPoolExecutor, pool: Optional[PersistentPool]) -> None:
        """Terminate worker processes after a timeout (best effort).

        A shared pool's executor is replaced *before* its workers die, so
        a concurrent batch whose jobs die with them finds it already
        replaced and resubmits them instead of reporting a crash."""
        processes = getattr(executor, "_processes", None) or {}
        processes = list(processes.values())
        if pool is not None:
            pool.replace(executor)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass

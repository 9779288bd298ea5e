"""The asyncio job server and its background-thread harness.

:class:`JobServer` accepts :class:`repro.api.ScheduleRequest` JSON over
a small HTTP/1.1 API and answers it on one of two paths:

* **A cache hit is answered at submit, from the wire form.**  The
  server parses the request's header (:class:`repro.api.RequestHeader`),
  merges the client's default policy, and keys the job from the
  block and machine JSON as sent
  (:func:`repro.scheduler.fingerprint.wire_cache_key`); a hit finishes
  the job in the POST handler (state ``done``, cache tag ``hit``)
  without building a superblock or a machine, so it never waits behind
  a running miss.  On a miss the block and machine are decoded; a body
  that is valid but not canonical (``0`` for ``0.0``) keys apart from
  its decoded form, so it is looked up once more under the canonical
  key before it is queued.
* **A miss is streamed to the pool.**  It enters the fair per-client
  queue, and the dispatcher starts queued jobs one at a time whenever
  fewer than the runner's worker count are in flight.  Each job runs
  as its own task through :func:`repro.api.schedule_many` on a worker
  thread — the *exact* batch-runner path (shared persistent pool,
  machine interning, content-addressed result cache), so HTTP results
  are byte-identical to batch results.  A finished job wakes the
  dispatcher, which starts the next queued miss at once.

Endpoints (all JSON, ``Connection: close``)::

    GET  /api/v1/health                   liveness + version
    POST /api/v1/jobs                     submit; body = ScheduleRequest.to_dict();
                                          a cache hit's reply also carries
                                          its ScheduleResponse
    GET  /api/v1/jobs/<id>                JobStatus snapshot
    GET  /api/v1/jobs/<id>/result[?timeout=S]
                                          long-poll; 200 + ScheduleResponse when
                                          terminal, 202 + JobStatus on expiry
    POST /api/v1/jobs/<id>/cancel         cancel (immediate while queued,
                                          cooperative while running)
    GET  /api/v1/clients/<name>           per-client policy + accounting
    PUT  /api/v1/clients/<name>/policy    set/clear the client's default
                                          SchedulePolicy (body = dict or null)
    GET  /api/v1/stats                    queue depth, cache counters, clients

Cancellation semantics: a queued job is cancelled immediately (it never
runs).  A running job switches to ``cancelling``; scheduling is
CPU-bound in a worker process and cannot be preempted, so the job
finishes, its result is *discarded*, and it lands in ``cancelled`` with
failure kind ``"cancelled"`` — the runner's taxonomy
(error/timeout/crash/cancelled) passes through unchanged for all other
failures.

Retention: a finished job stays fetchable for :data:`JOB_TTL_S` seconds
after it finished, and at most :data:`MAX_FINISHED_JOBS` finished jobs
are kept (oldest evicted first).  An unknown or evicted id is a 404.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Optional, Set, Tuple

import repro
from repro.api import JobStatus, RequestHeader, ScheduleResponse, schedule_many
from repro.config import RuntimeConfig
from repro.runner.batch import BatchResult, BatchScheduler, JobFailure
from repro.runner.cache import CacheSpec, CacheStats
from repro.runner.jobs import job_cache_key
from repro.scheduler.fingerprint import wire_cache_key
from repro.scheduler.policy import SchedulePolicy
from repro.service.http import HttpError, Request, encode_response, read_request, split_path
from repro.service.queue import ClientState, FairQueue, ServiceJob

#: Seconds a finished job stays fetchable after it finished.
JOB_TTL_S = 300.0
#: Finished jobs kept at most; beyond it the oldest are evicted first.
MAX_FINISHED_JOBS = 4096


class JobServer:
    """The asyncio HTTP job server (see module docstring for the API).

    Parameters default to the ``REPRO_SERVICE_*`` knobs of
    :class:`~repro.config.RuntimeConfig`; ``runner`` and ``cache``
    default to the environment-configured batch runner and result cache
    (``REPRO_JOBS``, ``REPRO_CACHE``/``REPRO_CACHE_DIR``), exactly like
    the batch entry points.  The runner's worker count bounds the jobs
    in flight.  ``job_timeout`` configures the default runner; an
    explicit ``runner`` carries its own timeout, so passing both is a
    :class:`ValueError`.  So is a timeout on a one-worker runner: it runs
    every job in the server's process, where a running job cannot be
    preempted, so the timeout would never fire.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        runner: Optional[BatchScheduler] = None,
        cache: Optional[CacheSpec] = None,
        job_timeout: Optional[float] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        if runner is not None and job_timeout is not None:
            raise ValueError(
                "job_timeout applies only to the default runner; "
                "pass BatchScheduler(timeout=...) as the runner instead"
            )
        config = config if config is not None else RuntimeConfig.load()
        self.host = host if host is not None else config.service_host
        self.port = port if port is not None else config.service_port
        timeout = job_timeout if job_timeout is not None else config.service_timeout
        if runner is None:
            runner = BatchScheduler(jobs=config.jobs, timeout=timeout)
        self.runner = runner
        if self.runner.timeout is not None and self.runner.n_workers == 1:
            raise ValueError(
                f"a job timeout of {self.runner.timeout} s needs 2 or more workers "
                "(--jobs / REPRO_JOBS): one worker runs every job in the server's "
                "process, where a running job cannot be preempted"
            )
        self.cache = cache if cache is not None else CacheSpec.from_env(enabled=config.cache)
        #: The server's own handle on the cache, for hits at submit.
        self._store = self.cache.open()

        self.queue = FairQueue()
        self.jobs: Dict[str, ServiceJob] = {}
        #: Finished jobs still in ``jobs``, in the order they finished.
        self._finished: Deque[ServiceJob] = deque()
        self.clients: Dict[str, ClientState] = {}
        self.cache_stats = CacheStats()
        self._counter = 0
        self._running = 0
        self._tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        self._wakeup = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.monotonic()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting connections and wind the dispatcher and the
        in-flight job tasks down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = list(self._tasks)
        if self._dispatcher is not None:
            tasks.append(self._dispatcher)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _now(self) -> float:
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        status, payload = 500, {"error": "internal error"}
        try:
            request = await read_request(reader)
            if request is None:
                writer.close()
                return
            status, payload = await self._route(request)
        except HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # Defensive: one bad request must not kill the server.
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            writer.write(encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _route(self, request: Request) -> Tuple[int, object]:
        self._evict()
        segments = split_path(request.path)
        if len(segments) < 3 or segments[:2] != ("api", "v1"):
            raise HttpError(404, f"unknown path {request.path!r}")
        head, rest = segments[2], segments[3:]

        if head == "health" and not rest:
            self._expect(request, "GET")
            return 200, {"ok": True, "version": repro.__version__, "uptime_s": self._now()}
        if head == "stats" and not rest:
            self._expect(request, "GET")
            return 200, self._stats()
        if head == "jobs" and not rest:
            self._expect(request, "POST")
            return self._submit(request)
        if head == "jobs" and len(rest) == 1:
            self._expect(request, "GET")
            job = self._job(rest[0])
            return 200, {"job": self._status(job).to_dict()}
        if head == "jobs" and len(rest) == 2 and rest[1] == "result":
            self._expect(request, "GET")
            return await self._result(self._job(rest[0]), request.query_float("timeout"))
        if head == "jobs" and len(rest) == 2 and rest[1] == "cancel":
            self._expect(request, "POST")
            return self._cancel(self._job(rest[0]))
        if head == "clients" and len(rest) == 1:
            self._expect(request, "GET")
            return 200, {"client": self._client(rest[0]).to_dict()}
        if head == "clients" and len(rest) == 2 and rest[1] == "policy":
            self._expect(request, "PUT")
            return self._set_policy(rest[0], request)
        raise HttpError(404, f"unknown path {request.path!r}")

    @staticmethod
    def _expect(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, f"{request.path} expects {method}, got {request.method}")

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _client(self, name: str) -> ClientState:
        state = self.clients.get(name)
        if state is None:
            state = self.clients[name] = ClientState(name=name)
        return state

    def _job(self, job_id: str) -> ServiceJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def _status(self, job: ServiceJob) -> JobStatus:
        position = self.queue.position(job) if job.state == "queued" else -1
        return job.status(queue_position=position)

    def _submit(self, request: Request) -> Tuple[int, object]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object (ScheduleRequest.to_dict())")
        try:
            header = RequestHeader.from_dict(payload)
            block, machine = payload["block"], payload["machine"]
        except Exception as exc:
            raise HttpError(400, f"invalid schedule request: {exc}") from None
        client = self._client(header.client)
        if not header.has_policy and client.policy is not None:
            # The tenant's default budget policy follows every job that
            # does not bring its own (backends without a VcsConfig
            # ignore it, matching the batch path).  It is part of the key.
            try:
                header = replace(header, policy=client.policy)
            except ValueError as exc:
                raise HttpError(400, f"client policy rejected: {exc}") from None

        submitted = self._now()
        key = value = None
        if self._store is not None:
            # A hit is keyed from the request's JSON as sent: its block
            # and machine are never decoded.
            key = wire_cache_key(block, machine, header.spec.to_dict(), salt=self.cache.salt)
            value = self._store.get(key)
        schedule_request = None
        if value is None:
            try:
                schedule_request = header.request(payload)
            except Exception as exc:
                raise HttpError(400, f"invalid schedule request: {exc}") from None
            if key is not None:
                # A valid body that is not canonical (``0`` for ``0.0``)
                # keys apart from its decoded form: look up once more.
                canonical = job_cache_key(schedule_request, self.cache)
                if canonical != key:
                    value = self._store.get(canonical)

        self._counter += 1
        job = ServiceJob(
            job_id=f"j-{self._counter:06d}",
            client=header.client,
            request=schedule_request if value is None else None,
            submitted_s=submitted,
            done=asyncio.Event(),
        )
        self.jobs[job.job_id] = job
        client.submitted += 1
        if value is None:
            self.queue.push(job)
            assert self._wakeup is not None
            self._wakeup.set()
        else:
            job.started_s = submitted
            self.cache_stats.record("hit")
            self._finish_done(job, value, "hit")
        body = {"job": self._status(job).to_dict()}
        if job.response is not None:
            body["response"] = job.response.to_dict()
        return 200, body

    async def _result(self, job: ServiceJob, timeout: Optional[float]) -> Tuple[int, object]:
        if not job.terminal:
            assert isinstance(job.done, asyncio.Event)
            try:
                await asyncio.wait_for(job.done.wait(), timeout)
            except asyncio.TimeoutError:
                return 202, {"job": self._status(job).to_dict()}
        assert job.response is not None
        return 200, {
            "job": self._status(job).to_dict(),
            "response": job.response.to_dict(),
        }

    def _cancel(self, job: ServiceJob) -> Tuple[int, object]:
        if job.terminal:
            return 200, {"job": self._status(job).to_dict()}
        if job.state == "queued":
            self.queue.cancel(job)
            self._finish_cancelled(job, "cancelled while queued")
        else:
            # Cooperative: the running job finishes, then its result is
            # discarded and the job lands in ``cancelled``.
            job.cancel_requested = True
            job.state = "cancelling"
            job.detail = "cancel requested; waiting for the running job"
        return 200, {"job": self._status(job).to_dict()}

    def _set_policy(self, name: str, request: Request) -> Tuple[int, object]:
        payload = request.json() if request.body else None
        client = self._client(name)
        if payload is None:
            client.policy = None
        elif isinstance(payload, dict):
            try:
                client.policy = SchedulePolicy.from_dict(payload)
            except ValueError as exc:
                raise HttpError(400, f"invalid policy: {exc}") from None
        else:
            raise HttpError(400, "expected a SchedulePolicy dict or null")
        return 200, {"client": client.to_dict()}

    def _stats(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_s": self._now(),
            "queue_depth": len(self.queue),
            "running": self._running,
            "n_workers": self.runner.n_workers,
            "jobs": {"total": len(self.jobs), "by_state": states},
            "cache": self.cache_stats.to_dict(),
            "clients": {name: state.to_dict() for name, state in self.clients.items()},
        }

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            while self._running < self.runner.n_workers:
                job = self.queue.pop()
                if job is None:
                    break
                job.state = "running"
                job.started_s = self._now()
                self._running += 1
                task = asyncio.create_task(self._run(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            self._wakeup.clear()
            await self._wakeup.wait()

    async def _run(self, job: ServiceJob) -> None:
        """Run one job through the batch-runner path, then wake the
        dispatcher for the next queued one."""
        try:
            requests = [replace(job.request, job_name=job.job_id)]
            result = await asyncio.to_thread(
                schedule_many, requests, self.runner, self.cache, "capture"
            )
            self._fold(job, result)
        except Exception as exc:
            # A failure of the runner machinery itself, not of the job.
            failure = JobFailure(
                index=0,
                job_id=job.job_id,
                kind="error",
                error_type=type(exc).__name__,
                message=str(exc),
            )
            self._finish_failure(job, failure)
        finally:
            self._running -= 1
            assert self._wakeup is not None
            self._wakeup.set()

    def _fold(self, job: ServiceJob, result: BatchResult) -> None:
        if result.cache is not None:
            self.cache_stats.merge(result.cache)
        if job.cancel_requested:
            self._finish_cancelled(job, "cancelled while running; result discarded")
            return
        value = result.values[0]
        if value is None:
            failure = result.failures[0] if result.failures else None
            self._finish_failure(
                job, failure or JobFailure(index=0, job_id=job.job_id, kind="error")
            )
            return
        self._finish_done(job, value, (result.cache_outcomes or [""])[0])

    # ------------------------------------------------------------------ #
    # terminal states and retention
    # ------------------------------------------------------------------ #
    def _finish_done(self, job: ServiceJob, value, cache: str) -> None:
        now = self._now()
        client = self._client(job.client)
        client.completed += 1
        client.dp_work += value.work
        if value.policy is not None and value.policy.get("partial_finalize"):
            client.partial_finalizes += 1
        response = ScheduleResponse.from_result(
            job.job_id, value, cache=cache, wall_s=now - job.started_s
        )
        self._finish(job, response, "", now)

    def _finish_cancelled(self, job: ServiceJob, detail: str) -> None:
        failure = JobFailure(index=0, job_id=job.job_id, kind="cancelled", message=detail)
        self._finish_failure(job, failure, detail)

    def _finish_failure(self, job: ServiceJob, failure: JobFailure, detail: str = "") -> None:
        now = self._now()
        client = self._client(job.client)
        if failure.kind == "cancelled":
            client.cancelled += 1
        else:
            client.failed += 1
        wall_s = now - job.started_s if job.started_s else 0.0
        response = ScheduleResponse.from_failure(failure, wall_s=wall_s)
        self._finish(job, response, detail or failure.describe(), now)

    def _finish(self, job: ServiceJob, response: ScheduleResponse, detail: str, now: float) -> None:
        job.response = response
        job.state = response.state
        job.detail = detail
        job.finished_s = now
        # A terminal job never runs again: drop its block and machine.
        job.request = None
        assert isinstance(job.done, asyncio.Event)
        job.done.set()
        self._finished.append(job)
        self._evict()

    def _evict(self) -> None:
        """Forget finished jobs past :data:`JOB_TTL_S` or beyond
        :data:`MAX_FINISHED_JOBS`, oldest first."""
        horizon = self._now() - JOB_TTL_S
        finished = self._finished
        while finished and (
            len(finished) > MAX_FINISHED_JOBS or finished[0].finished_s < horizon
        ):
            del self.jobs[finished.popleft().job_id]


class ServerThread:
    """A :class:`JobServer` on a background thread, as a context manager.

    The harness tests, the load benchmark and the docs examples use::

        with ServerThread(port=0) as server:
            client = ServiceClient(server.url)
            ...

    The listening port is bound (and ``server.url`` valid) by the time
    ``__enter__`` returns; exit stops the server and joins the thread.
    """

    def __init__(self, **kwargs: object):
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[JobServer] = None
        self.url = ""
        self.port = 0

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("job server failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"job server failed to start: {self._error}") from self._error
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self._stop is not None:
            loop, stop = self._loop, self._stop
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # Surface startup failures to __enter__.
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = JobServer(**self._kwargs)  # type: ignore[arg-type]
        await server.start()
        self.server = server
        self.port = server.port
        self.url = server.url
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await server.stop()

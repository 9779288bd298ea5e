"""The public scheduling facade: one request/response surface for every
consumer.

Every consumer — the ``repro suite`` CLI, the analysis drivers, the
tests and remote clients — goes through this module.  It is the single
entry point they share, and the contract the HTTP job server
(:mod:`repro.service`) speaks:

* :class:`ScheduleRequest` — one scheduling job as pure data (block,
  machine, backend spec, optional :class:`SchedulePolicy` budget), with
  a lossless JSON wire form (:meth:`ScheduleRequest.to_dict` /
  :meth:`ScheduleRequest.from_dict`).  The wire round trip preserves
  the content fingerprints, so a request submitted over HTTP hits the
  same result-cache entry as the identical in-process job.
* :class:`RequestHeader` — a request without its block and machine:
  the one parser of the other wire keys, shared by
  :meth:`ScheduleRequest.from_dict` and the job server's cache-hit path.
* :class:`ScheduleResponse` — the deterministic summary of one
  :class:`~repro.scheduler.schedule.ScheduleResult` (digest, dp_work,
  AWCT, fallback/policy provenance, cache outcome, failure taxonomy).
* :class:`JobStatus` — the lifecycle snapshot of a submitted job
  (``queued``/``running``/``done``/``failed``/``cancelled``).
* :func:`schedule_many` — the batch driver: requests (or raw
  ``ScheduleJob``\\ s) through the cached, machine-interned parallel
  runner.
* :func:`submit` / :func:`wait` — single-job convenience; with a
  ``url`` they delegate to the HTTP client, without one they run the
  job locally through the same batch core.

Determinism contract: every path through this module executes via
``repro.runner``'s batch core, so results are byte-identical across the
CLI, the drivers, and the service — the ``pool`` and ``http`` modes of
the conformance gate (``scripts/check_conformance.py``) hold the
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.depgraph import DependenceGraph, DepKind
from repro.ir.operation import OpClass, Operation
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.spec import MachineSpec
from repro.runner.batch import BatchResult, BatchScheduler, JobFailure
from repro.runner.jobs import ScheduleJob, _execute_job_batch, fingerprint_digest
from repro.scheduler.policy import SchedulePolicy
from repro.scheduler.registry import BackendSpec, backend_info
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig

#: Lifecycle states of a submitted job, in order of progression.  The
#: terminal states mirror the runner's failure taxonomy
#: (:class:`~repro.runner.batch.JobFailure`): an ``error``/``timeout``/
#: ``crash`` failure lands in ``failed``, a ``cancelled`` one in
#: ``cancelled``.
JOB_STATES = ("queued", "running", "cancelling", "done", "failed", "cancelled")


# --------------------------------------------------------------------------- #
# superblock wire form
# --------------------------------------------------------------------------- #


def block_to_dict(block: Superblock) -> dict:
    """The lossless JSON form of a superblock.

    The only structural description of a block: the result-cache key
    hashes it (:func:`repro.scheduler.fingerprint.block_digest`), so it
    must hold everything the scheduler reads, in the order the scheduler
    reads it — operations in order, and edges in
    :meth:`~repro.ir.depgraph.DependenceGraph.ordered_edges` order.  A
    block that round-trips through the wire keeps its digest and
    therefore its result-cache key, and the job server keys a request
    straight from this form without rebuilding the block.
    """
    return {
        "name": block.name,
        "operations": [
            [
                op.op_id,
                op.opcode,
                op.op_class.value,
                op.latency,
                list(op.dests),
                list(op.srcs),
                op.is_exit,
                op.exit_prob,
                op.speculative,
            ]
            for op in block.operations
        ],
        "edges": [
            # Insertion-compatible order (not edges() order): replaying
            # these through add_edge reproduces the original adjacency
            # iteration orders, which dp_work depends on.
            [edge.src, edge.dst, edge.kind.value, edge.latency, edge.value]
            for edge in block.graph.ordered_edges()
        ],
        "execution_count": block.execution_count,
        "live_ins": list(block.live_ins),
        "live_outs": list(block.live_outs),
    }


def block_from_dict(data: Mapping) -> Superblock:
    """Rebuild a superblock from :func:`block_to_dict` output."""
    graph = DependenceGraph()
    for op_id, opcode, op_class, latency, dests, srcs, is_exit, exit_prob, spec in data[
        "operations"
    ]:
        graph.add_operation(
            Operation(
                op_id=op_id,
                opcode=opcode,
                op_class=OpClass(op_class),
                latency=latency,
                dests=tuple(dests),
                srcs=tuple(srcs),
                is_exit=is_exit,
                exit_prob=exit_prob,
                speculative=spec,
            )
        )
    for src, dst, kind, latency, value in data["edges"]:
        graph.add_edge(src, dst, DepKind(kind), latency, value)
    return Superblock(
        name=data["name"],
        graph=graph,
        execution_count=data["execution_count"],
        live_ins=tuple(data["live_ins"]),
        live_outs=tuple(data["live_outs"]),
    )


# --------------------------------------------------------------------------- #
# request
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RequestHeader:
    """Everything of a wire request but its block and machine: the
    backend, its ``VcsConfig``, the policy, the client and the job name.

    :meth:`from_dict` is the one parser and validator of these keys, for
    :meth:`ScheduleRequest.from_dict` and for the job server, which keys
    a request by :attr:`spec` and the raw block and machine JSON and
    decodes those two only on a cache miss (:meth:`request`).
    """

    backend: str = "vcs"
    vcs: Optional[VcsConfig] = None
    options: Tuple[Tuple[str, object], ...] = ()
    policy: Optional[SchedulePolicy] = None
    check_schedule: bool = True
    client: str = "default"
    job_name: str = ""

    def __post_init__(self) -> None:
        # Fail on unknown backends at construction time, mirroring
        # ScheduleJob — a service validates at submit, not dispatch.
        backend_info(self.backend)
        object.__setattr__(self, "options", tuple((str(k), v) for k, v in self.options))

    @property
    def effective_vcs(self) -> Optional[VcsConfig]:
        """The VcsConfig the job will run under, with ``policy`` merged in
        (``None`` for backends that do not consume one)."""
        if not backend_info(self.backend).uses_vcs_config:
            return None
        if self.policy is None:
            return self.vcs
        return replace(self.vcs or VcsConfig(), policy=self.policy)

    @property
    def spec(self) -> BackendSpec:
        return BackendSpec(name=self.backend, vcs=self.effective_vcs, options=self.options)

    @property
    def has_policy(self) -> bool:
        """Whether the request brings its own policy, explicitly or
        inside its wire ``VcsConfig``."""
        return self.policy is not None or (self.vcs is not None and self.vcs.policy is not None)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RequestHeader":
        """Parse and validate every key of a :meth:`ScheduleRequest.to_dict`
        but the contents of ``block`` and ``machine``."""
        known = {"block", "machine", "backend", "policy", "check_schedule", "client", "job_name"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScheduleRequest keys {sorted(unknown)}; known: {sorted(known)}"
            )
        spec = BackendSpec.from_dict(data.get("backend") or {"name": "vcs"})
        policy = data.get("policy")
        if isinstance(policy, Mapping):
            policy = SchedulePolicy.from_dict(policy)
        # The wire spec already carries the merged policy inside ``vcs``;
        # keep ``policy=None`` here so the merge is not applied twice.
        header = cls(
            backend=spec.name,
            vcs=spec.vcs,
            options=spec.options,
            policy=None,
            check_schedule=bool(data.get("check_schedule", True)),
            client=str(data.get("client", "default")),
            job_name=str(data.get("job_name", "")),
        )
        if policy is not None and header.effective_vcs is None:
            raise ValueError(
                f"backend {spec.name!r} does not consume a SchedulePolicy"
            )
        if policy is not None and (spec.vcs is None or spec.vcs.policy != policy):
            header = replace(header, policy=policy)
        return header

    def request(self, data: Mapping) -> "ScheduleRequest":
        """This header with *data*'s block and machine decoded: the full
        request."""
        return ScheduleRequest(
            block=block_from_dict(data["block"]),
            machine=MachineSpec.from_dict(data["machine"]).to_machine(),
            **{f.name: getattr(self, f.name) for f in fields(RequestHeader)},
        )


@dataclass(frozen=True)
class ScheduleRequest(RequestHeader):
    """One scheduling job as pure, wire-serialisable data: a
    :class:`RequestHeader` plus the block and the machine (keyword-only).

    ``policy`` is merged into the backend's :class:`VcsConfig` (a
    request-level policy wins over ``vcs.policy``), so budget limits
    flow into the content-addressed cache key exactly as they do on the
    batch path.  ``client`` names the submitting tenant — the job
    server's fair queue and per-client budget accounting key on it; the
    local paths ignore it.
    """

    block: Superblock = field(kw_only=True)
    machine: ClusteredMachine = field(kw_only=True)

    @property
    def job_id(self) -> str:
        return self.job_name or f"{self.backend}:{self.machine.name}:{self.block.name}"

    def job(self) -> ScheduleJob:
        """The runner job this request describes."""
        return ScheduleJob(
            job_id=self.job_id,
            scheduler=self.backend,
            block=self.block,
            machine=self.machine,
            vcs_config=self.effective_vcs,
            check_schedule=self.check_schedule,
            backend_options=self.options,
        )

    @classmethod
    def from_job(cls, job: ScheduleJob, client: str = "default") -> "ScheduleRequest":
        return cls(
            block=job.block,
            machine=job.machine,
            backend=job.scheduler,
            vcs=job.vcs_config,
            options=job.backend_options,
            check_schedule=job.check_schedule,
            client=client,
            job_name=job.job_id,
        )

    def to_dict(self) -> dict:
        out = {
            "block": block_to_dict(self.block),
            "machine": MachineSpec.from_machine(self.machine).to_dict(),
            "backend": self.spec.to_dict(),
            "check_schedule": self.check_schedule,
            "client": self.client,
            "job_name": self.job_name,
        }
        if self.policy is not None and self.effective_vcs is None:
            # Backends that consume a VcsConfig carry the merged policy
            # inside ``backend.vcs`` (one canonical wire form, so a
            # round trip is stable); only a policy with no carrier is
            # emitted separately — for from_dict to reject loudly
            # rather than drop a budget silently.
            out["policy"] = self.policy.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScheduleRequest":
        """Parse, validate and decode a :meth:`to_dict` form."""
        return RequestHeader.from_dict(data).request(data)


# --------------------------------------------------------------------------- #
# status and response
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JobStatus:
    """Lifecycle snapshot of one submitted job."""

    job_id: str
    state: str
    client: str = "default"
    detail: str = ""
    #: Position in the client's FIFO lane while ``queued`` (0 = next);
    #: ``-1`` once dispatched.
    queue_position: int = -1
    #: Monotonic seconds relative to server start (0.0 = not yet).
    submitted_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}; known: {JOB_STATES}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobStatus":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown JobStatus keys {sorted(unknown)}; known: {sorted(known)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class ScheduleResponse:
    """The deterministic summary of one finished (or failed) job.

    ``digest`` is ``fingerprint_digest([result.fingerprint()])`` — the
    same digest the golden corpus (``conformance.json``) stores, so two
    responses are byte-identical exactly when the underlying results
    are.  ``cache`` records the runner's outcome tag (``hit``/``miss``/
    ``off``; empty when unknown).  ``failure`` carries the runner
    taxonomy (``kind`` ∈ error/timeout/crash/cancelled) for
    ``failed``/``cancelled`` jobs.
    """

    job_id: str
    state: str
    scheduler: str = ""
    block: str = ""
    machine: str = ""
    ok: bool = False
    work: int = 0
    digest: str = ""
    fingerprint: Optional[list] = None
    awct: float = 0.0
    total_cycles: float = 0.0
    fallback_used: bool = False
    timed_out: bool = False
    policy: Optional[dict] = None
    cache: str = ""
    failure: Optional[dict] = None
    wall_s: float = 0.0

    @classmethod
    def from_result(
        cls, job_id: str, result: ScheduleResult, cache: str = "", wall_s: float = 0.0
    ) -> "ScheduleResponse":
        fingerprint = result.fingerprint()
        return cls(
            job_id=job_id,
            state="done",
            scheduler=result.scheduler,
            block=result.block.name,
            machine=result.machine.name,
            ok=result.ok,
            work=result.work,
            digest=fingerprint_digest([fingerprint]),
            fingerprint=fingerprint,
            awct=result.awct if result.ok else 0.0,
            total_cycles=result.total_cycles if result.ok else 0.0,
            fallback_used=result.fallback_used,
            timed_out=result.timed_out,
            policy=result.policy,
            cache=cache,
            wall_s=wall_s,
        )

    @classmethod
    def from_failure(
        cls, failure: JobFailure, wall_s: float = 0.0
    ) -> "ScheduleResponse":
        return cls(
            job_id=failure.job_id,
            state="cancelled" if failure.kind == "cancelled" else "failed",
            failure={
                "kind": failure.kind,
                "error_type": failure.error_type,
                "message": failure.message,
            },
            wall_s=wall_s,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScheduleResponse":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScheduleResponse keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


# --------------------------------------------------------------------------- #
# the batch driver
# --------------------------------------------------------------------------- #

RequestLike = Union[ScheduleRequest, ScheduleJob]


def as_jobs(requests: Iterable[RequestLike]) -> List[ScheduleJob]:
    """Normalise a mixed request/job sequence into runner jobs."""
    jobs: List[ScheduleJob] = []
    for request in requests:
        if isinstance(request, ScheduleRequest):
            jobs.append(request.job())
        elif isinstance(request, ScheduleJob):
            jobs.append(request)
        else:
            raise TypeError(
                "schedule_many expects ScheduleRequest or ScheduleJob items, "
                f"got {type(request).__name__}"
            )
    return jobs


def schedule_many(
    requests: Sequence[RequestLike],
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
    on_error: str = "raise",
) -> BatchResult:
    """Run a batch of scheduling requests through the parallel runner.

    The one batch entry point shared by the CLI, the analysis drivers
    and the job server (which calls it once per computed job).  Jobs are
    content-keyed against the on-disk result cache
    (``cache=None`` follows the environment; pass
    :meth:`CacheSpec.disabled() <repro.runner.cache.CacheSpec.disabled>`
    for forced cold runs).  With more than one worker every job, even a
    lone one, runs on the pool with its machine interned.  Values come
    back in submission order; ``on_error='capture'``
    reports failures in ``BatchResult.failures`` instead of raising
    :class:`~repro.runner.batch.BatchError`.
    """
    return _execute_job_batch(as_jobs(requests), runner=runner, cache=cache, on_error=on_error)


def batch_responses(
    requests: Sequence[RequestLike], batch: BatchResult
) -> List[ScheduleResponse]:
    """Fold one batch into per-job :class:`ScheduleResponse`\\ s, in
    submission order."""
    jobs = as_jobs(requests)
    failures = {failure.index: failure for failure in batch.failures}
    responses: List[ScheduleResponse] = []
    for index, (job, result) in enumerate(zip(jobs, batch.values)):
        if result is not None:
            responses.append(ScheduleResponse.from_result(job.job_id, result))
        else:
            failure = failures.get(
                index, JobFailure(index=index, job_id=job.job_id, kind="error")
            )
            responses.append(ScheduleResponse.from_failure(failure))
    return responses


# --------------------------------------------------------------------------- #
# single-job convenience: submit / wait
# --------------------------------------------------------------------------- #


@dataclass
class JobHandle:
    """Ticket for one submitted job (local or remote)."""

    job_id: str
    url: str = ""
    _response: Optional[ScheduleResponse] = None
    _client: Optional[object] = None


def submit(
    request: ScheduleRequest,
    url: Optional[str] = None,
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
) -> JobHandle:
    """Submit one request; returns a :class:`JobHandle` for :func:`wait`.

    With a ``url`` the request is POSTed to a running job server
    (:mod:`repro.service`) and the handle polls it (the server answers a
    cache hit at submit, so its first poll returns at once); without one the job
    runs locally through :func:`schedule_many` (same execution core,
    same cache, byte-identical results) and the handle is already
    complete.
    """
    if url is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(url)
        status = client.submit(request)
        return JobHandle(job_id=status.job_id, url=url, _client=client)
    batch = schedule_many([request], runner=runner, cache=cache, on_error="capture")
    response = batch_responses([request], batch)[0]
    if batch.cache_outcomes and response.state == "done":
        response = replace(response, cache=batch.cache_outcomes[0])
    return JobHandle(job_id=request.job_id, _response=response)


def wait(handle: JobHandle, timeout: Optional[float] = None) -> ScheduleResponse:
    """Block until the handle's job finishes; returns its response.

    Local handles return immediately.  Remote handles long-poll the
    server; ``timeout`` bounds the wait (``TimeoutError`` on expiry).
    """
    if handle._response is not None:
        return handle._response
    if handle._client is None:
        raise ValueError(f"job {handle.job_id}: handle has neither a result nor a client")
    response = handle._client.result(handle.job_id, timeout=timeout)
    handle._response = response
    return response

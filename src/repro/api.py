"""The public scheduling facade: one request/response surface for every
consumer.

Every consumer — the ``repro suite`` CLI, the analysis drivers, the
tests and remote clients — goes through this module.  It is the single
entry point they share, and the contract the HTTP job server
(:mod:`repro.service`) speaks:

* :class:`ScheduleRequest` — one scheduling job as pure data (block,
  machine, backend spec with its :class:`VcsConfig`, which carries the
  budget and any :class:`SchedulePolicy`), with a lossless JSON wire
  form (:meth:`ScheduleRequest.to_dict` /
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
* :func:`schedule_many` — the batch driver: requests through the
  cached, machine-interned parallel runner, whose job type they are.
  One job is a one-request batch; a remote one goes through
  :meth:`repro.service.client.ServiceClient.schedule`.

Determinism contract: every path through this module executes via
``repro.runner``'s batch core, so results are byte-identical across the
CLI, the drivers, and the service — the ``pool`` and ``http`` modes of
the conformance gate (``scripts/check_conformance.py``) hold the
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Optional, Sequence, Tuple

from repro.ir.depgraph import DependenceGraph, DepKind
from repro.ir.operation import OpClass, Operation
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.spec import MachineSpec
from repro.runner.batch import BatchResult, BatchScheduler, JobFailure
from repro.runner.cache import CacheSpec
from repro.runner.jobs import _execute_job_batch
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
    backend, its ``VcsConfig``, the client and the job name.

    :meth:`from_dict` is the one parser and validator of these keys, for
    :meth:`ScheduleRequest.from_dict` and for the job server, which keys
    a request by :attr:`spec` and the raw block and machine JSON and
    decodes those two only on a cache miss (:meth:`request`).
    """

    backend: str = "vcs"
    vcs: Optional[VcsConfig] = None
    options: Tuple[Tuple[str, object], ...] = ()
    check_schedule: bool = True
    client: str = "default"
    job_name: str = ""

    def __post_init__(self) -> None:
        # Fail on unknown backends at construction time — a service
        # validates at submit and a batch at enumeration, not dispatch.
        backend_info(self.backend)
        object.__setattr__(self, "options", tuple((str(k), v) for k, v in self.options))

    @property
    def spec(self) -> BackendSpec:
        """The backend spec; ``vcs`` only for backends that consume one."""
        vcs = self.vcs if backend_info(self.backend).uses_vcs_config else None
        return BackendSpec(name=self.backend, vcs=vcs, options=self.options)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RequestHeader":
        """Parse and validate every key of a :meth:`ScheduleRequest.to_dict`
        but the contents of ``block`` and ``machine``."""
        known = {"block", "machine", "backend", "check_schedule", "client", "job_name"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScheduleRequest keys {sorted(unknown)}; known: {sorted(known)}"
            )
        spec = BackendSpec.from_dict(data.get("backend") or {"name": "vcs"})
        return cls(
            backend=spec.name,
            vcs=spec.vcs,
            options=spec.options,
            check_schedule=bool(data.get("check_schedule", True)),
            client=str(data.get("client", "default")),
            job_name=str(data.get("job_name", "")),
        )

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
    It is also the runner's one job type: :func:`schedule_many` and
    :func:`repro.runner.run_schedule_job` take requests.

    The budget and any policy travel in ``vcs`` and so in the
    content-addressed cache key.  ``client`` names the submitting
    tenant — the job server's fair queue and per-client accounting key
    on it; the local paths ignore it.
    """

    block: Superblock = field(kw_only=True)
    machine: ClusteredMachine = field(kw_only=True)

    @property
    def job_id(self) -> str:
        return self.job_name or f"{self.backend}:{self.machine.name}:{self.block.name}"

    def job(self) -> "ScheduleRequest":
        """This request with its job id pinned, so it keeps the id once
        its machine is stripped for the runner's payload."""
        return replace(self, job_name=self.job_id)

    def to_dict(self) -> dict:
        return {
            "block": block_to_dict(self.block),
            "machine": MachineSpec.from_machine(self.machine).to_dict(),
            "backend": self.spec.to_dict(),
            "check_schedule": self.check_schedule,
            "client": self.client,
            "job_name": self.job_name,
        }

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
        return cls.from_head(job_id, result.response_head(), cache=cache, wall_s=wall_s)

    @classmethod
    def from_head(
        cls, job_id: str, head: Mapping, cache: str = "", wall_s: float = 0.0
    ) -> "ScheduleResponse":
        """The response of a finished job from its result's
        :meth:`~repro.scheduler.schedule.ScheduleResult.response_head`
        (what a result-cache entry stores in front of the result)."""
        return cls(job_id=job_id, state="done", cache=cache, wall_s=wall_s, **head)

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


def schedule_many(
    requests: Sequence[ScheduleRequest],
    runner: Optional[BatchScheduler] = None,
    cache: Optional[CacheSpec] = None,
    on_error: str = "raise",
) -> BatchResult:
    """Run a batch of scheduling requests through the parallel runner.

    The one batch entry point shared by the CLI, the analysis drivers
    and the job server (which calls it once per computed job).  Jobs are
    content-keyed against the on-disk result cache
    (``cache=None`` follows the environment; pass
    :meth:`CacheSpec.disabled() <repro.runner.cache.CacheSpec.disabled>`
    for forced cold runs).  With more than one worker every job, even a
    lone one, runs on the pool; serial or pool, each job ships as the
    same payload, its machine interned.  Values come back in submission
    order; ``on_error='capture'``
    reports failures in ``BatchResult.failures`` instead of raising
    :class:`~repro.runner.batch.BatchError`.
    """
    return _execute_job_batch(requests, runner=runner, cache=cache, on_error=on_error)

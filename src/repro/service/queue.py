"""The job table and the fair per-client FIFO queue.

Fairness model: every client owns a FIFO lane, and the dispatcher takes
jobs by rotating round-robin over the lanes that have work — one job per
client per rotation.  A tenant that floods the queue therefore delays
only its own lane; a light tenant's next job is always at most one
rotation away.  Within a lane, submission order is preserved.

Job lifecycle (states from :data:`repro.api.JOB_STATES`)::

    submit -> done                   (a result-cache hit, answered at
       |                              submit; never queued)
       v
    queued -> running -> done | failed
       \\          \\
        \\          -> cancelling -> cancelled
         -> cancelled                (cooperative: the job finishes on
            (immediate)               its worker, its result is discarded)

``running`` means the job is on a pool worker (or, with one worker, in
the server's compute thread).

The table also keeps per-client state: an optional default
:class:`~repro.scheduler.policy.SchedulePolicy` (applied to requests
that carry none, so a tenant's budget rules follow every job it
submits) and cumulative spend/outcome counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.api import JobStatus, ScheduleRequest, ScheduleResponse
from repro.scheduler.policy import SchedulePolicy


@dataclass
class ServiceJob:
    """One submitted job and its lifecycle bookkeeping."""

    job_id: str
    client: str
    #: ``None`` for a cache hit (answered from the wire form, never
    #: decoded) and dropped once a job is terminal; it never runs again.
    request: Optional[ScheduleRequest]
    state: str = "queued"
    detail: str = ""
    #: Monotonic seconds relative to server start.
    submitted_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0
    cancel_requested: bool = False
    response: Optional[ScheduleResponse] = None
    #: Set exactly once, when the job reaches a terminal state.
    done: "object" = None  # asyncio.Event, injected by the server

    def status(self, queue_position: int = -1) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            client=self.client,
            detail=self.detail,
            queue_position=queue_position,
            submitted_s=self.submitted_s,
            started_s=self.started_s,
            finished_s=self.finished_s,
        )

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


@dataclass
class ClientState:
    """Per-tenant policy and accounting."""

    name: str
    #: Default budget policy merged into requests that carry none.
    policy: Optional[SchedulePolicy] = None
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Cumulative deterministic dp_work of the client's finished jobs.
    dp_work: int = 0
    #: Finished jobs whose budget exhausted into a partial finalize.
    partial_finalizes: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "policy": self.policy.to_dict() if self.policy is not None else None,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "dp_work": self.dp_work,
            "partial_finalizes": self.partial_finalizes,
        }


class FairQueue:
    """Round-robin fair queue of :class:`ServiceJob` lanes, one per client.

    ``push`` appends to the submitting client's lane; ``pop`` returns
    the next live job, visiting lanes in rotating round-robin order so
    no client can starve another.  ``cancel`` flags a queued job and the
    flagged job is skipped lazily at pop time.  A live-job counter keeps
    ``len()`` O(1), since the dispatcher asks it on every wake-up.
    """

    def __init__(self) -> None:
        self._lanes: Dict[str, Deque[ServiceJob]] = {}
        #: Rotation order; clients are appended on first submission.
        self._rotation: List[str] = []
        self._cursor = 0
        self._live = 0

    def push(self, job: ServiceJob) -> None:
        lane = self._lanes.get(job.client)
        if lane is None:
            lane = self._lanes[job.client] = deque()
            self._rotation.append(job.client)
        lane.append(job)
        self._live += 1

    def cancel(self, job: ServiceJob) -> None:
        """Flag a queued job so :meth:`pop` never returns it."""
        if not job.cancel_requested:
            job.cancel_requested = True
            self._live -= 1

    def __len__(self) -> int:
        return self._live

    def position(self, job: ServiceJob) -> int:
        """The job's position in its client's lane (0 = next), -1 if absent."""
        lane = self._lanes.get(job.client, ())
        live = [queued for queued in lane if not queued.cancel_requested]
        for index, queued in enumerate(live):
            if queued is job:
                return index
        return -1

    def pop(self) -> Optional[ServiceJob]:
        """The next live job, one client per round-robin turn; ``None``
        when no lane holds a live job."""
        n_lanes = len(self._rotation)
        for _ in range(n_lanes if self._live else 0):
            lane = self._lanes[self._rotation[self._cursor]]
            self._cursor = (self._cursor + 1) % n_lanes
            while lane:
                job = lane.popleft()
                if not job.cancel_requested:
                    self._live -= 1
                    return job
        return None

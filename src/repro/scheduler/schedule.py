"""Final schedules and scheduler results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bounds.awct import awct_from_schedule_cycles
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.fingerprint import fingerprint_digest


@dataclass(frozen=True)
class ScheduledComm:
    """One inter-cluster copy in a final schedule.

    The interconnect is modelled as a broadcast bus: a single transfer makes
    the value available in every other cluster ``bus.latency`` cycles after
    it is issued, which matches the paper's assumption that each value is
    communicated at most once.
    """

    value: str
    producer: int
    cycle: int
    src_cluster: int
    dst_cluster: Optional[int] = None

    def occupies(self, cycle: int, occupancy: int) -> bool:
        """Whether this transfer holds a bus in *cycle* given the occupancy."""
        return self.cycle <= cycle <= self.cycle + occupancy - 1


@dataclass
class Schedule:
    """A complete schedule of one superblock on one machine."""

    block: Superblock
    machine: ClusteredMachine
    cycles: Dict[int, int]
    clusters: Dict[int, int]
    comms: List[ScheduledComm] = field(default_factory=list)
    #: How the schedule was produced when it was not the plain pipeline
    #: output — e.g. ``{"policy": "finalize_partial", "source":
    #: "partial-extraction"}`` from the budget-policy layer.  ``None`` (the
    #: default) keeps :meth:`fingerprint` byte-identical to schedules that
    #: predate the field.
    provenance: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    @property
    def awct(self) -> float:
        """Average weighted completion time of this schedule."""
        return awct_from_schedule_cycles(self.block, self.cycles)

    @property
    def total_cycles(self) -> float:
        """Contribution TC(S) = AWCT(S) * T(S) of the block."""
        return self.awct * self.block.execution_count

    @property
    def length(self) -> int:
        """Number of cycles from entry to the completion of the last operation."""
        last = 0
        for op_id, cycle in self.cycles.items():
            last = max(last, cycle + self.block.op(op_id).latency)
        for comm in self.comms:
            last = max(last, comm.cycle + self.machine.copy_latency)
        return last

    @property
    def n_communications(self) -> int:
        return len(self.comms)

    def cluster_load(self) -> Dict[int, int]:
        """Number of operations assigned to each cluster."""
        load = {c: 0 for c in self.machine.cluster_ids}
        for cluster in self.clusters.values():
            load[cluster] = load.get(cluster, 0) + 1
        return load

    def comm_for_value(self, value: str) -> Optional[ScheduledComm]:
        for comm in self.comms:
            if comm.value == value:
                return comm
        return None

    def fingerprint(self) -> list:
        """A canonical, JSON-serialisable description of the schedule.

        Two schedules compare equal iff their fingerprints do: the block
        name plus sorted cycle, cluster and communication assignments.
        Used by the parallel runner's determinism checks and the
        conformance corpus's schedule-only digest.  Provenance (set only by
        the budget-policy layer) is appended when present, so
        policy-shaped schedules are distinguishable while plain ones keep
        the historical fingerprint.
        """
        fp = [
            self.block.name,
            sorted(self.cycles.items()),
            sorted(self.clusters.items()),
            sorted(
                (c.value, c.producer, c.cycle, c.src_cluster, c.dst_cluster if c.dst_cluster is not None else -1)
                for c in self.comms
            ),
        ]
        if self.provenance is not None:
            fp.append(sorted(self.provenance.items()))
        return fp

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def as_table(self) -> str:
        """Human-readable cycle-by-cycle view of the schedule."""
        if not self.cycles:
            return "(empty schedule)"
        n_cycles = max(self.cycles.values()) + 1
        lines = [f"Schedule of {self.block.name} on {self.machine.name} (AWCT={self.awct:.2f})"]
        for cycle in range(n_cycles):
            per_cluster = []
            for cluster in self.machine.cluster_ids:
                ops = [
                    self.block.op(op_id).name
                    for op_id, c in sorted(self.cycles.items())
                    if c == cycle and self.clusters.get(op_id) == cluster
                ]
                per_cluster.append(",".join(ops) if ops else "-")
            comm_names = [
                f"copy({c.value})" for c in self.comms if c.cycle == cycle
            ]
            bus = ",".join(comm_names) if comm_names else "-"
            lines.append(f"  cycle {cycle:3d}: " + " | ".join(per_cluster) + f" || bus: {bus}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.block.name}: AWCT={self.awct:.2f}, "
            f"{len(self.comms)} comms, length={self.length})"
        )


@dataclass
class ScheduleResult:
    """Outcome of running a scheduler on one superblock.

    ``work`` counts deterministic effort units (deduction rule firings for
    the proposed technique, placement attempts for the list schedulers) and
    is the compile-time proxy used by the Figure 10 experiment; ``wall_time``
    records real seconds for reference.
    """

    scheduler: str
    block: Superblock
    machine: ClusteredMachine
    schedule: Optional[Schedule]
    work: int = 0
    wall_time: float = 0.0
    timed_out: bool = False
    awct_target_steps: int = 0
    fallback_used: bool = False
    #: Hot-path probe counters (trail probes, rollbacks, …) and, for the
    #: proposed scheduler, the AWCT walk's record (targets rejected per
    #: stage, the ceiling probe, the ``walk_stop`` reason as text).
    #: Reported, never part of :meth:`fingerprint`.
    stats: Dict[str, object] = field(default_factory=dict)
    #: Per-decision-stage ``{"calls": n, "wall_time_s": t}`` accumulated
    #: across AWCT targets (pipeline schedulers only).  Wall times are
    #: reported by the bench harness but never gated, and the field is
    #: deliberately excluded from :meth:`fingerprint`.
    stage_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Budget-policy summary (``PolicyTracker.summary()``): exhaustion
    #: mode, final tier, tier transitions, probe counts, refine history.
    #: ``None`` without a policy; only the deterministic mode/partial/
    #: source fields enter :meth:`fingerprint` (transitions carry wall
    #: readings).
    policy: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.schedule is not None

    @property
    def awct(self) -> float:
        if self.schedule is None:
            raise ValueError(f"{self.scheduler} produced no schedule for {self.block.name}")
        return self.schedule.awct

    @property
    def total_cycles(self) -> float:
        return self.awct * self.block.execution_count

    def fingerprint(self) -> list:
        """Canonical description of the outcome (see
        :meth:`Schedule.fingerprint`), including the deterministic work
        counter and the fallback flag.  ``ScheduleResult`` is the value
        the parallel runner ships between processes; the fingerprint is
        what its determinism guarantee is stated over, and its digest is
        what ``conformance.json`` stores per case."""
        fp = [
            self.scheduler,
            self.block.name,
            self.machine.name,
            self.work,
            self.fallback_used,
            self.schedule.fingerprint() if self.schedule is not None else None,
        ]
        if self.policy is not None:
            fp.append(
                [
                    "policy",
                    self.policy.get("mode"),
                    bool(self.policy.get("partial_finalize")),
                    self.policy.get("source"),
                ]
            )
        return fp

    def response_head(self) -> Dict[str, object]:
        """The fields of a :class:`~repro.api.ScheduleResponse` that come
        from this result: the one definition of a response's payload.

        The result cache stores it in front of the pickled result, so the
        job server answers a hit from it without unpickling the block,
        the machine or the schedule.
        """
        fingerprint = self.fingerprint()
        # One AWCT evaluation: ``total_cycles`` would compute it again.
        awct = self.awct if self.ok else 0.0
        return {
            "scheduler": self.scheduler,
            "block": self.block.name,
            "machine": self.machine.name,
            "ok": self.ok,
            "work": self.work,
            "digest": fingerprint_digest([fingerprint]),
            "fingerprint": fingerprint,
            "awct": awct,
            "total_cycles": awct * self.block.execution_count,
            "fallback_used": self.fallback_used,
            "timed_out": self.timed_out,
            "policy": self.policy,
        }

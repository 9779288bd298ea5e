"""Declarative machine descriptions: the scenario matrix's machine axis.

A :class:`MachineSpec` is a picklable, JSON-round-trippable description of
one clustered VLIW configuration — cluster count, per-cluster functional
unit mix and issue width, interconnect topology/latency/bandwidth and
register-file constraints.  Specs are pure data: :meth:`MachineSpec.
to_machine` builds the :class:`~repro.machine.machine.ClusteredMachine`
the schedulers consume, and :meth:`to_dict`/:meth:`from_dict` round-trip
through plain dictionaries so scenario definitions can live in reports,
job payloads and config files instead of code.

The hard-coded presets of :mod:`repro.machine.presets` are re-expressed on
top of this module (see :mod:`repro.machine.families`) and build
byte-identical machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.machine.cluster import ClusterConfig
from repro.machine.interconnect import TOPOLOGIES, InterconnectConfig
from repro.machine.machine import ClusteredMachine
from repro.machine.resources import FuKind


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of one cluster.

    ``fu_counts`` is kept as a sorted tuple of ``(kind-name, count)`` pairs
    so the spec stays hashable and its dict form is stable.
    """

    fu_counts: Tuple[Tuple[str, int], ...] = (
        ("branch", 1),
        ("fp", 1),
        ("int", 1),
        ("mem", 1),
    )
    issue_width: int = 0
    n_registers: Optional[int] = None

    def __post_init__(self) -> None:
        known = {kind.value for kind in FuKind}
        entries = tuple(self.fu_counts)
        counts = tuple(sorted(dict(entries).items()))
        if len(counts) != len(entries):
            kinds = [kind for kind, _ in entries]
            dupes = sorted({kind for kind in kinds if kinds.count(kind) > 1})
            raise ValueError(f"duplicate functional-unit kind(s) {dupes} in cluster spec")
        for kind, count in counts:
            if kind not in known:
                raise ValueError(f"unknown functional-unit kind {kind!r}; known: {sorted(known)}")
            if count < 0:
                raise ValueError(f"negative functional-unit count for {kind!r}")
        object.__setattr__(self, "fu_counts", counts)
        if self.n_registers is not None and self.n_registers < 1:
            raise ValueError("a register-file constraint needs at least one register")

    @staticmethod
    def uniform(
        count_per_kind: int = 1,
        issue_width: int = 0,
        n_registers: Optional[int] = None,
    ) -> "ClusterSpec":
        return ClusterSpec(
            fu_counts=tuple(sorted((kind.value, count_per_kind) for kind in FuKind)),
            issue_width=issue_width,
            n_registers=n_registers,
        )

    @staticmethod
    def of(
        counts: Mapping[str, int],
        issue_width: int = 0,
        n_registers: Optional[int] = None,
    ) -> "ClusterSpec":
        return ClusterSpec(
            fu_counts=tuple(sorted(counts.items())),
            issue_width=issue_width,
            n_registers=n_registers,
        )

    def to_config(self) -> ClusterConfig:
        return ClusterConfig(
            fu_counts={FuKind(kind): count for kind, count in self.fu_counts if count > 0},
            issue_width=self.issue_width,
            n_registers=self.n_registers,
        )

    def to_dict(self) -> dict:
        out: dict = {"fu_counts": {kind: count for kind, count in self.fu_counts}}
        if self.issue_width:
            out["issue_width"] = self.issue_width
        if self.n_registers is not None:
            out["n_registers"] = self.n_registers
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "ClusterSpec":
        return ClusterSpec(
            fu_counts=tuple(sorted(dict(data["fu_counts"]).items())),
            issue_width=int(data.get("issue_width", 0)),
            n_registers=data.get("n_registers"),
        )


@dataclass(frozen=True)
class MachineSpec:
    """Declarative description of one clustered VLIW machine."""

    name: str
    clusters: Tuple[ClusterSpec, ...] = (ClusterSpec(),)
    topology: str = "bus"
    channels: int = 1
    link_latency: int = 1
    pipelined: bool = True
    copies_use_issue: bool = False
    #: Free-form provenance notes ("paper Section 6.1", "ring sweep", …);
    #: excluded from equality so annotated and bare specs build the same
    #: machine and compare equal.
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a machine spec needs a name")
        if not self.clusters:
            raise ValueError("a machine spec needs at least one cluster")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown interconnect topology {self.topology!r}; "
                f"known: {', '.join(TOPOLOGIES)}"
            )
        object.__setattr__(self, "clusters", tuple(self.clusters))

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def interconnect(self) -> InterconnectConfig:
        return InterconnectConfig(
            topology=self.topology,
            count=self.channels,
            latency=self.link_latency,
            pipelined=self.pipelined,
        )

    def renamed(self, name: str) -> "MachineSpec":
        return replace(self, name=name)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def uniform(
        name: str,
        n_clusters: int,
        fus_per_kind: int = 1,
        issue_width: int = 0,
        n_registers: Optional[int] = None,
        topology: str = "bus",
        channels: int = 1,
        link_latency: int = 1,
        pipelined: bool = True,
        notes: str = "",
    ) -> "MachineSpec":
        """A machine of *n_clusters* identical clusters."""
        cluster = ClusterSpec.uniform(
            count_per_kind=fus_per_kind,
            issue_width=issue_width,
            n_registers=n_registers,
        )
        return MachineSpec(
            name=name,
            clusters=tuple(cluster for _ in range(n_clusters)),
            topology=topology,
            channels=channels,
            link_latency=link_latency,
            pipelined=pipelined,
            notes=notes,
        )

    # ------------------------------------------------------------------ #
    # materialisation and round-trips
    # ------------------------------------------------------------------ #
    def to_machine(self) -> ClusteredMachine:
        """Build the machine the schedulers consume."""
        return ClusteredMachine(
            name=self.name,
            clusters=tuple(c.to_config() for c in self.clusters),
            bus=self.interconnect,
            copies_use_issue=self.copies_use_issue,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "clusters": [c.to_dict() for c in self.clusters],
            "topology": self.topology,
            "channels": self.channels,
            "link_latency": self.link_latency,
            "pipelined": self.pipelined,
        }
        if self.copies_use_issue:
            out["copies_use_issue"] = True
        if self.notes:
            out["notes"] = self.notes
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "MachineSpec":
        return MachineSpec(
            name=data["name"],
            clusters=tuple(ClusterSpec.from_dict(c) for c in data["clusters"]),
            topology=data.get("topology", "bus"),
            channels=int(data.get("channels", 1)),
            link_latency=int(data.get("link_latency", 1)),
            pipelined=bool(data.get("pipelined", True)),
            copies_use_issue=bool(data.get("copies_use_issue", False)),
            notes=data.get("notes", ""),
        )

    @staticmethod
    def from_machine(machine: ClusteredMachine) -> "MachineSpec":
        """The spec describing an existing machine (inverse of
        :meth:`to_machine` up to default issue widths)."""
        clusters = tuple(
            ClusterSpec(
                fu_counts=tuple(
                    sorted((kind.value, count) for kind, count in c.fu_counts.items())
                ),
                issue_width=c.issue_width,
                n_registers=c.n_registers,
            )
            for c in machine.clusters
        )
        return MachineSpec(
            name=machine.name,
            clusters=clusters,
            topology=machine.bus.topology,
            channels=machine.bus.count,
            link_latency=machine.bus.latency,
            pipelined=machine.bus.pipelined,
            copies_use_issue=machine.copies_use_issue,
        )

    def describe(self) -> str:
        """One-line human summary used by ``repro suite --list-machines``."""
        machine = self.to_machine()
        pipe = "" if self.pipelined else ", non-pipelined"
        regs = ""
        limits = {c.n_registers for c in self.clusters if c.n_registers is not None}
        if limits:
            regs = f", {min(limits)} regs"
        return (
            f"{self.n_clusters} clusters, issue {machine.total_issue_width}, "
            f"{self.topology} x{self.channels} lat {self.link_latency}{pipe}{regs}"
        )


def spec_index(specs) -> Dict[str, MachineSpec]:
    """Index *specs* by name, rejecting duplicates."""
    index: Dict[str, MachineSpec] = {}
    for spec in specs:
        if spec.name in index and index[spec.name] != spec:
            raise ValueError(f"conflicting machine specs named {spec.name!r}")
        index[spec.name] = spec
    return index

"""The clustered VLIW machine description used by all schedulers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.ir.operation import OpClass, Operation
from repro.machine.cluster import ClusterConfig
from repro.machine.interconnect import InterconnectConfig
from repro.machine.resources import fu_kind_for


@dataclass(frozen=True)
class ClusteredMachine:
    """A statically scheduled clustered VLIW machine.

    Parameters
    ----------
    name:
        Short label used in reports (e.g. ``"2clust 1b 1lat"``).
    clusters:
        One :class:`ClusterConfig` per physical cluster.
    bus:
        The inter-cluster interconnect (any
        :class:`~repro.machine.interconnect.InterconnectConfig` topology;
        the field keeps its historical name from the bus-only model).
        Irrelevant for single-cluster machines.
    copies_use_issue:
        When True an inter-cluster copy also consumes an issue slot in the
        source cluster; by default copies only occupy a channel.
    """

    name: str
    clusters: Tuple[ClusterConfig, ...]
    bus: InterconnectConfig = InterconnectConfig()
    copies_use_issue: bool = False

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("a machine needs at least one cluster")
        object.__setattr__(self, "clusters", tuple(self.clusters))

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def is_clustered(self) -> bool:
        return self.n_clusters > 1

    def cluster(self, index: int) -> ClusterConfig:
        return self.clusters[index]

    @property
    def cluster_ids(self) -> List[int]:
        return list(range(self.n_clusters))

    @cached_property
    def total_issue_width(self) -> int:
        return sum(c.issue_width for c in self.clusters)

    @cached_property
    def max_cluster_issue_width(self) -> int:
        """The widest single cluster's issue width."""
        return max(c.issue_width for c in self.clusters)

    @property
    def is_homogeneous(self) -> bool:
        return all(c == self.clusters[0] for c in self.clusters)

    # ------------------------------------------------------------------ #
    # the interconnect, reduced to the abstract contention model
    # ------------------------------------------------------------------ #
    @property
    def interconnect(self) -> InterconnectConfig:
        """The inter-cluster interconnect (alias of the ``bus`` field)."""
        return self.bus

    @cached_property
    def copy_latency(self) -> int:
        """Cycles every inter-cluster copy takes on this machine."""
        return self.bus.effective_latency(self.n_clusters)

    @cached_property
    def copy_occupancy(self) -> int:
        """Cycles one copy keeps its interconnect channel busy."""
        return self.bus.effective_occupancy(self.n_clusters)

    @cached_property
    def channel_count(self) -> int:
        """Copies that may occupy the interconnect simultaneously."""
        return self.bus.channel_count(self.n_clusters)

    # ------------------------------------------------------------------ #
    # per-operation capacity queries
    # ------------------------------------------------------------------ #
    def fu_count(self, cluster: int, op_class: OpClass) -> int:
        """Units in *cluster* able to execute operations of *op_class*."""
        kind = fu_kind_for(op_class)
        if kind is None:
            return 0
        return self.clusters[cluster].fu_count(kind)

    def total_fu_count(self, op_class: OpClass) -> int:
        """Units able to execute *op_class* summed over all clusters."""
        kind = fu_kind_for(op_class)
        if kind is None:
            return self.channel_count
        return sum(c.fu_count(kind) for c in self.clusters)

    @cached_property
    def _per_cycle_capacity(self) -> Dict[OpClass, int]:
        """Machine-wide per-class capacity table (the machine is frozen, so
        the derivation runs once instead of on every deduction-rule firing)."""
        table: Dict[OpClass, int] = {}
        for op_class in OpClass:
            if op_class is OpClass.COPY:
                table[op_class] = self.channel_count
            else:
                table[op_class] = min(self.total_fu_count(op_class), self.total_issue_width)
        return table

    @cached_property
    def _cluster_capacity(self) -> Dict[Tuple[int, OpClass], int]:
        """Per-(cluster, class) capacity table, derived once."""
        table: Dict[Tuple[int, OpClass], int] = {}
        for cluster in range(self.n_clusters):
            for op_class in OpClass:
                if op_class is OpClass.COPY:
                    capacity = self.channel_count
                else:
                    capacity = min(
                        self.fu_count(cluster, op_class), self.clusters[cluster].issue_width
                    )
                table[(cluster, op_class)] = capacity
        return table

    @cached_property
    def _max_cluster_capacity(self) -> Dict[OpClass, int]:
        """Per-class maximum of :meth:`cluster_capacity` over all clusters."""
        return {
            op_class: max(
                self._cluster_capacity[(cluster, op_class)]
                for cluster in range(self.n_clusters)
            )
            for op_class in OpClass
        }

    def per_cycle_capacity(self, op_class: OpClass) -> int:
        """Operations of *op_class* the whole machine can start per cycle.

        Bounded both by the functional units of the right kind and by the
        total issue width (for copies, by the interconnect channels)."""
        return self._per_cycle_capacity[op_class]

    def cluster_capacity(self, cluster: int, op_class: OpClass) -> int:
        """Operations of *op_class* that cluster *cluster* can start per cycle."""
        return self._cluster_capacity[(cluster, op_class)]

    def max_cluster_capacity(self, op_class: OpClass) -> int:
        """The best single cluster's capacity for *op_class* (the bound the
        per-VC deduction rules compare against)."""
        return self._max_cluster_capacity[op_class]

    def can_execute(self, cluster: int, op: Operation) -> bool:
        """Whether *cluster* has a functional unit for *op*."""
        if op.is_copy:
            return self.channel_count > 0
        return self.fu_count(cluster, op.op_class) > 0

    # ------------------------------------------------------------------ #
    # lower bounds used by minAWCT
    # ------------------------------------------------------------------ #
    def resource_length_lower_bound(self, ops: Sequence[Operation]) -> int:
        """Minimum number of issue cycles needed to start all *ops*,
        considering only machine-wide capacities (ignores dependences)."""
        if not ops:
            return 0
        by_class: Dict[OpClass, int] = {}
        for op in ops:
            by_class[op.op_class] = by_class.get(op.op_class, 0) + 1
        bound = 1
        for op_class, count in by_class.items():
            capacity = self.per_cycle_capacity(op_class)
            if capacity == 0:
                raise ValueError(f"machine {self.name} cannot execute {op_class} operations")
            bound = max(bound, -(-count // capacity))
        total_capacity = self.total_issue_width
        non_copy = sum(1 for op in ops if not op.is_copy)
        bound = max(bound, -(-non_copy // total_capacity))
        return bound

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusteredMachine({self.name}: {self.n_clusters} clusters, "
            f"issue={self.total_issue_width}, {self.bus})"
        )

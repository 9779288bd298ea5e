"""Named machine families: the enumerated machine axis of the scenario
matrix.

A :class:`MachineFamily` is a named, ordered set of
:class:`~repro.machine.spec.MachineSpec`\\ s generated from a parameter
grid — cluster-count sweeps, interconnect latency/bandwidth sweeps, ring
and point-to-point topologies, heterogeneous functional-unit mixes and
register-file-constrained variants.  The paper's own three configurations
(and the worked-example machines) are the ``paper`` and ``examples``
families, so the presets of :mod:`repro.machine.presets` are just named
specs here and every consumer — ``repro suite --machine-family``, the
scenario-matrix driver, the gated bench sweep — enumerates machines from
one registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.machine.machine import ClusteredMachine
from repro.machine.spec import ClusterSpec, MachineSpec, spec_index


@dataclass(frozen=True)
class MachineFamily:
    """A named set of machine specs swept together."""

    name: str
    description: str
    specs: Tuple[MachineSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError(f"machine family {self.name!r} has no specs")
        spec_index(self.specs)  # reject duplicate names early

    def spec(self, name: str) -> MachineSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"machine family {self.name!r} has no spec {name!r}")

    def machines(self) -> List[ClusteredMachine]:
        return [spec.to_machine() for spec in self.specs]

    @property
    def spec_names(self) -> List[str]:
        return [spec.name for spec in self.specs]


# --------------------------------------------------------------------------- #
# family generators
# --------------------------------------------------------------------------- #
def _paper_family() -> MachineFamily:
    """Section 6.1's three configurations, re-expressed as specs."""
    return MachineFamily(
        name="paper",
        description="the paper's three evaluated configurations (Section 6.1)",
        specs=(
            MachineSpec.uniform(
                "2clust 1b 1lat", 2, link_latency=1, notes="2 clusters, 8-issue, 1-cycle bus"
            ),
            MachineSpec.uniform(
                "4clust 1b 1lat", 4, link_latency=1, notes="4 clusters, 16-issue, 1-cycle bus"
            ),
            MachineSpec.uniform(
                "4clust 1b 2lat",
                4,
                link_latency=2,
                pipelined=False,
                notes="4 clusters, 16-issue, 2-cycle non-pipelined bus",
            ),
        ),
    )


def _examples_family() -> MachineFamily:
    """The worked-example machines of Section 5 and Figure 4."""
    example_cluster = ClusterSpec.of({"int": 1, "branch": 1}, issue_width=2)
    fig4_cluster = ClusterSpec.of({"int": 2, "branch": 1}, issue_width=3)
    return MachineFamily(
        name="examples",
        description="the worked-example machines (Section 5 / Figure 4)",
        specs=(
            MachineSpec(
                name="example 2-cluster",
                clusters=(example_cluster, example_cluster),
                notes="Section 5 example: 1 INT + 1 BRANCH per cluster, 1-cycle bus",
            ),
            MachineSpec(
                name="example 1-cluster",
                clusters=(fig4_cluster,),
                notes="Figure 4 example: 2 non-branch + 1 branch per cycle",
            ),
        ),
    )


def _cluster_sweep_family() -> MachineFamily:
    """Cluster-count sweep at fixed interconnect (Figure 11's x-axis,
    extended past the paper's 2 and 4)."""
    return MachineFamily(
        name="cluster-sweep",
        description="1/2/4/8 clusters of 1 FU per kind on a 1-cycle bus",
        specs=tuple(
            MachineSpec.uniform(f"{n}c-bus1-lat1", n, notes="cluster-count sweep")
            for n in (1, 2, 4, 8)
        ),
    )


def _bus_sweep_family() -> MachineFamily:
    """Bus latency/bandwidth sweep on the paper's 4-cluster machine."""
    specs: List[MachineSpec] = []
    for channels in (1, 2):
        for latency in (1, 2, 3):
            for pipelined in (True, False):
                if latency == 1 and not pipelined:
                    continue  # occupancy 1 either way: identical machine
                suffix = "" if pipelined else "-np"
                specs.append(
                    MachineSpec.uniform(
                        f"4c-bus{channels}-lat{latency}{suffix}",
                        4,
                        channels=channels,
                        link_latency=latency,
                        pipelined=pipelined,
                        notes="bus latency/bandwidth sweep",
                    )
                )
    return MachineFamily(
        name="bus-sweep",
        description="4 clusters; bus latency 1-3, 1-2 buses, pipelined or not",
        specs=tuple(specs),
    )


def _ring_family() -> MachineFamily:
    """Bidirectional rings: latency grows with the worst-case hop count."""
    return MachineFamily(
        name="ring",
        description="bidirectional ring interconnect (worst-case-hop latency model)",
        specs=(
            MachineSpec.uniform("4c-ring-lat1", 4, topology="ring", notes="ring sweep"),
            MachineSpec.uniform(
                "4c-ring-lat1-x2", 4, topology="ring", channels=2, notes="ring sweep"
            ),
            MachineSpec.uniform("8c-ring-lat1", 8, topology="ring", notes="ring sweep"),
        ),
    )


def _p2p_family() -> MachineFamily:
    """Point-to-point fabrics: single-hop latency, pooled machine-wide
    capacity (see :mod:`repro.machine.interconnect` on the p2p model)."""
    return MachineFamily(
        name="p2p",
        description="non-blocking point-to-point interconnect (pooled capacity)",
        specs=(
            MachineSpec.uniform("2c-p2p-lat1", 2, topology="p2p", notes="p2p sweep"),
            MachineSpec.uniform("4c-p2p-lat1", 4, topology="p2p", notes="p2p sweep"),
            MachineSpec.uniform(
                "4c-p2p-lat2",
                4,
                topology="p2p",
                link_latency=2,
                pipelined=False,
                notes="p2p sweep",
            ),
        ),
    )


def _fu_mix_family() -> MachineFamily:
    """Uniform functional-unit mix variations on 4 clusters."""
    int_rich = ClusterSpec.of({"int": 2, "fp": 1, "mem": 1, "branch": 1})
    mem_rich = ClusterSpec.of({"int": 1, "fp": 1, "mem": 2, "branch": 1})
    wide = ClusterSpec.uniform(count_per_kind=2)
    return MachineFamily(
        name="fu-mix",
        description="4 clusters with int-rich / mem-rich / doubled FU mixes",
        specs=(
            MachineSpec(name="4c-int-rich", clusters=(int_rich,) * 4, notes="FU-mix sweep"),
            MachineSpec(name="4c-mem-rich", clusters=(mem_rich,) * 4, notes="FU-mix sweep"),
            MachineSpec(name="4c-wide", clusters=(wide,) * 4, notes="FU-mix sweep"),
        ),
    )


def _hetero_family() -> MachineFamily:
    """Heterogeneous clusters: capability differs per cluster.

    FP units exist only in even clusters and memory ports only in the
    first half — the shape accelerator-style clustered designs take.  The
    proposed technique's virtual-cluster mapping is capability-blind, so
    on these machines it relies on validation + fallback; the CARS
    baseline handles them natively (``can_execute``).
    """
    fp_cluster = ClusterSpec.of({"int": 1, "fp": 2, "mem": 1, "branch": 1})
    int_cluster = ClusterSpec.of({"int": 2, "mem": 1, "branch": 1})
    return MachineFamily(
        name="hetero",
        description="asymmetric clusters (FP only in even clusters)",
        specs=(
            MachineSpec(
                name="2c-hetero-fp0",
                clusters=(fp_cluster, int_cluster),
                notes="heterogeneous sweep",
            ),
            MachineSpec(
                name="4c-hetero-fp02",
                clusters=(fp_cluster, int_cluster, fp_cluster, int_cluster),
                notes="heterogeneous sweep",
            ),
        ),
    )


def _constrained_regs_family() -> MachineFamily:
    """Register-file-constrained variants of the paper machines."""
    return MachineFamily(
        name="constrained-regs",
        description="paper machines with finite per-cluster register files",
        specs=(
            MachineSpec.uniform("2c-bus1-r32", 2, n_registers=32, notes="register-file sweep"),
            MachineSpec.uniform("4c-bus1-r16", 4, n_registers=16, notes="register-file sweep"),
        ),
    )


#: Every registered family, in presentation order.
_FAMILY_BUILDERS = (
    _paper_family,
    _examples_family,
    _cluster_sweep_family,
    _bus_sweep_family,
    _ring_family,
    _p2p_family,
    _fu_mix_family,
    _hetero_family,
    _constrained_regs_family,
)


def machine_families() -> List[MachineFamily]:
    """Every registered machine family, in presentation order."""
    return [build() for build in _FAMILY_BUILDERS]


def machine_family(name: str) -> MachineFamily:
    """Look one family up by name (KeyError with the known names)."""
    for family in machine_families():
        if family.name == name:
            return family
    known = [family.name for family in machine_families()]
    raise KeyError(f"unknown machine family {name!r}; known: {known}")


def all_machine_specs() -> Dict[str, MachineSpec]:
    """Every spec of every family, indexed by machine name.

    Names are unique across families (enforced), so any machine anywhere
    in the matrix is addressable by its name alone."""
    return spec_index(spec for family in machine_families() for spec in family.specs)


def machine_by_name(name: str) -> ClusteredMachine:
    """Build one machine by its spec name (KeyError with the known names)."""
    specs = all_machine_specs()
    if name not in specs:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(specs)}")
    return specs[name].to_machine()

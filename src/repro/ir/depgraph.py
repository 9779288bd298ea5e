"""Dependence graph over the operations of a superblock.

The dependence graph (DG in the paper) is a DAG whose nodes are operation ids
and whose edges carry a *kind* (data, control, memory-order, anti) and a
*latency* — the minimum number of cycles that must separate the issue of the
source from the issue of the destination.  For a data edge the latency is the
producer's latency; control edges have latency zero (an operation may issue in
the same cycle as the branch it is control dependent on, as in the paper's
running example where I4 and B0 share estart 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.ir.operation import Operation


class DepKind(enum.Enum):
    """Kind of a dependence edge."""

    DATA = "data"
    CONTROL = "control"
    MEMORY = "memory"
    ANTI = "anti"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DepEdge:
    """One dependence edge of the graph."""

    src: int
    dst: int
    kind: DepKind
    latency: int
    value: Optional[str] = None

    @property
    def is_register_edge(self) -> bool:
        """True when the edge carries a register value across clusters."""
        return self.kind is DepKind.DATA and self.value is not None


class DependenceGraph:
    """A directed acyclic dependence graph for one superblock.

    The graph owns the operations: they are added with :meth:`add_operation`
    and edges reference them by id.  The class exposes the queries the
    scheduler needs: predecessors/successors with latencies, reachability
    (``must_precede``), topological order, and per-value producer/consumer
    lookups.
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._ops: Dict[int, Operation] = {}
        self._reach_cache: Optional[Dict[int, Set[int]]] = None
        # Adjacency caches (op ids, per-node edge lists, register edges);
        # rebuilt lazily after structural changes.  The scheduler queries
        # these on its hottest paths, and the graph is static once built.
        self._struct_cache: Optional[tuple] = None
        # Longest-path distances per source and the topological order they
        # are computed over; invalidated together with the other caches.
        self._dist_cache: Dict[int, Dict[int, int]] = {}
        self._topo_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_operation(self, op: Operation) -> None:
        """Add *op* to the graph; its id must not already be present."""
        if op.op_id in self._ops:
            raise ValueError(f"duplicate operation id {op.op_id}")
        self._ops[op.op_id] = op
        self._graph.add_node(op.op_id)
        self._reach_cache = None
        self._struct_cache = None
        self._dist_cache = {}
        self._topo_cache = None

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: DepKind = DepKind.DATA,
        latency: Optional[int] = None,
        value: Optional[str] = None,
    ) -> DepEdge:
        """Add a dependence edge from *src* to *dst*.

        When *latency* is omitted it defaults to the source operation's
        latency for data/memory edges and zero for control/anti edges.  When
        an edge between the pair already exists the stricter (larger) latency
        is kept and the value annotation is preserved.
        """
        if src not in self._ops or dst not in self._ops:
            raise KeyError(f"edge ({src}, {dst}) references unknown operation")
        if src == dst:
            raise ValueError(f"self dependence on operation {src}")
        if latency is None:
            if kind in (DepKind.DATA, DepKind.MEMORY):
                latency = self._ops[src].latency
            else:
                latency = 0
        if latency < 0:
            raise ValueError("dependence latency must be non-negative")

        if self._graph.has_edge(src, dst):
            self._struct_cache = None
            data = self._graph.edges[src, dst]
            data["latency"] = max(data["latency"], latency)
            if value is not None and data.get("value") is None:
                data["value"] = value
            if kind is DepKind.DATA:
                data["kind"] = DepKind.DATA
        else:
            self._graph.add_edge(src, dst, kind=kind, latency=latency, value=value)
        self._reach_cache = None
        self._struct_cache = None
        self._dist_cache = {}
        self._topo_cache = None
        return DepEdge(src, dst, kind, latency, value)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def operations(self) -> List[Operation]:
        """All operations, sorted by id."""
        return [self._ops[i] for i in sorted(self._ops)]

    @property
    def op_ids(self) -> List[int]:
        # Computed directly: keeps the id query decoupled from the (lazily
        # built, invalidated-on-mutation) adjacency cache.
        return sorted(self._ops)

    def _structures(self) -> tuple:
        """Cached (op_ids, predecessors, successors, register_edges).

        Built with the same iteration orders as the uncached per-call
        queries, so consumers observe identical edge orderings."""
        cache = self._struct_cache
        if cache is None:
            op_ids = sorted(self._ops)
            preds: Dict[int, Tuple[DepEdge, ...]] = {}
            succs: Dict[int, Tuple[DepEdge, ...]] = {}
            edges = self._graph.edges
            for op_id in op_ids:
                preds[op_id] = tuple(
                    DepEdge(src, op_id, d["kind"], d["latency"], d.get("value"))
                    for src in self._graph.predecessors(op_id)
                    for d in (edges[src, op_id],)
                )
                succs[op_id] = tuple(
                    DepEdge(op_id, dst, d["kind"], d["latency"], d.get("value"))
                    for dst in self._graph.successors(op_id)
                    for d in (edges[op_id, dst],)
                )
            register = tuple(e for e in self.edges() if e.is_register_edge)
            cache = self._struct_cache = (op_ids, preds, succs, register)
        return cache

    def op(self, op_id: int) -> Operation:
        return self._ops[op_id]

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def edges(self) -> Iterator[DepEdge]:
        """Iterate over all dependence edges."""
        for src, dst, data in self._graph.edges(data=True):
            yield DepEdge(src, dst, data["kind"], data["latency"], data.get("value"))

    def edge(self, src: int, dst: int) -> Optional[DepEdge]:
        """Return the edge from *src* to *dst*, or None."""
        if not self._graph.has_edge(src, dst):
            return None
        data = self._graph.edges[src, dst]
        return DepEdge(src, dst, data["kind"], data["latency"], data.get("value"))

    def ordered_edges(self) -> List[DepEdge]:
        """The edges in an insertion-compatible order.

        :meth:`edges` iterates grouped by source node, which loses the
        *interleaving* of the original ``add_edge`` calls — and per-node
        predecessor/successor iteration order is behaviour a rebuilt
        graph must reproduce (the deduction engine walks adjacency in
        that order, so ``dp_work`` depends on it).  This method merges
        the per-node successor and predecessor orders back into one
        sequence: replaying ``add_edge`` over it yields a graph whose
        adjacency iteration orders match this one node for node.  The
        wire format of :func:`repro.api.block_to_dict` serialises edges
        in this order, which is what makes a wire round-tripped block
        schedule byte-identically (digest *and* work counters).

        The greedy merge cannot deadlock: among the not-yet-emitted
        edges, the one inserted earliest originally is always at the
        head of both its source's successor order and its target's
        predecessor order.
        """
        _, preds, succs, _ = self._structures()
        # Insertion order of the operations, which is the graph's node order.
        nodes = list(self._ops)
        pred_head = dict.fromkeys(nodes, 0)
        succ_head = dict.fromkeys(nodes, 0)
        ordered: List[DepEdge] = []
        remaining = self._graph.number_of_edges()
        while remaining:
            progress = False
            for src in nodes:
                out = succs[src]
                head = succ_head[src]
                while head < len(out):
                    edge = out[head]
                    dst = edge.dst
                    if preds[dst][pred_head[dst]].src != src:
                        break
                    ordered.append(edge)
                    head += 1
                    pred_head[dst] += 1
                    remaining -= 1
                    progress = True
                succ_head[src] = head
            if not progress:  # pragma: no cover - unreachable for real graphs
                ordered.extend(
                    edge
                    for edge in self.edges()
                    if not any(e.src == edge.src and e.dst == edge.dst for e in ordered)
                )
                break
        return ordered

    def predecessors(self, op_id: int) -> Tuple[DepEdge, ...]:
        """Incoming edges of *op_id*."""
        return self._structures()[1][op_id]

    def successors(self, op_id: int) -> Tuple[DepEdge, ...]:
        """Outgoing edges of *op_id*."""
        return self._structures()[2][op_id]

    def register_edges(self) -> Tuple[DepEdge, ...]:
        """All data edges that carry a named register value."""
        return self._structures()[3]

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self._graph)

    def topological_order(self) -> List[int]:
        """Operation ids in a deterministic topological order."""
        return list(nx.lexicographical_topological_sort(self._graph))

    def _reachability(self) -> Dict[int, Set[int]]:
        if self._reach_cache is None:
            cache: Dict[int, Set[int]] = {}
            for node in reversed(list(nx.topological_sort(self._graph))):
                reach: Set[int] = set()
                for succ in self._graph.successors(node):
                    reach.add(succ)
                    reach |= cache[succ]
                cache[node] = reach
            self._reach_cache = cache
        return self._reach_cache

    def must_precede(self, u: int, v: int) -> bool:
        """True when a (possibly indirect) dependence forces *u* before *v*."""
        return v in self._reachability()[u]

    def are_ordered(self, u: int, v: int) -> bool:
        """True when the DG orders *u* and *v* in either direction."""
        return self.must_precede(u, v) or self.must_precede(v, u)

    def min_distance(self, u: int, v: int) -> Optional[int]:
        """Longest-path distance (in cycles) from *u* to *v*, or None.

        This is the minimum number of cycles the schedule must place between
        the issue of *u* and the issue of *v* when *u* must precede *v*.
        The per-source distance map is cached (with the topological order it
        is swept over), so building the scheduling graph costs one longest-
        path sweep per source instead of one per queried pair.
        """
        if not self.must_precede(u, v):
            return None
        dist = self._dist_cache.get(u)
        if dist is None:
            order = self._topo_cache
            if order is None:
                order = self._topo_cache = list(nx.topological_sort(self._graph))
            dist = {u: 0}
            edges = self._graph.edges
            succ_of = self._graph.successors
            for node in order:
                if node not in dist:
                    continue
                base = dist[node]
                for succ in succ_of(node):
                    cand = base + edges[node, succ]["latency"]
                    if cand > dist.get(succ, -1):
                        dist[succ] = cand
            self._dist_cache[u] = dist
        return dist.get(v)

    # ------------------------------------------------------------------ #
    # per-value queries
    # ------------------------------------------------------------------ #
    def producer_of(self, value: str) -> Optional[int]:
        """Operation id that defines *value*, if any operation in the DG does."""
        for op in self._ops.values():
            if value in op.dests:
                return op.op_id
        return None

    def consumers_of(self, value: str) -> List[int]:
        """Operation ids that use *value* through a data edge."""
        producer = self.producer_of(value)
        if producer is None:
            return sorted(
                op.op_id for op in self._ops.values() if value in op.srcs
            )
        return sorted(
            e.dst for e in self.successors(producer) if e.value == value
        )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def copy(self) -> "DependenceGraph":
        """Deep-enough copy: operations are immutable, edges are re-added."""
        clone = DependenceGraph()
        for op in self.operations:
            clone.add_operation(op)
        for e in self.edges():
            clone.add_edge(e.src, e.dst, e.kind, e.latency, e.value)
        return clone

    def as_networkx(self) -> nx.DiGraph:
        """Return a copy of the underlying networkx graph."""
        return self._graph.copy()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"DependenceGraph({len(self)} ops, {self._graph.number_of_edges()} edges)"]
        for op in self.operations:
            lines.append(f"  {op}")
        for e in self.edges():
            lines.append(f"  {e.src} -> {e.dst} [{e.kind}, lat={e.latency}]")
        return "\n".join(lines)

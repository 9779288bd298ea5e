"""The scheduling state manipulated by the deduction process.

Following Section 4.3 of the paper, a scheduling state is defined by

1. the estart/lstart of each instruction (including scheduler-inserted
   communications),
2. the list of chosen combinations,
3. the list of discarded combinations,
4. the list of non-treated combinations,
5. the set of connected components (complex instructions), and
6. the virtual cluster graph.

The state exposes *mutators* that perform one elementary change, keep the
representation coherent, and return the corresponding change events so the
deduction engine can feed them back to its rules.  Mutators raise
:class:`~repro.deduction.consequence.Contradiction` when the change is
impossible, which is exactly the paper's notion of a contradiction.

Every mutation is recorded on a :class:`~repro.trail.Trail`, so a candidate
decision can be probed **in place** and undone exactly::

    mark = state.checkpoint()
    try_some_decision(state)   # arbitrary mutators / deduction rules
    state.rollback(mark)       # state is observably identical to before

This replaces the old copy-per-probe scheme (one full dict/set/union-find/
VCG copy per candidate, per stage, per AWCT target) with the trail-based
apply-then-undo of SAT/CP solvers.  The state additionally maintains
dirty-tracked caches for the scheduler's candidate selection: the set of
still-undecided scheduling-graph pairs, the set of unfixed operations, and
the operations fixed at each cycle — all kept coherent by the same trail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bounds.estart import compute_estart
from repro.deduction.consequence import (
    BoundChange,
    Change,
    CombinationChosen,
    CombinationDiscarded,
    CommCreated,
    CommResolved,
    Contradiction,
    CycleFixed,
    VCsFused,
    VCsIncompatible,
)
from repro.ir.operation import OpClass, Operation, make_copy
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.sgraph.combination import pair_key
from repro.sgraph.components import OffsetContradiction, OffsetUnionFind
from repro.sgraph.scheduling_graph import SchedulingGraph
from repro.trail import Trail
from repro.vcluster.communication import Communication, CommunicationSet
from repro.vcluster.vcg import VCContradiction, VirtualClusterGraph

INFINITY = math.inf


class SchedulingState:
    """Mutable scheduling state for one superblock and one AWCT target."""

    def __init__(
        self,
        block: Superblock,
        machine: ClusteredMachine,
        sgraph: SchedulingGraph,
    ) -> None:
        self.block = block
        self.machine = machine
        self.sgraph = sgraph

        base_estart = (
            sgraph.base_estart if sgraph.block is block else compute_estart(block.graph)
        )
        self._original_ids: List[int] = block.op_ids
        self.estart: Dict[int, int] = dict(base_estart)
        self.lstart: Dict[int, float] = {op_id: INFINITY for op_id in self._original_ids}

        self._chosen: Dict[Tuple[int, int], int] = {}
        self._discarded: Dict[Tuple[int, int], Set[int]] = {}

        self.components = OffsetUnionFind(self._original_ids)
        self.vcg = VirtualClusterGraph(self._original_ids)
        self.comms = CommunicationSet()

        # Extra dependence edges (src, dst, latency) created for communications.
        self._comm_edges: List[Tuple[int, int, int]] = []
        # Operations created for communications, keyed by comm id.
        self._comm_ops: Dict[int, Operation] = {}
        # Single fully-linked communication per value (the paper's assumption
        # that each value is communicated at most once).
        self._value_flc: Dict[str, int] = {}
        self._next_comm_id = (max(self._original_ids) + 1) if self._original_ids else 0

        self.exit_deadlines: Dict[int, int] = {}

        # Delta-maintained bound aggregates (the estart/lstart-derived
        # quantities the candidate heuristics used to recompute from
        # scratch on every probe).  Every bound mutator updates them with
        # the applied delta and records the inverse delta on the trail, so
        # :meth:`compactness` and :meth:`total_slack` are O(1) reads and
        # rollback stays O(changes).
        self._sum_estart_orig: int = sum(self.estart[i] for i in self._original_ids)
        self._sum_slack: float = 0.0

        # Dirty-tracked candidate caches (kept coherent by the mutators and
        # restored by the trail on rollback).
        self._undecided_pairs: Set[Tuple[int, int]] = set(sgraph.pairs())
        self._unfixed: Set[int] = set(self._original_ids)
        self._fixed_at: Dict[int, Set[int]] = {}
        self._ids_cache: Optional[List[int]] = None
        self._comm_ids_cache: Optional[List[int]] = None
        self._class_ids_cache: Optional[Dict[OpClass, List[int]]] = None
        # Operation and latency lookup tables over originals + live comms
        # (one dict hit on the hottest rule paths instead of two calls).
        self._ops: Dict[int, Operation] = {i: block.op(i) for i in self._original_ids}
        self._latency: Dict[int, int] = {
            i: op.latency for i, op in self._ops.items()
        }

        # Unfixed-predecessor edge counts over the static dependence graph:
        # ``_unfixed_preds[i]`` is the number of predecessor edges of *i*
        # whose source operation is not yet fixed, so the "ready" test of
        # candidate selection (every producer pinned) is a zero check
        # instead of an O(preds) rescan.  Decremented by ``_mark_fixed``
        # through the trail, hence restored exactly on rollback.
        graph = block.graph
        self._unfixed_preds: Dict[int, int] = {
            i: len(graph.predecessors(i)) for i in self._original_ids
        }
        # Static per-operation views over the (immutable) dependence graph,
        # precomputed once so the hot bound/cluster rules iterate ready-made
        # tuples instead of filtering DepEdge lists on every firing.  The
        # register-adjacency of CommunicationSlackRule keeps its scan order
        # (successor edges first, then predecessor edges).
        self._succ_static: Dict[int, Tuple[Tuple[int, int], ...]] = {
            i: tuple((e.dst, e.latency) for e in graph.successors(i))
            for i in self._original_ids
        }
        self._pred_static: Dict[int, Tuple[Tuple[int, int], ...]] = {
            i: tuple((e.src, e.latency) for e in graph.predecessors(i))
            for i in self._original_ids
        }
        self._reg_adj: Dict[int, Tuple[Tuple[int, int], ...]] = {
            i: tuple((e.src, e.dst) for e in graph.successors(i) if e.is_register_edge)
            + tuple((e.src, e.dst) for e in graph.predecessors(i) if e.is_register_edge)
            for i in self._original_ids
        }
        self._reg_pred: Dict[int, Tuple[Tuple[int, Optional[str]], ...]] = {
            i: tuple((e.src, e.value) for e in graph.predecessors(i) if e.is_register_edge)
            for i in self._original_ids
        }
        self._reg_edge_triples: Tuple[Tuple[int, int, Optional[str]], ...] = tuple(
            (e.src, e.dst, e.value) for e in graph.register_edges()
        )
        self._value_consumers: Dict[str, Tuple[int, ...]] = {}
        for _src, _dst, _value in self._reg_edge_triples:
            if _value is not None and _value not in self._value_consumers:
                self._value_consumers[_value] = tuple(graph.consumers_of(_value))
        # Indices into ``_reg_edge_triples`` of the register edges touching
        # each operation (as src or dst) — lets the incompatibility rule
        # scan only the edges of the affected VCs' members, in edge order.
        _touch: Dict[int, List[int]] = {}
        for _idx, (_src, _dst, _value) in enumerate(self._reg_edge_triples):
            _touch.setdefault(_src, []).append(_idx)
            if _dst != _src:
                _touch.setdefault(_dst, []).append(_idx)
        self._reg_touch_idx: Dict[int, Tuple[int, ...]] = {
            k: tuple(v) for k, v in _touch.items()
        }
        # Scheduling-graph neighbours paired with their pair key, so the
        # hot combination rules skip the per-neighbour key construction.
        self._neighbor_keys: Dict[int, Tuple[Tuple[int, Tuple[int, int]], ...]] = {
            i: tuple(
                (other, (i, other) if i < other else (other, i))
                for other in sgraph.neighbors(i)
            )
            for i in self._original_ids
        }
        # Communication edges as per-op adjacency tuples, delta-maintained
        # alongside ``_comm_edges`` (same insertion order) so succ_edges /
        # pred_edges are dict hits instead of linear scans.
        self._succ_comm: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._pred_comm: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # Remaining (neither discarded nor superseded by a choice)
        # combination distances per scheduling-graph pair, in the graph's
        # distance order.  Mirrors ``sgraph.distances(key) - discarded`` so
        # the hot combination rules iterate a ready-made tuple instead of
        # filtering the full distance list on every firing.
        self._remaining: Dict[Tuple[int, int], Tuple[int, ...]] = {
            key: sgraph.distances(*key) for key in self._undecided_pairs
        }
        # Per-class ``(members, min estart, max lstart)`` over operations
        # with a finite lstart — the aggregates ClassWindowPressureRule
        # checks on every firing.  Keys are pre-created for the original
        # operations' classes in first-appearance order (the iteration
        # order of :meth:`ids_by_class`); COPY joins at the end when the
        # first communication gets a finite deadline, which is also where
        # :meth:`ids_by_class` places the communications.
        self._class_pressure: Dict[OpClass, Tuple[int, int, int]] = {}
        for i in self._original_ids:
            op_class = self._ops[i].op_class
            if op_class not in self._class_pressure:
                self._class_pressure[op_class] = (0, 0, 0)
        # Revision stamps backing the out-edge cache: ``_vcg_rev_source``
        # hands out globally fresh stamps (monotone, never rolled back);
        # ``_vcg_rev`` is trail-recorded and set to a fresh stamp around
        # every actual VCG mutation.  Equal revisions therefore imply
        # identical VCG content even across rollbacks and redo replays —
        # a stamp is issued exactly once, and any mutation after it (kept
        # or not) rebinds ``_vcg_rev`` away from it.
        self._vcg_rev_source: int = 0
        self._vcg_rev: int = 0
        self._outedges_cache: Optional[Tuple[int, List[Tuple[int, int, str]]]] = None

        # The mutation trail; attached last so construction is not recorded.
        self.trail = Trail()
        self.components.attach_trail(self.trail)
        self.vcg.attach_trail(self.trail)
        self.comms.attach_trail(self.trail)

    # ------------------------------------------------------------------ #
    # checkpoint / rollback
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> int:
        """Mark the current trail position for a later :meth:`rollback`."""
        return self.trail.mark()

    def rollback(self, mark: int) -> int:
        """Undo every mutation since *mark*; returns entries undone."""
        undone = self.trail.rollback(mark)
        self._invalidate_id_caches()
        return undone

    def rollback_capture(self, mark: int) -> List[tuple]:
        """Undo every mutation since *mark*, returning a redo log."""
        log = self.trail.rollback_capture(mark)
        self._invalidate_id_caches()
        return log

    def redo(self, log: List[tuple]) -> None:
        """Re-apply a redo log captured at the same state this one is in."""
        self.trail.redo(log)
        self._invalidate_id_caches()

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self) -> "SchedulingState":
        clone = SchedulingState.__new__(SchedulingState)
        clone.block = self.block
        clone.machine = self.machine
        clone.sgraph = self.sgraph
        clone._original_ids = self._original_ids
        clone.estart = dict(self.estart)
        clone.lstart = dict(self.lstart)
        clone._chosen = dict(self._chosen)
        clone._discarded = {k: set(v) for k, v in self._discarded.items()}
        clone.components = self.components.copy()
        clone.vcg = self.vcg.copy()
        clone.comms = self.comms.copy()
        clone._comm_edges = list(self._comm_edges)
        clone._comm_ops = dict(self._comm_ops)
        clone._value_flc = dict(self._value_flc)
        clone._next_comm_id = self._next_comm_id
        clone.exit_deadlines = dict(self.exit_deadlines)
        clone._sum_estart_orig = self._sum_estart_orig
        clone._sum_slack = self._sum_slack
        clone._undecided_pairs = set(self._undecided_pairs)
        clone._unfixed = set(self._unfixed)
        clone._fixed_at = {cycle: set(ops) for cycle, ops in self._fixed_at.items()}
        clone._ids_cache = None
        clone._comm_ids_cache = None
        clone._class_ids_cache = None
        clone._ops = dict(self._ops)
        clone._latency = dict(self._latency)
        clone._unfixed_preds = dict(self._unfixed_preds)
        clone._succ_static = self._succ_static
        clone._pred_static = self._pred_static
        clone._reg_adj = self._reg_adj
        clone._reg_pred = self._reg_pred
        clone._reg_edge_triples = self._reg_edge_triples
        clone._value_consumers = self._value_consumers
        clone._reg_touch_idx = self._reg_touch_idx
        clone._neighbor_keys = self._neighbor_keys
        clone._succ_comm = dict(self._succ_comm)
        clone._pred_comm = dict(self._pred_comm)
        clone._remaining = dict(self._remaining)
        clone._class_pressure = dict(self._class_pressure)
        clone._vcg_rev_source = self._vcg_rev_source
        clone._vcg_rev = self._vcg_rev
        clone._outedges_cache = None
        clone.trail = Trail()
        clone.components.attach_trail(clone.trail)
        clone.vcg.attach_trail(clone.trail)
        clone.comms.attach_trail(clone.trail)
        return clone

    # ------------------------------------------------------------------ #
    # operations (original + communications)
    # ------------------------------------------------------------------ #
    def is_comm(self, op_id: int) -> bool:
        return op_id in self._comm_ops

    def has_op(self, op_id: int) -> bool:
        """Whether *op_id* is a live operation of this state.

        Communications can be dropped (redundant PLCs); change events that
        still reference them must be ignored by the rules."""
        return op_id in self.estart

    def op(self, op_id: int) -> Operation:
        return self._ops[op_id]

    @property
    def original_ids(self) -> List[int]:
        return self._original_ids

    @property
    def comm_ids(self) -> List[int]:
        ids = self._comm_ids_cache
        if ids is None:
            ids = self._comm_ids_cache = sorted(self._comm_ops)
        return ids

    @property
    def all_ids(self) -> List[int]:
        ids = self._ids_cache
        if ids is None:
            ids = self._ids_cache = self._original_ids + self.comm_ids
        return ids

    def _invalidate_id_caches(self) -> None:
        self._ids_cache = None
        self._comm_ids_cache = None
        self._class_ids_cache = None

    def ids_by_class(self) -> Dict[OpClass, List[int]]:
        """Live operation ids grouped by operation class.

        Rebuilt lazily when communications are added or dropped (and on
        rollback); grouping order follows :attr:`all_ids`, so consumers see
        the same iteration order as a fresh scan."""
        groups = self._class_ids_cache
        if groups is None:
            groups = {}
            ops = self._ops
            for op_id in self.all_ids:
                groups.setdefault(ops[op_id].op_class, []).append(op_id)
            self._class_ids_cache = groups
        return groups

    def latency(self, op_id: int) -> int:
        return self._latency[op_id]

    # ------------------------------------------------------------------ #
    # dependence structure including communication edges
    # ------------------------------------------------------------------ #
    def succ_edges(self, op_id: int) -> Tuple[Tuple[int, int], ...]:
        """Successors of *op_id* with the minimum issue distance to each.

        Static graph edges first (precomputed), then communication edges in
        insertion order — the exact order the old linear scan produced."""
        base = self._succ_static.get(op_id, ())
        extra = self._succ_comm.get(op_id)
        return base + extra if extra else base

    def pred_edges(self, op_id: int) -> Tuple[Tuple[int, int], ...]:
        """Predecessors of *op_id* with the minimum issue distance from each."""
        base = self._pred_static.get(op_id, ())
        extra = self._pred_comm.get(op_id)
        return base + extra if extra else base

    def comm_edges(self) -> List[Tuple[int, int, int]]:
        return list(self._comm_edges)

    def register_adjacency(self, op_id: int) -> Tuple[Tuple[int, int], ...]:
        """Static ``(producer, consumer)`` register edges touching *op_id*
        (successor edges first, then predecessor edges — the scan order of
        CommunicationSlackRule)."""
        return self._reg_adj.get(op_id, ())

    def register_pred_values(self, op_id: int) -> Tuple[Tuple[int, Optional[str]], ...]:
        """Static ``(producer, value)`` register-edge predecessors of *op_id*."""
        return self._reg_pred.get(op_id, ())

    def register_edge_triples(self) -> Tuple[Tuple[int, int, Optional[str]], ...]:
        """All register edges of the block as ``(src, dst, value)`` triples."""
        return self._reg_edge_triples

    def consumers_of_value(self, value: str) -> Tuple[int, ...]:
        """Consumers of *value* in the static graph (precomputed)."""
        cached = self._value_consumers.get(value)
        if cached is not None:
            return cached
        return tuple(self.block.graph.consumers_of(value))

    # ------------------------------------------------------------------ #
    # bounds
    # ------------------------------------------------------------------ #
    def slack(self, op_id: int) -> float:
        return self.lstart[op_id] - self.estart[op_id]

    def is_fixed(self, op_id: int) -> bool:
        return self.lstart[op_id] == self.estart[op_id]

    def cycle_of(self, op_id: int) -> Optional[int]:
        """The fixed cycle of *op_id*, or None when it still has slack."""
        if self.is_fixed(op_id):
            return self.estart[op_id]
        return None

    @property
    def horizon(self) -> int:
        """Largest finite lstart (the last cycle the schedule may use)."""
        finite = [int(v) for v in self.lstart.values() if v != INFINITY]
        return max(finite) if finite else 0

    def _mark_fixed(self, op_id: int, cycle: int) -> None:
        """Maintain the unfixed/fixed-at caches when a window collapses."""
        trail = self.trail
        trail.discard_from_set(self._unfixed, op_id)
        bucket = self._fixed_at.get(cycle)
        if bucket is None:
            bucket = set()
            trail.set_item(self._fixed_at, cycle, bucket)
        trail.add_to_set(bucket, op_id)
        if op_id not in self._comm_ops:
            # One producer of every consumer just got pinned: decrement the
            # consumers' unfixed-predecessor edge counts (communications are
            # not in the static graph, so only originals contribute).
            preds = self._unfixed_preds
            for edge in self.block.graph.successors(op_id):
                trail.set_item(preds, edge.dst, preds[edge.dst] - 1)

    def unfixed_pred_counts(self) -> Dict[int, int]:
        """Per-original-operation count of predecessor edges whose source is
        not yet fixed (a read-only view; zero means every producer is pinned
        and the operation is ready for cycle selection)."""
        return self._unfixed_preds

    def unfixed_ids(self, communications: bool = False) -> List[int]:
        """Operations whose issue cycle is not yet fixed.

        With ``communications=True`` only copy operations are returned,
        otherwise only original operations.  Backed by a dirty-tracked set,
        so the cost is proportional to the unfixed population instead of the
        whole block.

        The list is in **no particular order** (raw set iteration, which
        differs between trail rollbacks and fresh copies): callers that pick
        one element must apply a total-order tie-break, as
        ``candidates.lowest_slack_operation`` does with ``(slack, op_id)`` —
        otherwise trail and copy probing could diverge."""
        comm_ops = self._comm_ops
        if communications:
            return [i for i in self._unfixed if i in comm_ops]
        return [i for i in self._unfixed if i not in comm_ops]

    def fixed_ops_at(self, cycle: int) -> List[int]:
        """Operations (original and copies) fixed at *cycle*, ascending."""
        bucket = self._fixed_at.get(cycle)
        if not bucket:
            return []
        return sorted(bucket)

    def n_fixed_comms_in(self, low: int, high: int) -> int:
        """Number of fixed communications whose cycle lies in ``[low, high]``.

        A fixed communication's cycle is its (frozen) estart, so the
        fixed-at buckets answer this exactly — the bus-capacity rule scans
        a few buckets instead of all communications per probed cycle."""
        total = 0
        comm_ops = self._comm_ops
        fixed_at = self._fixed_at
        for cycle in range(low, high + 1):
            bucket = fixed_at.get(cycle)
            if bucket:
                for i in bucket:
                    if i in comm_ops:
                        total += 1
        return total

    # ------------------------------------------------------------------ #
    # class-pressure aggregates
    # ------------------------------------------------------------------ #
    def class_pressure(self) -> Dict[OpClass, Tuple[int, int, int]]:
        """Per-class ``(members, min estart, max lstart)`` over operations
        with a finite lstart, in :meth:`ids_by_class` key order (read-only
        view; classes with no member report ``(0, 0, 0)``).

        Equals what a fresh scan over :meth:`ids_by_class` would compute —
        delta-maintained by the bound mutators so ClassWindowPressureRule
        fires in O(classes) instead of O(operations)."""
        return self._class_pressure

    def _class_join(self, op_id: int, estart: int, lstart: int) -> None:
        """An operation's lstart became finite: join its class aggregate."""
        op_class = self._ops[op_id].op_class
        entry = self._class_pressure.get(op_class)
        if entry is None or entry[0] == 0:
            self.trail.set_item(self._class_pressure, op_class, (1, estart, lstart))
            return
        n, low, high = entry
        self.trail.set_item(
            self._class_pressure,
            op_class,
            (n + 1, estart if estart < low else low, lstart if lstart > high else high),
        )

    def _class_recompute(self, op_class: OpClass) -> None:
        """Rebuild one class aggregate from its live members (the rare path:
        the member defining the current min or max moved or was dropped)."""
        estart, lstart = self.estart, self.lstart
        n = low = high = 0
        for i in self.ids_by_class().get(op_class, ()):
            ls = lstart[i]
            if ls == INFINITY:
                continue
            e = estart[i]
            ils = int(ls)
            if n == 0:
                n, low, high = 1, e, ils
            else:
                n += 1
                if e < low:
                    low = e
                if ils > high:
                    high = ils
        self.trail.set_item(self._class_pressure, op_class, (n, low, high))

    def set_estart(self, op_id: int, value: int) -> List[Change]:
        current = self.estart[op_id]
        if value <= current:
            return []
        lstart = self.lstart[op_id]
        if value > lstart:
            raise Contradiction(
                f"estart of {op_id} would become {value} > lstart {lstart}"
            )
        trail = self.trail
        trail.set_item(self.estart, op_id, value)
        if op_id not in self._comm_ops:
            trail.set_attr(self, "_sum_estart_orig", self._sum_estart_orig + value - current)
        if lstart != INFINITY:
            trail.set_attr(self, "_sum_slack", self._sum_slack - (value - current))
            # A finite lstart makes the op a member of its class-pressure
            # aggregate; if it defined the class's min estart, recompute.
            op_class = self._ops[op_id].op_class
            if current == self._class_pressure[op_class][1]:
                self._class_recompute(op_class)
        changes: List[Change] = [BoundChange(op_id, "estart", value)]
        if lstart == value:
            self._mark_fixed(op_id, value)
            changes.append(CycleFixed(op_id, value))
        return changes

    def set_lstart(self, op_id: int, value: int) -> List[Change]:
        current = self.lstart[op_id]
        if value >= current:
            return []
        estart = self.estart[op_id]
        if value < estart:
            raise Contradiction(
                f"lstart of {op_id} would become {value} < estart {estart}"
            )
        trail = self.trail
        trail.set_item(self.lstart, op_id, value)
        if current == INFINITY:
            trail.set_attr(self, "_sum_slack", self._sum_slack + (value - estart))
            # First finite lstart: the op joins its class-pressure aggregate.
            self._class_join(op_id, estart, value)
        else:
            trail.set_attr(self, "_sum_slack", self._sum_slack - (current - value))
            op_class = self._ops[op_id].op_class
            if current == self._class_pressure[op_class][2]:
                self._class_recompute(op_class)
        changes: List[Change] = [BoundChange(op_id, "lstart", value)]
        if estart == value:
            self._mark_fixed(op_id, value)
            changes.append(CycleFixed(op_id, value))
        return changes

    def fix_cycle(self, op_id: int, cycle: int) -> List[Change]:
        changes = self.set_estart(op_id, cycle)
        changes += self.set_lstart(op_id, cycle)
        return changes

    def forbid_cycle(self, op_id: int, cycle: int) -> List[Change]:
        """Exclude *cycle* from the operation's window.

        Only boundary cycles can be excluded exactly (the window is kept as
        an interval); excluding an interior cycle is a no-op.
        """
        if self.is_fixed(op_id) and self.estart[op_id] == cycle:
            raise Contradiction(f"operation {op_id} is pinned to forbidden cycle {cycle}")
        if self.estart[op_id] == cycle:
            return self.set_estart(op_id, cycle + 1)
        if self.lstart[op_id] == cycle:
            return self.set_lstart(op_id, cycle - 1)
        return []

    # ------------------------------------------------------------------ #
    # combinations
    # ------------------------------------------------------------------ #
    def chosen_distance(self, u: int, v: int) -> Optional[int]:
        """The chosen distance ``cycle(v') - cycle(u')`` for the ordered pair."""
        key = pair_key(u, v)
        return self._chosen.get(key)

    def discarded_distances(self, u: int, v: int) -> Set[int]:
        return set(self._discarded.get(pair_key(u, v), set()))

    def remaining_combinations(self, u: int, v: int) -> List[int]:
        """Distances still available for the pair (empty when decided).

        Backed by the delta-maintained ``_remaining`` tuples, so the read is
        a dict hit instead of filtering the full distance list; the order is
        the scheduling graph's distance order, exactly as before."""
        key = pair_key(u, v)
        if key in self._chosen:
            return []
        return list(self._remaining.get(key, ()))

    def is_pair_decided(self, u: int, v: int) -> bool:
        key = pair_key(u, v)
        if key in self._chosen:
            return True
        return key not in self._undecided_pairs

    def untreated_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of the scheduling graph not yet decided."""
        return sorted(self._undecided_pairs)

    def chosen_combinations(self) -> Dict[Tuple[int, int], int]:
        return dict(self._chosen)

    def choose_combination(self, u: int, v: int, distance: int) -> List[Change]:
        key = pair_key(u, v)
        if key != (u, v):
            distance = -distance
            u, v = key
        valid = self.sgraph.distances(u, v)
        if distance not in valid:
            raise Contradiction(
                f"distance {distance} is not a combination of pair ({u}, {v})"
            )
        if distance in self._discarded.get(key, ()):
            raise Contradiction(
                f"combination ({u}, {v})={distance} chosen but already discarded"
            )
        already = self._chosen.get(key)
        if already is not None:
            if already != distance:
                raise Contradiction(
                    f"pair ({u}, {v}) already has combination {already}, cannot choose {distance}"
                )
            return []
        self.trail.set_item(self._chosen, key, distance)
        self.trail.discard_from_set(self._undecided_pairs, key)
        changes: List[Change] = [CombinationChosen(u, v, distance)]
        # All other combinations of the pair are implicitly discarded.
        for other in sorted(set(valid) - {distance}):
            changes += self._discard(key, other)
        # The pair now forms (part of) a connected component.
        try:
            self.components.link(u, v, distance)
        except OffsetContradiction as exc:
            raise Contradiction(str(exc)) from exc
        return changes

    def _discard(self, key: Tuple[int, int], distance: int) -> List[Change]:
        trail = self.trail
        bucket = self._discarded.get(key)
        if bucket is None:
            bucket = set()
            trail.set_item(self._discarded, key, bucket)
        elif distance in bucket:
            return []
        trail.add_to_set(bucket, distance)
        left = self._remaining.get(key)
        if left is not None:
            left = tuple([d for d in left if d != distance])
            trail.set_item(self._remaining, key, left)
            if (
                not left
                and key not in self._chosen
                and key in self._undecided_pairs
            ):
                # Every combination of the pair is now ruled out: it is decided.
                trail.discard_from_set(self._undecided_pairs, key)
        return [CombinationDiscarded(key[0], key[1], distance)]

    def discard_combination(self, u: int, v: int, distance: int) -> List[Change]:
        key = pair_key(u, v)
        if key != (u, v):
            distance = -distance
            u, v = key
        if self._chosen.get(key) == distance:
            raise Contradiction(
                f"combination ({u}, {v})={distance} must be discarded but is chosen"
            )
        if distance not in self.sgraph.distances(u, v):
            return []
        return self._discard(key, distance)

    # ------------------------------------------------------------------ #
    # overlap queries
    # ------------------------------------------------------------------ #
    def can_overlap(self, u: int, v: int) -> bool:
        """Whether the current windows still allow the two to overlap."""
        lat_u, lat_v = self.latency(u), self.latency(v)
        return (
            self.estart[u] <= self.lstart[v] + lat_v - 1
            and self.estart[v] <= self.lstart[u] + lat_u - 1
        )

    def must_overlap(self, u: int, v: int) -> bool:
        """Whether every placement within the current windows overlaps."""
        lat_u, lat_v = self.latency(u), self.latency(v)
        if self.lstart[u] == INFINITY or self.lstart[v] == INFINITY:
            return False
        can_put_v_after_u = self.lstart[v] - self.estart[u] >= lat_u
        can_put_u_after_v = self.lstart[u] - self.estart[v] >= lat_v
        return not (can_put_v_after_u or can_put_u_after_v)

    def combination_window(self, u: int, v: int, distance: int) -> Tuple[int, float]:
        """Cycles at which the pair could be placed at the given distance.

        Returns ``(low, high)`` for the *u* issue cycle; the window is empty
        when ``low > high``.
        """
        key = pair_key(u, v)
        if key != (u, v):
            distance = -distance
        a, b = key
        # Mirrored inline by CombinationWindowRule on the hot path — keep
        # the two formulas in sync.
        low = max(self.estart[a], self.estart[b] - distance)
        high = min(self.lstart[a], self.lstart[b] - distance)
        return low, high

    def combination_slack(self, u: int, v: int, distance: int) -> float:
        low, high = self.combination_window(u, v, distance)
        return high - low

    def pair_slack(self, u: int, v: int) -> float:
        """Slack of the tightest remaining combination of the pair.

        Inlines :meth:`combination_slack` over the ``_remaining`` tuple in
        pair-key orientation (the stored distances are already key-oriented),
        avoiding a per-distance pair normalization and list build on the
        most-constraining-pair hot path."""
        key = pair_key(u, v)
        if key in self._chosen:
            return INFINITY
        remaining = self._remaining.get(key, ())
        if not remaining:
            return INFINITY
        a, b = key
        ea, eb = self.estart[a], self.estart[b]
        la, lb = self.lstart[a], self.lstart[b]
        best = INFINITY
        for distance in remaining:
            low = ea if ea >= eb - distance else eb - distance
            high = la if la <= lb - distance else lb - distance
            slack = high - low
            if slack < best:
                best = slack
        return best

    # ------------------------------------------------------------------ #
    # virtual clusters
    # ------------------------------------------------------------------ #
    def _bump_vcg_rev(self) -> None:
        """Stamp a fresh VCG revision (invalidates the out-edge cache).

        Must run whenever VCG mutations may have landed on the trail —
        including fusions that raise *after* partially mutating: those
        mutations stay visible until the caller rolls back, and the cache
        must not treat them as the stamped-at content."""
        self._vcg_rev_source += 1
        self.trail.set_attr(self, "_vcg_rev", self._vcg_rev_source)

    def fuse_vcs(self, u: int, v: int) -> List[Change]:
        try:
            merged = self.vcg.fuse(u, v)
        except VCContradiction as exc:
            self._bump_vcg_rev()
            raise Contradiction(str(exc)) from exc
        if merged:
            self._bump_vcg_rev()
            return [VCsFused(u, v)]
        return []

    def mark_incompatible(self, u: int, v: int) -> List[Change]:
        try:
            # mark_incompatible mutates nothing before its checks pass, so
            # the contradiction path needs no revision bump.
            added = self.vcg.mark_incompatible(u, v)
        except VCContradiction as exc:
            raise Contradiction(str(exc)) from exc
        if added:
            self._bump_vcg_rev()
            return [VCsIncompatible(u, v)]
        return []

    def pin_vc(self, op_id: int, physical_cluster: int) -> List[Change]:
        try:
            self.vcg.pin(op_id, physical_cluster)
        except VCContradiction as exc:
            raise Contradiction(str(exc)) from exc
        return []

    def same_vc(self, u: int, v: int) -> bool:
        return self.vcg.same_vc(u, v)

    def outedges(self) -> List[Tuple[int, int, str]]:
        """Register edges crossing two *different, still compatible* VCs.

        These are the out-edges stage 3 has to eliminate: each must end up
        either inside one VC (fusion) or across incompatible VCs (with a
        communication).  Returns a fresh list (stage 3 mutates the VCG while
        iterating it); the underlying scan is cached against the VCG
        revision stamp, so the scoring reads that only need the edge count
        pay a cache hit instead of an O(edges) union-find walk."""
        return list(self._outedges())

    def _outedges(self) -> List[Tuple[int, int, str]]:
        cached = self._outedges_cache
        rev = self._vcg_rev
        if cached is not None and cached[0] == rev:
            return cached[1]
        same_vc = self.vcg.same_vc
        are_incompatible = self.vcg.are_incompatible
        result = [
            triple
            for triple in self._reg_edge_triples
            if not same_vc(triple[0], triple[1])
            and not are_incompatible(triple[0], triple[1])
        ]
        self._outedges_cache = (rev, result)
        return result

    def crossing_edges(self) -> List[Tuple[int, int, str]]:
        """Register edges whose endpoints are in incompatible VCs."""
        result = []
        for edge in self.block.graph.register_edges():
            if self.vcg.are_incompatible(edge.src, edge.dst):
                result.append((edge.src, edge.dst, edge.value))
        return result

    # ------------------------------------------------------------------ #
    # communications
    # ------------------------------------------------------------------ #
    @property
    def copy_latency(self) -> int:
        """The machine's modelled inter-cluster copy latency (uniform for
        every topology — see :mod:`repro.machine.interconnect`)."""
        return self.machine.copy_latency

    #: Historical alias from the bus-only interconnect model.
    bus_latency = copy_latency

    def flc_for_value(self, value: str) -> Optional[Communication]:
        comm_id = self._value_flc.get(value)
        if comm_id is None:
            return None
        return self.comms.get(comm_id)

    def add_flc(self, producer: int, consumer: int, value: str) -> List[Change]:
        """Create (or reuse) the fully linked communication for *value*."""
        trail = self.trail
        existing = self._value_flc.get(value)
        if existing is not None:
            comm = self.comms.get(existing)
            changes: List[Change] = []
            if comm.consumer != consumer:
                # The same transferred value serves another consumer: the
                # consumer simply reads the communicated copy, so only the
                # timing edge is added.
                self._add_comm_edge(existing, consumer, self.copy_latency)
                changes += self.set_estart(
                    consumer, self.estart[existing] + self.copy_latency
                )
            return changes

        comm_id = self._new_comm_id()
        comm = Communication(comm_id=comm_id, value=value, producer=producer, consumer=consumer)
        self.comms.add(comm)
        self._register_comm_op(comm_id, make_copy(comm_id, value, latency=self.copy_latency))
        trail.set_item(self._value_flc, value, comm_id)
        self._add_comm_edge(producer, comm_id, self.latency(producer))
        self._add_comm_edge(comm_id, consumer, self.copy_latency)

        earliest = self.estart[producer] + self.latency(producer)
        latest = self.lstart[consumer] - self.copy_latency
        if latest < earliest:
            raise Contradiction(
                f"no room for communication of {value!r} between {producer} and {consumer}"
            )
        trail.set_item(self.estart, comm_id, earliest)
        trail.set_item(self.lstart, comm_id, latest)
        if latest != INFINITY:
            trail.set_attr(self, "_sum_slack", self._sum_slack + (latest - earliest))
            self._class_join(comm_id, earliest, int(latest))
        changes = [CommCreated(comm_id)]
        if earliest == latest:
            self._mark_fixed(comm_id, earliest)
            changes.append(CycleFixed(comm_id, earliest))
        else:
            trail.add_to_set(self._unfixed, comm_id)
        return changes

    def add_plc(
        self,
        alternatives: Sequence[Tuple[int, int]],
        value: Optional[str] = None,
        producer: Optional[int] = None,
        consumer: Optional[int] = None,
    ) -> List[Change]:
        """Create a partially linked communication covering *alternatives*."""
        alternatives = tuple(sorted(set(alternatives)))
        if not alternatives:
            raise ValueError("a PLC needs at least one producer/consumer alternative")
        # Avoid duplicates: an equivalent partial communication already queued.
        for comm in self.comms.partially_linked():
            if set(comm.alternatives) == set(alternatives):
                return []
        trail = self.trail
        comm_id = self._new_comm_id()
        comm = Communication(
            comm_id=comm_id,
            value=value,
            producer=producer,
            consumer=consumer,
            alternatives=alternatives,
        )
        self.comms.add(comm)
        self._register_comm_op(
            comm_id, make_copy(comm_id, value or f"plc{comm_id}", latency=self.copy_latency)
        )

        earliest = min(
            self.estart[p] + self.latency(p) for p in comm.possible_producers()
        )
        latest = max(
            self.lstart[c] - self.copy_latency for c in comm.possible_consumers()
        )
        if latest < earliest:
            raise Contradiction(
                f"no room for partially linked communication over {alternatives}"
            )
        trail.set_item(self.estart, comm_id, earliest)
        trail.set_item(self.lstart, comm_id, latest)
        if latest != INFINITY:
            trail.set_attr(self, "_sum_slack", self._sum_slack + (latest - earliest))
            self._class_join(comm_id, earliest, int(latest))
        changes = [CommCreated(comm_id)]
        if earliest == latest:
            self._mark_fixed(comm_id, earliest)
            changes.append(CycleFixed(comm_id, earliest))
        else:
            trail.add_to_set(self._unfixed, comm_id)
        return changes

    def resolve_plc(self, comm_id: int, producer: int, consumer: int, value: str) -> List[Change]:
        """Promote a partially linked communication to a fully linked one."""
        comm = self.comms.get(comm_id)
        if comm.is_fully_linked:
            return []
        existing = self._value_flc.get(value)
        if existing is not None and existing != comm_id:
            # The value already has its communication; this PLC is redundant.
            self._drop_comm(comm_id)
            return [CommResolved(comm_id)]
        resolved = comm.resolved(producer, consumer, value)
        self.comms.replace(resolved)
        trail = self.trail
        trail.set_item(self._value_flc, value, comm_id)
        self._add_comm_edge(producer, comm_id, self.latency(producer))
        self._add_comm_edge(comm_id, consumer, self.copy_latency)
        changes: List[Change] = [CommResolved(comm_id)]
        changes += self.set_estart(comm_id, self.estart[producer] + self.latency(producer))
        changes += self.set_lstart(comm_id, int(self.lstart[consumer]) - self.copy_latency
                                   if self.lstart[consumer] != INFINITY else self.lstart[comm_id])
        return changes

    def remove_plc_alternative(self, comm_id: int, pair: Tuple[int, int]) -> List[Change]:
        """Drop one producer/consumer alternative from a partially linked
        communication; when a single alternative remains the communication
        is promoted to a fully linked one, and when none remains it is
        dropped as unnecessary."""
        comm = self.comms.get(comm_id)
        if comm.is_fully_linked or pair not in comm.alternatives:
            return []
        remaining = tuple(a for a in comm.alternatives if a != pair)
        if not remaining:
            self._drop_comm(comm_id)
            return [CommResolved(comm_id)]
        if len(remaining) == 1:
            producer, consumer = remaining[0]
            edge = self.block.graph.edge(producer, consumer)
            value = edge.value if edge is not None and edge.value else f"plc{comm_id}"
            return self.resolve_plc(comm_id, producer, consumer, value)
        from dataclasses import replace as _replace

        self.comms.replace(_replace(comm, alternatives=remaining))
        return []

    def drop_unresolved_plcs(self) -> List[int]:
        """Remove partially linked communications that never became real.

        Called at the very end of scheduling: PLCs are insurance for copies
        that might be needed; once every virtual-cluster relation is decided
        the ones still unresolved are unnecessary by construction."""
        dropped = []
        for comm in list(self.comms.partially_linked()):
            self._drop_comm(comm.comm_id)
            dropped.append(comm.comm_id)
        return dropped

    def _drop_comm(self, comm_id: int) -> None:
        """Remove a redundant partially linked communication."""
        trail = self.trail
        cycle = self.cycle_of(comm_id) if comm_id in self.estart else None
        if cycle is not None:
            bucket = self._fixed_at.get(cycle)
            if bucket is not None:
                trail.discard_from_set(bucket, comm_id)
        trail.discard_from_set(self._unfixed, comm_id)
        trail.del_item(self._comm_ops, comm_id)
        trail.del_item(self._ops, comm_id)
        trail.del_item(self._latency, comm_id)
        lstart = self.lstart.get(comm_id, INFINITY)
        if lstart != INFINITY:
            trail.set_attr(self, "_sum_slack", self._sum_slack - (lstart - self.estart[comm_id]))
        trail.del_item(self.estart, comm_id)
        trail.del_item(self.lstart, comm_id)
        remaining_edges = [
            (s, d, l) for (s, d, l) in self._comm_edges if s != comm_id and d != comm_id
        ]
        trail.set_attr(self, "_comm_edges", remaining_edges)
        succ, pred = self._succ_comm, self._pred_comm
        out_edges = succ.get(comm_id)
        if out_edges:
            for dst, _lat in out_edges:
                trail.set_item(pred, dst, tuple(p for p in pred[dst] if p[0] != comm_id))
            trail.del_item(succ, comm_id)
        in_edges = pred.get(comm_id)
        if in_edges:
            for src, _lat in in_edges:
                trail.set_item(succ, src, tuple(s for s in succ[src] if s[0] != comm_id))
            trail.del_item(pred, comm_id)
        self.comms.remove(comm_id)
        self._invalidate_id_caches()
        if lstart != INFINITY:
            # The dropped communication was a member of the COPY aggregate.
            self._class_recompute(OpClass.COPY)

    def _add_comm_edge(self, src: int, dst: int, latency: int) -> None:
        """Record a communication dependence edge, keeping the per-op
        adjacency tuples in sync with ``_comm_edges`` (same insertion
        order, all through the trail)."""
        trail = self.trail
        trail.append_to_list(self._comm_edges, (src, dst, latency))
        succ, pred = self._succ_comm, self._pred_comm
        trail.set_item(succ, src, succ.get(src, ()) + ((dst, latency),))
        trail.set_item(pred, dst, pred.get(dst, ()) + ((src, latency),))

    def _register_comm_op(self, comm_id: int, op: Operation) -> None:
        trail = self.trail
        trail.set_item(self._comm_ops, comm_id, op)
        trail.set_item(self._ops, comm_id, op)
        trail.set_item(self._latency, comm_id, op.latency)
        self._invalidate_id_caches()

    def _new_comm_id(self) -> int:
        comm_id = self._next_comm_id
        self.trail.set_attr(self, "_next_comm_id", comm_id + 1)
        return comm_id

    # ------------------------------------------------------------------ #
    # exit deadlines
    # ------------------------------------------------------------------ #
    def set_exit_deadlines(self, deadlines: Dict[int, int]) -> List[Change]:
        changes: List[Change] = []
        trail = self.trail
        for op_id, cycle in deadlines.items():
            trail.set_item(self.exit_deadlines, op_id, cycle)
        for op_id, cycle in deadlines.items():
            changes += self.set_lstart(op_id, cycle)
        # Operations with no dependence path to any exit must still issue no
        # later than the block's final exit.  Only applied once every exit
        # has a deadline: partial deadline sets are used by the minAWCT
        # tightening probes and must not constrain unrelated operations.
        all_exits_bounded = all(
            e in self.exit_deadlines for e in self.block.exit_ids
        )
        if all_exits_bounded and self.exit_deadlines:
            last_deadline = max(self.exit_deadlines.values())
            for op_id in self._original_ids:
                if self.lstart[op_id] == INFINITY:
                    changes += self.set_lstart(op_id, last_deadline)
        return changes

    # ------------------------------------------------------------------ #
    # summary metrics used by the decision heuristics
    # ------------------------------------------------------------------ #
    def n_communications(self) -> int:
        return len(self.comms)

    def compactness(self) -> float:
        """Sum of original-operation estarts: smaller packs the code earlier.

        Delta-maintained by the bound mutators (an O(1) read); equals
        ``sum(self.estart[i] for i in self.original_ids)`` exactly."""
        return float(self._sum_estart_orig)

    def outedge_vc_ratio(self) -> float:
        n_vcs = self.vcg.n_vcs
        if n_vcs == 0:
            return 0.0
        return len(self._outedges()) / n_vcs

    def total_slack(self) -> float:
        """Sum of finite ``lstart - estart`` windows over all live operations.

        Delta-maintained by the bound mutators (an O(1) read); every term
        is integral, so the incremental float sum is exact and equals the
        full recomputation byte for byte."""
        return float(self._sum_slack)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fixed = sum(1 for i in self.all_ids if self.is_fixed(i))
        return (
            f"SchedulingState({self.block.name}: {fixed}/{len(self.all_ids)} fixed, "
            f"{len(self._chosen)} chosen combs, {self.vcg.n_vcs} VCs, "
            f"{len(self.comms)} comms)"
        )

"""State-updating rules: propagation of estart/lstart changes.

These rules keep the bounds coherent with the dependence graph (including
communication edges added during scheduling) and with the rigid offsets of
connected components formed by chosen combinations.
"""

from __future__ import annotations

from typing import List

from repro.deduction.consequence import (
    BoundChange,
    Change,
    CombinationChosen,
    CommCreated,
    CommResolved,
    CycleFixed,
)
from repro.deduction.rules.base import Rule
from repro.deduction.state import INFINITY, SchedulingState


class ForwardBoundPropagation(Rule):
    """An estart increase pushes the estarts of all successors."""

    triggers = (BoundChange, CycleFixed)

    def fire(self, state: SchedulingState, change: Change) -> List[Change]:
        if isinstance(change, BoundChange) and change.which != "estart":
            return []
        op_id = change.op_id
        if not state.has_op(op_id):
            return []
        out: List[Change] = []
        estart = state.estart
        base = estart[op_id]
        set_estart = state.set_estart
        for dst, latency in state.succ_edges(op_id):
            # Pre-filter the no-op case (set_estart returns [] when the
            # value does not raise the bound) to skip the call entirely.
            value = base + latency
            if value > estart[dst]:
                out += set_estart(dst, value)
        return out


class BackwardBoundPropagation(Rule):
    """An lstart decrease pulls the lstarts of all predecessors."""

    triggers = (BoundChange, CycleFixed)

    def fire(self, state: SchedulingState, change: Change) -> List[Change]:
        if isinstance(change, BoundChange) and change.which != "lstart":
            return []
        op_id = change.op_id
        if not state.has_op(op_id) or state.lstart[op_id] == INFINITY:
            return []
        out: List[Change] = []
        lstart = state.lstart
        base = int(lstart[op_id])
        set_lstart = state.set_lstart
        for src, latency in state.pred_edges(op_id):
            # Pre-filter the no-op case (set_lstart returns [] when the
            # value does not lower the bound) to skip the call entirely.
            value = base - latency
            if value < lstart[src]:
                out += set_lstart(src, value)
        return out


class ComponentPropagation(Rule):
    """Members of a connected component move rigidly together.

    When a combination is chosen, or when a bound of any member changes, the
    offsets recorded in the component imply bounds for every other member.
    """

    triggers = (BoundChange, CycleFixed, CombinationChosen)

    def fire(self, state: SchedulingState, change: Change) -> List[Change]:
        if isinstance(change, CombinationChosen):
            anchors = [change.u, change.v]
        else:
            anchors = [change.op_id]
        out: List[Change] = []
        components = state.components
        for anchor in anchors:
            if not state.has_op(anchor) or anchor not in components:
                continue
            # Most operations stay singleton components; a size probe is
            # one root walk instead of building the member/offset list.
            if components.component_size(anchor) <= 1:
                continue
            members = components.component(anchor)
            estart = state.estart
            lstart = state.lstart
            estart_a = estart[anchor]
            lstart_a = lstart[anchor]
            # Most firings find the component already rigid: every member
            # at the anchor's bounds plus its offset.  Then all four
            # setter calls per member below are no-ops that cannot raise.
            # (An infinite lstart plus an offset stays infinite, so the
            # lstart test also covers "both infinite".)
            if all(
                estart[m] == estart_a + o and lstart[m] == lstart_a + o for m, o in members
            ):
                continue
            for member, offset in members:
                if member == anchor:
                    continue
                out += state.set_estart(member, estart_a + offset)
                if lstart_a != INFINITY:
                    out += state.set_lstart(member, int(lstart_a) + offset)
                # The member's own bounds reflect back onto the anchor.
                out += state.set_estart(anchor, state.estart[member] - offset)
                if state.lstart[member] != INFINITY:
                    out += state.set_lstart(anchor, int(state.lstart[member]) - offset)
        return out


class CommunicationLinkRule(Rule):
    """A created/resolved communication couples producer, copy and consumer.

    The copy cannot start before the producer's result is available and the
    consumer cannot start before the copy has crossed the bus; symmetrically
    on the late side.
    """

    triggers = (CommCreated, CommResolved)

    def fire(self, state: SchedulingState, change: Change) -> List[Change]:
        comm_id = change.comm_id
        if comm_id not in state.comms:
            return []
        comm = state.comms.get(comm_id)
        out: List[Change] = []
        if comm_id not in state.estart:
            return []
        if comm.producer is not None:
            out += state.set_estart(
                comm_id, state.estart[comm.producer] + state.latency(comm.producer)
            )
            if state.lstart[comm_id] != INFINITY:
                out += state.set_lstart(
                    comm.producer,
                    int(state.lstart[comm_id]) - state.latency(comm.producer),
                )
        if comm.consumer is not None:
            out += state.set_estart(
                comm.consumer, state.estart[comm_id] + state.copy_latency
            )
            if state.lstart[comm.consumer] != INFINITY:
                out += state.set_lstart(
                    comm_id, int(state.lstart[comm.consumer]) - state.copy_latency
                )
        return out

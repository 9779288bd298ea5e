"""Candidate selection for the stages of the proposed algorithm.

Section 4.4.1 of the paper uses three selection methods: slack-based
selection for the instruction-scheduling stages (1, 2, 5, 6), a maximum
weight matching over virtual clusters for the out-edge elimination stage (3),
and a colouring-style ordering for the final mapping stage (4).  The helpers
here compute those candidates from a scheduling state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.deduction.state import SchedulingState


def most_constraining_pair(state: SchedulingState) -> Optional[Tuple[int, int, float]]:
    """The untreated pair with the least combination slack.

    Returns ``(u, v, slack)`` or None when every pair has been decided.
    The scan runs over the state's dirty-tracked undecided-pair set (kept
    up to date by the combination mutators) instead of re-deriving pair
    status from the combination lists on every stage iteration.
    """
    best: Optional[Tuple[int, int, float]] = None
    for u, v in state.untreated_pairs():
        slack = state.pair_slack(u, v)
        if best is None or slack < best[2] or (slack == best[2] and (u, v) < best[:2]):
            best = (u, v, slack)
    return best


def lowest_slack_operation(
    state: SchedulingState, communications: bool = False
) -> Optional[int]:
    """The unfixed operation with the smallest slack.

    With ``communications=True`` the search is over copy operations (stage
    6); otherwise over the block's original operations (stage 2).  For
    original operations the choice is restricted to *ready* ones — those
    whose dependence-graph predecessors are already pinned — so that pinning
    a consumer can never squeeze a producer that still has to be placed
    into an unschedulable corner."""
    unfixed = state.unfixed_ids(communications)
    if not unfixed:
        return None
    if not communications:
        # "Every predecessor fixed" is a zero check against the state's
        # unfixed-predecessor edge counts (maintained by the fix mutators),
        # replacing an O(preds) rescan per candidate per stage iteration.
        counts = state.unfixed_pred_counts()
        ready = [op_id for op_id in unfixed if counts[op_id] == 0]
        if ready:
            unfixed = ready
    return min(unfixed, key=lambda op_id: (state.slack(op_id), op_id))


def cycle_candidates(
    state: SchedulingState, op_id: int, count: int, hint: Optional[int] = None
) -> List[int]:
    """*count* candidate cycles from the operation's ``[estart, lstart]``
    window, earliest first.

    Without a hint these are simply the first *count* cycles of the
    window.  A *hint* (e.g. the cycle a CARS pre-pass placed the operation
    in — the hybrid backend's seeding) keeps ``estart`` and fills the
    remaining ``count - 1`` slots with the window cycles nearest the hint
    (earlier cycles win ties), returned in ascending order.  ``estart``
    always stays in the candidate set because the pinning stage's
    progress mechanism (``ForbidCycle`` on a contradicting earliest
    cycle) relies on the earliest cycle being probed; the deterministic
    ``(score, cycle)`` winner selection is unaffected by candidate
    order."""
    low = state.estart[op_id]
    high = int(state.lstart[op_id])
    if hint is None or hint <= low:
        return list(range(low, min(high, low + count - 1) + 1))
    # The count-1 nearest-to-hint cycles above estart all lie within
    # count-1 of the hint (clamped into the window), so only that band is
    # materialised — the window itself can be arbitrarily wide for
    # high-slack operations.
    centre = min(hint, high)
    band = range(max(low + 1, centre - count + 2), min(high, centre + count - 2) + 1)
    nearest = sorted(band, key=lambda cycle: (abs(cycle - hint), cycle))[: count - 1]
    return [low] + sorted(nearest)


def outedge_weights(state: SchedulingState) -> Dict[Tuple[int, int], int]:
    """Number of out-edges between every pair of (compatible) VC roots."""
    weights: Dict[Tuple[int, int], int] = {}
    for producer, consumer, _value in state.outedges():
        a = state.vcg.vc_of(producer)
        b = state.vcg.vc_of(consumer)
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + 1
    return weights


def matching_candidates(state: SchedulingState) -> List[Tuple[int, int]]:
    """VC pairs selected by a maximum weight matching over the matching graph.

    The matching graph has one node per VC and an edge for every pair of VCs
    with out-edges between them, weighted by the number of those out-edges
    (Section 4.4.1.2)."""
    weights = outedge_weights(state)
    if not weights:
        return []
    graph = nx.Graph()
    for (a, b), weight in weights.items():
        graph.add_edge(a, b, weight=weight)
    matching = nx.max_weight_matching(graph)
    pairs = [tuple(sorted(edge)) for edge in matching]
    return sorted(pairs)


def highest_weight_pair(state: SchedulingState) -> Optional[Tuple[int, int]]:
    """The VC pair with the most out-edges between them (E_highest_weight)."""
    weights = outedge_weights(state)
    if not weights:
        return None
    return max(sorted(weights), key=lambda key: weights[key])


def fusion_candidates_for_mapping(state: SchedulingState) -> List[Tuple[int, int]]:
    """Compatible VC pairs ordered for the final-mapping fusions (stage 4).

    Pairs sharing many incompatible neighbours are preferred (fusing them
    does not reduce the colourability of the VCG), mirroring the
    colouring-based ordering of Section 4.4.1.3."""
    roots = state.vcg.roots()
    scored: List[Tuple[Tuple[int, int, int, int], Tuple[int, int]]] = []
    for i, a in enumerate(roots):
        neighbours_a = set(state.vcg.incompatible_with(a))
        for b in roots[i + 1:]:
            if state.vcg.are_incompatible(a, b):
                continue
            neighbours_b = set(state.vcg.incompatible_with(b))
            shared = len(neighbours_a & neighbours_b)
            union = len(neighbours_a | neighbours_b)
            scored.append(((-shared, union, a, b), (a, b)))
    scored.sort()
    return [pair for _, pair in scored]

"""Property tests: checkpoint/rollback restores the state exactly.

The trail-based scheduler probes candidate decisions in place and rolls
them back; the whole optimisation is sound only if a rollback restores the
scheduling state *observably identically* — bounds, chosen/discarded
combinations, connected components, the VCG partition, communications and
the dirty-tracked candidate caches.  Hypothesis drives random decision
sequences through the deduction process and asserts exactly that, including
nested checkpoints and redo logs.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.deduction import DeductionProcess, SchedulingState
from repro.deduction.consequence import (
    ChooseCombination,
    DiscardCombination,
    ForbidCycle,
    FuseVCs,
    MarkVCsIncompatible,
    ScheduleInCycle,
    SetExitDeadlines,
)
from repro.machine import example_2cluster, paper_2c_8i_1lat
from repro.sgraph import SchedulingGraph
from repro.workloads import paper_figure1_block
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator

INFINITY = math.inf


def _contexts():
    """(block, machine, sgraph) fixtures shared by all examples."""
    contexts = []
    block = paper_figure1_block()
    machine = example_2cluster()
    contexts.append((block, machine, SchedulingGraph(block, machine)))
    gen = SuperblockGenerator(GeneratorConfig(min_ops=8, max_ops=14), seed=3)
    synth = gen.generate(name="trail-synth")
    machine2 = paper_2c_8i_1lat()
    contexts.append((synth, machine2, SchedulingGraph(synth, machine2)))
    return contexts


_CONTEXTS = _contexts()


def snapshot(state: SchedulingState):
    """Every observable component of the scheduling state."""
    return (
        dict(state.estart),
        dict(state.lstart),
        # Delta-maintained bound aggregates: restored by the trail's
        # inverse-delta entries, so every rollback/redo round-trip below
        # also proves the aggregates travel with the bounds.
        state.compactness(),
        state.total_slack(),
        state.chosen_combinations(),
        {k: frozenset(v) for k, v in state._discarded.items() if v},
        state.components.components(),
        state.vcg.vcs(),
        state.vcg.incompatibility_pairs(),
        {root: state.vcg.pin_of(root) for root in state.vcg.roots()},
        tuple(
            (c.comm_id, c.value, c.producer, c.consumer, c.alternatives)
            for c in state.comms
        ),
        tuple(state.comm_edges()),
        dict(state._value_flc),
        state._next_comm_id,
        dict(state.exit_deadlines),
        tuple(state.untreated_pairs()),
        frozenset(state._unfixed),
        {c: frozenset(s) for c, s in state._fixed_at.items() if s},
        tuple(state.all_ids),
    )


def check_cache_coherence(state: SchedulingState):
    """The dirty-tracked caches must match a from-scratch derivation."""
    assert state.compactness() == float(sum(state.estart[i] for i in state.original_ids))
    expected_slack = sum(
        state.lstart[i] - state.estart[i]
        for i in state.all_ids
        if state.lstart[i] != INFINITY
    )
    assert state.total_slack() == float(expected_slack)
    derived_unfixed = {i for i in state.all_ids if not state.is_fixed(i)}
    assert state._unfixed == derived_unfixed
    derived_undecided = {
        pair
        for pair in state.sgraph.pairs()
        if pair not in state._chosen and state.remaining_combinations(*pair)
    }
    assert state._undecided_pairs == derived_undecided
    derived_fixed_at = {}
    for i in state.all_ids:
        cycle = state.cycle_of(i)
        if cycle is not None:
            derived_fixed_at.setdefault(cycle, set()).add(i)
    assert {c: s for c, s in state._fixed_at.items() if s} == derived_fixed_at
    assert state.all_ids == state.original_ids + sorted(state._comm_ops)


@st.composite
def decision_sequences(draw):
    """A context index plus a list of (possibly contradictory) decisions."""
    ctx_index = draw(st.integers(min_value=0, max_value=len(_CONTEXTS) - 1))
    block, machine, sgraph = _CONTEXTS[ctx_index]
    op_ids = block.op_ids
    pairs = sgraph.pairs() or [(op_ids[0], op_ids[-1])]
    exits = block.exit_ids

    def one_decision(d):
        kind = d(st.integers(min_value=0, max_value=6))
        if kind == 0:
            u, v = d(st.sampled_from(pairs))
            distances = sgraph.distances(u, v) or (0,)
            return ChooseCombination(u, v, d(st.sampled_from(list(distances))))
        if kind == 1:
            u, v = d(st.sampled_from(pairs))
            distances = sgraph.distances(u, v) or (0,)
            return DiscardCombination(u, v, d(st.sampled_from(list(distances))))
        if kind == 2:
            return ScheduleInCycle(
                d(st.sampled_from(op_ids)), d(st.integers(min_value=0, max_value=12))
            )
        if kind == 3:
            return ForbidCycle(
                d(st.sampled_from(op_ids)), d(st.integers(min_value=0, max_value=12))
            )
        if kind == 4:
            u = d(st.sampled_from(op_ids))
            v = d(st.sampled_from(op_ids))
            if u == v:
                v = op_ids[(op_ids.index(u) + 1) % len(op_ids)]
            return FuseVCs.single(u, v)
        if kind == 5:
            u = d(st.sampled_from(op_ids))
            v = d(st.sampled_from(op_ids))
            if u == v:
                v = op_ids[(op_ids.index(u) + 1) % len(op_ids)]
            return MarkVCsIncompatible.single(u, v)
        deadlines = {
            e: d(st.integers(min_value=4, max_value=16))
            for e in exits
            if d(st.booleans())
        }
        if not deadlines:
            deadlines = {exits[-1]: 12}
        return SetExitDeadlines.from_mapping(deadlines)

    n = draw(st.integers(min_value=1, max_value=8))
    return ctx_index, [one_decision(draw) for _ in range(n)]


def apply_all(dp, state, decisions, budget=None):
    for decision in decisions:
        result = dp.apply(state, decision, in_place=True)
        if not result.ok:
            # A contradiction leaves partial mutations behind by design;
            # the scheduler always rolls back afterwards, so stop here.
            return False
    return True


class TestRollbackEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(decision_sequences())
    def test_rollback_restores_observable_state(self, case):
        ctx_index, decisions = case
        block, machine, sgraph = _CONTEXTS[ctx_index]
        state = SchedulingState(block, machine, sgraph)
        dp = DeductionProcess()
        before = snapshot(state)
        mark = state.checkpoint()
        apply_all(dp, state, decisions)
        state.rollback(mark)
        assert snapshot(state) == before
        check_cache_coherence(state)

    @settings(max_examples=15, deadline=None)
    @given(decision_sequences())
    def test_nested_checkpoints(self, case):
        ctx_index, decisions = case
        block, machine, sgraph = _CONTEXTS[ctx_index]
        state = SchedulingState(block, machine, sgraph)
        dp = DeductionProcess()
        split = max(1, len(decisions) // 2)
        s0 = snapshot(state)
        outer = state.checkpoint()
        ok = apply_all(dp, state, decisions[:split])
        if not ok:
            state.rollback(outer)
            assert snapshot(state) == s0
            return
        s1 = snapshot(state)
        inner = state.checkpoint()
        apply_all(dp, state, decisions[split:])
        state.rollback(inner)
        assert snapshot(state) == s1
        state.rollback(outer)
        assert snapshot(state) == s0

    @settings(max_examples=15, deadline=None)
    @given(decision_sequences())
    def test_redo_log_reproduces_span(self, case):
        """rollback_capture + redo must reproduce the probed state exactly."""
        ctx_index, decisions = case
        block, machine, sgraph = _CONTEXTS[ctx_index]
        state = SchedulingState(block, machine, sgraph)
        dp = DeductionProcess()
        mark = state.checkpoint()
        ok = apply_all(dp, state, decisions)
        if not ok:
            state.rollback(mark)
            return
        applied = snapshot(state)
        before = state.checkpoint()  # == trail position after the span
        log = state.rollback_capture(mark)
        state.redo(log)
        assert snapshot(state) == applied
        # The redone span is itself rollbackable.
        state.rollback(mark)
        _ = before
        check_cache_coherence(state)

    @settings(max_examples=15, deadline=None)
    @given(decision_sequences())
    def test_caches_track_forward_mutations(self, case):
        ctx_index, decisions = case
        block, machine, sgraph = _CONTEXTS[ctx_index]
        state = SchedulingState(block, machine, sgraph)
        dp = DeductionProcess()
        apply_all(dp, state, decisions)
        # Whatever happened (including partially applied contradictions is
        # excluded: mutators raise mid-change), the caches stay coherent
        # after every *successful* prefix; re-check on the current state
        # only when the last decision succeeded.
        state2 = SchedulingState(block, machine, sgraph)
        for decision in decisions:
            result = dp.apply(state2, decision, in_place=True)
            if not result.ok:
                break
            check_cache_coherence(state2)

    def test_copy_equals_trail_state(self):
        """state.copy() of a mutated state observably equals the original."""
        block, machine, sgraph = _CONTEXTS[0]
        state = SchedulingState(block, machine, sgraph)
        dp = DeductionProcess()
        exits = block.exit_ids
        apply_all(dp, state, [SetExitDeadlines.from_mapping({e: 9 for e in exits})])
        clone = state.copy()
        assert snapshot(clone) == snapshot(state)
        # Mutating the clone must not leak into the original.
        before = snapshot(state)
        apply_all(dp, clone, [ScheduleInCycle(block.op_ids[0], 0)])
        assert snapshot(state) == before

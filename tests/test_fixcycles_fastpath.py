"""The cycle-pinning round's early cut and in-place winner, checked at
their foundations.

A pinning round (stages 2 and 6) probes candidate cycles in ascending
order and stops once an optimistic floor on the score proves that no
later cycle can beat the current winner.  The floor rests on one lemma
about the deduction process: pinning an operation to cycle ``c`` never
lowers the number of fully-linked communications, and raises
``compactness()`` by at least ``c - e`` for an original operation whose
estart was ``e`` before the decision.  The first test checks that lemma
as a Hypothesis property on synthetic blocks over the machine families.

A round's final winner stays in place instead of being captured and
redone; the second test checks that both ways reach the same state,
field by field and in trail length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deduction import DeductionProcess, SchedulingState
from repro.deduction.consequence import (
    FuseVCs,
    MarkVCsIncompatible,
    ScheduleInCycle,
    SetExitDeadlines,
)
from repro.machine.families import machine_by_name, machine_families
from repro.sgraph import SchedulingGraph
from repro.workloads import GeneratorConfig, SuperblockGenerator

#: Every family machine except the worked examples, which cannot execute
#: the synthetic blocks' memory and floating-point operations.
MACHINE_NAMES = [
    name
    for family in machine_families()
    if family.name != "examples"
    for name in family.spec_names
]

#: Cache fields a rollback invalidates and a forward mutation may fill;
#: they are rebuilt on demand, so they are not part of the state.
CACHE_FIELDS = {"_ids_cache", "_comm_ids_cache", "_class_ids_cache", "_outedges_cache"}


def _random_block(seed: int, size: int):
    config = GeneratorConfig(min_ops=size, max_ops=size, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"fastpath/{seed}")


def _inputs(seed: int, size: int, machine_name: str):
    block = _random_block(seed, size)
    machine = machine_by_name(machine_name)
    return block, machine, SchedulingGraph(block, machine)


def _bounded_state(inputs, slack: int):
    """A state with every exit bounded ``slack`` cycles after its estart,
    or ``None`` when the deduction already contradicts that."""
    block = inputs[0]
    state = SchedulingState(*inputs)
    dp = DeductionProcess()
    deadlines = {e: state.estart[e] + slack for e in block.exit_ids}
    if not dp.apply(state, SetExitDeadlines.from_mapping(deadlines), in_place=True).ok:
        return None, dp
    return state, dp


def _apply_prefix(dp, state, prefix) -> None:
    """Drive *state* deeper with fusions, pins and incompatibilities
    across register edges (which create communications); a decision that
    contradicts is undone."""
    edges = state.block.graph.register_edges()
    for kind, a, b in prefix:
        ids = state.all_ids
        u, v = ids[a % len(ids)], ids[b % len(ids)]
        if kind == 1 and edges:
            u, v = edges[a % len(edges)].src, edges[a % len(edges)].dst
        if kind == 2:
            decision = ScheduleInCycle(u, state.estart[u] + b % 3)
        elif u == v or state.is_comm(u) or state.is_comm(v):
            continue
        elif kind == 0:
            decision = FuseVCs.single(u, v)
        else:
            decision = MarkVCsIncompatible.single(u, v)
        mark = state.checkpoint()
        if not dp.apply(state, decision, in_place=True).ok:
            state.rollback(mark)


decisions = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.integers(0, 10**6)), max_size=10
)


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(6, 14),
    machine_name=st.sampled_from(MACHINE_NAMES),
    slack=st.integers(0, 4),
    prefix=decisions,
    pick=st.integers(0, 10**6),
    shift=st.integers(0, 3),
    communication=st.booleans(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_early_cut_keeps_schedules(
    seed, size, machine_name, slack, prefix, pick, shift, communication
):
    """The early cut's floor holds, so the cut never skips a cycle that
    could have won: pinning an operation ``shift`` cycles after its
    estart keeps every fully-linked communication and, for an original
    operation, raises compactness by at least ``shift``."""
    state, dp = _bounded_state(_inputs(seed, size, machine_name), slack)
    if state is None:
        return
    _apply_prefix(dp, state, prefix)
    unfixed = [i for i in state.all_ids if not state.is_fixed(i)]
    comms = [i for i in unfixed if state.is_comm(i)]
    if communication and comms:
        unfixed = comms
    if not unfixed:
        return
    op_id = unfixed[pick % len(unfixed)]
    estart = state.estart[op_id]
    fully_linked = len(state.comms.fully_linked())
    compactness = state.compactness()
    result = dp.apply(state, ScheduleInCycle(op_id, estart + shift), in_place=True)
    if not result.ok:
        return
    assert len(state.comms.fully_linked()) >= fully_linked
    assert state.n_communications() >= fully_linked
    floor = compactness if state.is_comm(op_id) else compactness + shift
    assert state.compactness() >= floor


def _fields(obj) -> dict:
    """Every field of *obj* except trail references and caches; nested
    trail-attached structures are expanded, dicts keep their order."""
    out = {}
    for name, value in vars(obj).items():
        if name in CACHE_FIELDS or name in ("trail", "_trail"):
            continue
        if name in ("components", "vcg", "comms"):
            value = _fields(value)
        elif isinstance(value, dict):
            value = list(value.items())
        out[name] = value
    return out


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(6, 12),
    machine_name=st.sampled_from(MACHINE_NAMES),
    prefix=decisions,
    pick=st.integers(0, 10**6),
    shift=st.integers(0, 2),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_winner_kept_in_place_equals_capture_and_redo(
    seed, size, machine_name, prefix, pick, shift
):
    """Keeping a probed winner in place leaves the same state, field by
    field and in trail length, as rolling it back with a redo log and
    redoing it."""
    inputs = _inputs(seed, size, machine_name)
    states = []
    for keep in (True, False):
        state, dp = _bounded_state(inputs, slack=3)
        if state is None:
            return
        _apply_prefix(dp, state, prefix)
        unfixed = [i for i in state.all_ids if not state.is_fixed(i)]
        if not unfixed:
            return
        op_id = unfixed[pick % len(unfixed)]
        decision = ScheduleInCycle(op_id, state.estart[op_id] + shift)
        mark = state.checkpoint()
        if not dp.apply(state, decision, in_place=True).ok:
            return
        if not keep:
            state.redo(state.rollback_capture(mark))
        states.append(state)
    kept, redone = states
    assert len(kept.trail) == len(redone.trail)
    assert _fields(kept) == _fields(redone)

"""Micro-benchmarks of the deduction hot path.

Times the three optimisations this repository's hot path is built on:

* **trail probing** — apply-then-undo of a candidate decision versus the
  legacy deep-copy-then-apply (``VcsConfig.use_trail``);
* **indexed rule dispatch** — one deduction through the type-keyed
  dispatch table of the deduction engine;
* **full scheduler passes** in both probing modes over a seeded synthetic
  workload (scaled by ``REPRO_BENCH_BLOCKS``).

These are pytest-benchmark timings of single layers, reported, not
gated.  End-to-end wall time is perfbench's (``perfbench/run.py``), and
schedule identity across the two probing modes is the conformance
corpus's (``scripts/check_conformance.py``, ``copy`` mode).
"""

import pytest

from benchmarks.conftest import bench_blocks
from repro.deduction import DeductionProcess, SchedulingState
from repro.deduction.consequence import ScheduleInCycle, SetExitDeadlines
from repro.machine import paper_2c_8i_1lat
from repro.scheduler import VcsConfig, VirtualClusterScheduler
from repro.sgraph import SchedulingGraph
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator


@pytest.fixture(scope="module")
def probe_context():
    """A mid-size bounded state plus a decision worth probing."""
    gen = SuperblockGenerator(GeneratorConfig(min_ops=30, max_ops=40), seed=5)
    block = gen.generate("hotpath")
    machine = paper_2c_8i_1lat()
    sgraph = SchedulingGraph(block, machine)
    dp = DeductionProcess()
    state = SchedulingState(block, machine, sgraph)
    deadline = max(state.estart[e] for e in block.exit_ids) + 6
    result = dp.apply(
        state,
        SetExitDeadlines.from_mapping({e: deadline for e in block.exit_ids}),
        in_place=True,
    )
    assert result.ok
    op_id = next(i for i in block.op_ids if not state.is_fixed(i))
    return dp, state, ScheduleInCycle(op_id, state.estart[op_id])


def test_bench_probe_with_trail(benchmark, probe_context):
    """Apply-then-undo of one decision (the new hot path)."""
    dp, state, decision = probe_context

    def probe():
        mark = state.checkpoint()
        result = dp.apply(state, decision, in_place=True)
        state.rollback(mark)
        return result

    result = benchmark(probe)
    assert result.ok


def test_bench_probe_with_copy(benchmark, probe_context):
    """Deep-copy-then-apply of the same decision (copy-mode probing).

    Note: this is the *current* code base with copy-based probing — it
    still benefits from the indexed dispatch and candidate caches and pays
    for trail recording, so it isolates the probing strategy only."""
    dp, state, decision = probe_context

    def probe():
        return dp.apply(state.copy(), decision, in_place=True)

    result = benchmark(probe)
    assert result.ok


def test_bench_rule_dispatch(benchmark, probe_context):
    """One in-place deduction through the type-indexed dispatch table."""
    _, state, decision = probe_context
    dp = DeductionProcess()

    def probe():
        mark = state.checkpoint()
        result = dp.apply(state, decision, in_place=True)
        state.rollback(mark)
        return result

    result = benchmark(probe)
    assert result.ok


@pytest.fixture(scope="module")
def workload():
    gen = SuperblockGenerator(GeneratorConfig(min_ops=16, max_ops=32), seed=9)
    return gen.generate_many("perf", max(bench_blocks(), 1)), paper_2c_8i_1lat()


@pytest.mark.parametrize("use_trail", [True, False], ids=["trail", "copy"])
def test_bench_vcs_full_pass(benchmark, workload, use_trail):
    """One full scheduling pass over the synthetic workload, both modes."""
    blocks, machine = workload
    config = VcsConfig(use_trail=use_trail)

    def run():
        return [VirtualClusterScheduler(config).schedule(b, machine) for b in blocks]

    results = benchmark(run)
    assert all(r.ok for r in results)


def test_trail_avoids_every_copy(workload):
    """Bookkeeping check backing the BENCH report's copies-avoided metric:
    the trail run performs zero state copies and at least as many in-place
    probes as the copy run performs deep copies."""
    blocks, machine = workload
    for block in blocks:
        trail = VirtualClusterScheduler(VcsConfig(use_trail=True)).schedule(block, machine)
        copy = VirtualClusterScheduler(VcsConfig(use_trail=False)).schedule(block, machine)
        assert trail.stats["copies"] == 0
        assert copy.stats["probes"] == 0
        assert trail.stats["copies_avoided"] >= copy.stats["copies"]
        assert trail.work == copy.work

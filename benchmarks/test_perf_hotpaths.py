"""Micro-benchmarks of the deduction hot path.

Times the optimisations this repository's hot path is built on:

* **trail probing** — apply-then-undo of a candidate decision, next to
  deep-copy-then-apply of the same decision (the cost the trail avoids);
* **indexed rule dispatch** — one deduction through the type-keyed
  dispatch table of the deduction engine;
* **a result-cache hit over HTTP** — a stored job POSTed to a job
  server, which answers it from the request's wire form;
* **full scheduler passes** over a seeded synthetic workload (scaled by
  ``REPRO_BENCH_BLOCKS``).

These are pytest-benchmark timings of single layers, reported, not
gated.  End-to-end wall time is perfbench's (``perfbench/run.py``), and
schedule identity is the conformance corpus's
(``scripts/check_conformance.py``).
"""

import pytest

from benchmarks.conftest import bench_blocks
from repro.api import ScheduleRequest
from repro.deduction import DeductionProcess, SchedulingState
from repro.deduction.consequence import ScheduleInCycle, SetExitDeadlines
from repro.machine import paper_2c_8i_1lat
from repro.runner import BatchScheduler, CacheSpec
from repro.scheduler import VirtualClusterScheduler
from repro.service import ServerThread, ServiceClient
from repro.sgraph import SchedulingGraph
from repro.workloads import paper_figure1_block
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
    """Deep-copy-then-apply of the same decision: what probing would cost
    without the trail.  It still benefits from the indexed dispatch and
    candidate caches and pays for trail recording, so it isolates the
    probing strategy only."""
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


def test_bench_service_cache_hit(benchmark, tmp_path):
    """One result-cache hit over HTTP: the POST of a stored job to a job
    server, answered from the request's wire form (neither the block nor
    the machine is decoded)."""
    request = ScheduleRequest(
        block=paper_figure1_block(), machine=paper_2c_8i_1lat(), backend="vcs"
    )
    with ServerThread(
        runner=BatchScheduler(jobs=1), cache=CacheSpec(root=str(tmp_path))
    ) as server:
        client = ServiceClient(server.url)
        assert client.schedule(request).cache == "miss"
        wire = request.to_dict()
        payload = benchmark(lambda: client._call("POST", "/api/v1/jobs", wire)[1])
    assert payload["response"]["cache"] == "hit"


@pytest.fixture(scope="module")
def workload():
    gen = SuperblockGenerator(GeneratorConfig(min_ops=16, max_ops=32), seed=9)
    return gen.generate_many("perf", max(bench_blocks(), 1)), paper_2c_8i_1lat()


def test_bench_vcs_full_pass(benchmark, workload):
    """One full scheduling pass over the synthetic workload."""
    blocks, machine = workload

    def run():
        return [VirtualClusterScheduler().schedule(b, machine) for b in blocks]

    results = benchmark(run)
    assert all(r.ok for r in results)


def test_trail_avoids_every_copy(workload, monkeypatch):
    """Every probe of a full scheduling pass runs in place: the scheduler
    never deep-copies a scheduling state."""
    blocks, machine = workload
    copies = []
    original = SchedulingState.copy

    def counting_copy(state):
        copies.append(state)
        return original(state)

    monkeypatch.setattr(SchedulingState, "copy", counting_copy)
    for block in blocks:
        result = VirtualClusterScheduler().schedule(block, machine)
        assert result.stats["probes"] > 0
    assert copies == []

"""Determinism: in-place trail probing reproduces the golden schedules.

The scheduler probes every candidate decision in place and rolls it back
through the mutation trail, so any state a rollback or redo fails to
restore shows up as a schedule or a work count that moves.  These tests
hold the scheduler to the strongest observable form of determinism —
byte-identical schedules (cycles, cluster assignment, communications),
identical deterministic work counts and identical AWCT-target
trajectories — against the golden corpus (``conformance.json``), across
repeated runs, across a reused scheduler instance and across the config's
wire form, on the paper's worked example, the hand-written kernels and a
seeded synthetic suite.
"""

import json
from pathlib import Path

import pytest

from repro.machine import (
    example_2cluster,
    paper_2c_8i_1lat,
    paper_4c_16i_1lat,
    paper_4c_16i_2lat,
)
from repro.runner import fingerprint_digest
from repro.scheduler import VcsConfig, VirtualClusterScheduler
from repro.workloads import (
    dct_butterfly_kernel,
    dot_product_kernel,
    fir_kernel,
    paper_figure1_block,
    string_search_kernel,
)
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator

GOLDEN = Path(__file__).resolve().parent.parent / "conformance.json"

MACHINES = [paper_2c_8i_1lat(), paper_4c_16i_1lat(), paper_4c_16i_2lat()]

KERNELS = [
    paper_figure1_block(),
    fir_kernel(taps=3),
    dot_product_kernel(width=3),
    dct_butterfly_kernel(),
    string_search_kernel(),
]


def fingerprint(result):
    """Everything observable about a scheduling run, order-normalised."""
    schedule = result.schedule
    if schedule is None:
        body = None
    else:
        body = (
            sorted(schedule.cycles.items()),
            sorted(schedule.clusters.items()),
            [
                (c.value, c.producer, c.cycle, c.src_cluster, c.dst_cluster)
                for c in schedule.comms
            ],
        )
    return (result.work, result.awct_target_steps, result.fallback_used, body)


def golden_case(block, machine) -> dict:
    """The corpus's golden values for the default ``vcs`` backend."""
    corpus = json.loads(GOLDEN.read_text())
    (case,) = [
        case
        for case in corpus["cases"]
        if case["block"] == block.name
        and case["machine"] == machine.name
        and case["backend"] == {"name": "vcs"}
    ]
    return case


class TestPaperExample:
    def test_paper_example_identical(self):
        first = VirtualClusterScheduler().schedule(paper_figure1_block(), example_2cluster())
        second = VirtualClusterScheduler().schedule(paper_figure1_block(), example_2cluster())
        assert fingerprint(first) == fingerprint(second)
        assert first.awct == pytest.approx(9.4, abs=1e-6)
        # Every redo replays a winner that an earlier rollback captured.
        assert first.stats["probes"] > 0
        assert first.stats["redos"] <= first.stats["rollbacks"]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("block", KERNELS, ids=lambda b: b.name)
class TestKernelsIdentical:
    def test_schedules_byte_identical(self, block, machine):
        result = VirtualClusterScheduler().schedule(block, machine)
        golden = golden_case(block, machine)
        assert fingerprint_digest([result.fingerprint()]) == golden["digest"]
        assert result.work == golden["dp_work"]
        assert result.awct == golden["awct"]


class TestSyntheticSuiteIdentical:
    def test_seeded_synthetic_blocks(self):
        """One scheduler instance reused across blocks leaks no state: each
        block schedules exactly as on a fresh instance."""
        gen = SuperblockGenerator(GeneratorConfig(min_ops=10, max_ops=26), seed=20)
        blocks = gen.generate_many("determinism", 4)
        machine = paper_2c_8i_1lat()
        reused = VirtualClusterScheduler()
        for block in blocks:
            fresh = VirtualClusterScheduler().schedule(block, machine)
            assert fingerprint(reused.schedule(block, machine)) == fingerprint(fresh), block.name

    def test_ablation_configs_identical(self):
        """An ablation configuration sent through its wire form
        (``to_dict``/``from_dict``) schedules byte-identically."""
        block = paper_figure1_block()
        machine = paper_2c_8i_1lat()
        for kwargs in (
            {"enable_plc": False},
            {"eager_mapping": True},
            {"use_matching": False},
            {"stage1_slack_limit": 0.0},
        ):
            config = VcsConfig(**kwargs)
            wired = VcsConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            direct = VirtualClusterScheduler(config).schedule(block, machine)
            again = VirtualClusterScheduler(wired).schedule(block, machine)
            assert fingerprint(direct) == fingerprint(again), kwargs

    def test_budget_exhaustion_identical(self):
        """Work accounting is exact: a budget of exactly the run's dp_work
        reproduces the unbudgeted run, and one unit less exhausts it and
        falls back."""
        block = string_search_kernel()
        machine = paper_4c_16i_1lat()
        unlimited = VirtualClusterScheduler().schedule(block, machine)
        assert not unlimited.fallback_used
        spent = unlimited.work
        exact = VirtualClusterScheduler(VcsConfig(work_budget=spent)).schedule(block, machine)
        assert fingerprint(exact) == fingerprint(unlimited)
        assert not exact.timed_out
        short = VirtualClusterScheduler(VcsConfig(work_budget=spent - 1)).schedule(block, machine)
        assert short.timed_out and short.fallback_used

    def test_trail_mode_repeatable(self):
        """Two runs of the same input are identical (no hidden state)."""
        block = dct_butterfly_kernel()
        machine = paper_4c_16i_2lat()
        first = VirtualClusterScheduler().schedule(block, machine)
        second = VirtualClusterScheduler().schedule(block, machine)
        assert fingerprint(first) == fingerprint(second)

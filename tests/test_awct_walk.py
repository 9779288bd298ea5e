"""The AWCT walk: streaks of identical rejections, the ceiling probe, the
structural stop, the floor and the comparison with the fallback."""

import pytest

import repro.workloads as workloads
from repro.machine import example_2cluster, paper_4c_16i_1lat
from repro.machine.families import machine_by_name
from repro.scheduler import CarsScheduler, VcsConfig, VirtualClusterScheduler, validate_schedule
from repro.scheduler.vcs import STRUCTURAL_STREAK
from repro.workloads import paper_figure1_block

from tests.helpers import linear_chain_block

PROFILES = {p.name: p for p in workloads.workload_family("paper").profiles}


def paper_block(benchmark: str, index: int = 0):
    profile = PROFILES[benchmark]
    generator = workloads.SuperblockGenerator(profile.generator, seed=profile.seed)
    return generator.generate(f"{benchmark}/sb_{index:04d}", index=index)


class CountingFallback:
    """CARS, counting how often the walk asks for it."""

    def __init__(self):
        self.calls = 0

    def schedule(self, block, machine):
        self.calls += 1
        return CarsScheduler().schedule(block, machine)


def test_structural_rejection_stops_the_walk_with_the_fallback():
    """``final-mapping`` rejects every target on the same candidate set,
    and the ceiling too: the walk stops after one streak."""
    block, machine = paper_block("mpeg2enc"), machine_by_name("2clust 1b 1lat")
    result = VirtualClusterScheduler().schedule(block, machine)
    cars = CarsScheduler().schedule(block, machine)
    assert result.awct_target_steps <= 10
    assert result.fallback_used and not result.timed_out
    assert result.schedule.fingerprint() == cars.schedule.fingerprint()
    assert result.stats["walk_stop"] == "structural"
    assert result.stats["rejected_final-mapping"] == STRUCTURAL_STREAK
    assert result.stats["ceiling_probes"] == 1


def test_floor_returns_the_ceiling_when_it_beats_the_fallback():
    block, machine = paper_block("mpeg2enc"), machine_by_name("4clust 1b 1lat")
    result = VirtualClusterScheduler().schedule(block, machine)
    assert result.awct == pytest.approx(9.4594, abs=1e-4)
    assert result.awct < CarsScheduler().schedule(block, machine).awct
    assert not result.fallback_used
    assert result.awct_target_steps == VcsConfig().max_awct_steps
    assert result.stats["walk_stop"] == "max-steps"
    assert result.stats["ceiling_probes"] == 1
    assert validate_schedule(result.schedule).ok


def test_a_streak_whose_ceiling_succeeds_keeps_walking():
    """Eight ``fix-cycles`` rejections in a row, but the ceiling is not
    rejected by ``fix-cycles``: the walk goes on and wins at target 33."""
    block, machine = paper_block("147.vortex"), machine_by_name("4clust 1b 1lat")
    result = VirtualClusterScheduler().schedule(block, machine)
    assert result.awct_target_steps == 33
    assert result.awct == pytest.approx(11.8777, abs=1e-4)
    assert not result.fallback_used
    assert result.stats["rejected_fix-cycles"] == 32
    assert result.stats["ceiling_probes"] == 1
    assert result.stats["walk_stop"] == "schedule"


def test_budget_exhausted_inside_the_ceiling_probe_falls_back():
    block, machine = paper_block("mpeg2enc"), machine_by_name("2clust 1b 1lat")
    # The first streak's targets cost the same with or without the
    # fallback; one unit more ends the budget inside the ceiling probe.
    walk = VirtualClusterScheduler(
        VcsConfig(fallback_to_cars=False, max_awct_steps=STRUCTURAL_STREAK)
    ).schedule(block, machine)
    result = VirtualClusterScheduler(VcsConfig(work_budget=walk.work + 1)).schedule(
        block, machine
    )
    cars = CarsScheduler().schedule(block, machine)
    assert result.timed_out and result.fallback_used
    assert result.awct_target_steps == STRUCTURAL_STREAK
    assert result.stats["ceiling_probes"] == 1
    assert result.stats["walk_stop"] == "budget"
    assert result.schedule.fingerprint() == cars.schedule.fingerprint()
    assert result.work > walk.work + cars.work


@pytest.mark.parametrize(
    "profile, machine, awct, work, steps",
    [
        ("mpeg2enc", "2clust 1b 1lat", None, 161838, 48),
        ("147.vortex", "4clust 1b 1lat", 11.8777, 27624, 33),
    ],
)
def test_without_the_fallback_the_walk_is_the_papers(profile, machine, awct, work, steps):
    """No streak, ceiling or comparison without the fallback: the same
    targets and the same dp_work as the plain walk."""
    result = VirtualClusterScheduler(VcsConfig(fallback_to_cars=False)).schedule(
        paper_block(profile), machine_by_name(machine)
    )
    assert result.work == work
    assert result.awct_target_steps == steps
    assert (result.awct if result.ok else None) == pytest.approx(awct, abs=1e-4)
    assert result.stats["ceiling_probes"] == 0


def test_target_steps_count_the_targets_tried():
    """A walk that uses up ``max_awct_steps`` reports exactly that many
    targets; the ceiling probe of its floor is counted apart."""
    block, machine = paper_block("mpeg2enc"), machine_by_name("4clust 1b 1lat")
    for fallback in (False, True):
        config = VcsConfig(max_awct_steps=3, fallback_to_cars=fallback)
        result = VirtualClusterScheduler(config).schedule(block, machine)
        assert result.awct_target_steps == 3
        assert result.stats["walk_stop"] == "max-steps"
        assert result.stats["ceiling_probes"] == int(fallback)


def test_first_target_success_skips_the_fallback():
    fallback = CountingFallback()
    result = VirtualClusterScheduler(fallback=fallback).schedule(
        linear_chain_block(length=4, latency=2), paper_4c_16i_1lat()
    )
    assert result.awct_target_steps == 1
    assert fallback.calls == 0


def test_a_losing_fallback_adds_no_work():
    """The walk's schedule at a later target is checked against the
    fallback, whose work counts only when it wins."""
    block, machine = paper_figure1_block(), example_2cluster()
    fallback = CountingFallback()
    result = VirtualClusterScheduler(fallback=fallback).schedule(block, machine)
    plain = VirtualClusterScheduler(VcsConfig(fallback_to_cars=False)).schedule(block, machine)
    assert result.awct_target_steps == 2
    assert fallback.calls == 1
    assert not result.fallback_used
    assert result.work == plain.work

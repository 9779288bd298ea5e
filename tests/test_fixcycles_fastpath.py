"""The fix-cycles fast path: byte-level properties on random superblocks.

Hypothesis properties asserting the byte-level contracts of the
cycle-pinning stage: the opt-in ``probe_early_cut`` reproduces the exact
same schedules with at most the oracle's work, and under a tight work
budget trail probing exhausts at the same point as copy-based probing —
schedules, fallback and deterministic work counts all agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import paper_2c_8i_1lat, paper_4c_16i_1lat
from repro.scheduler import VcsConfig, VirtualClusterScheduler
from repro.workloads import GeneratorConfig, SuperblockGenerator


# --------------------------------------------------------------------------- #
# byte-level properties on random superblocks
# --------------------------------------------------------------------------- #
def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"fastpath/{seed}")


def _fingerprint(result):
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
    return (result.awct_target_steps, result.fallback_used, body)


@given(seed=st.integers(0, 10_000), size=st.integers(5, 12), ilp=st.floats(1.5, 4.0))
@settings(max_examples=8, deadline=None)
def test_early_cut_keeps_schedules(seed, size, ilp):
    """The opt-in early cut reproduces the oracle's schedule exactly —
    same (score, cycle) winners everywhere — while only ever skipping
    work."""
    block = _random_block(seed, size, ilp)
    machine = paper_2c_8i_1lat()
    fast = VirtualClusterScheduler(VcsConfig(probe_early_cut=True)).schedule(block, machine)
    oracle = VirtualClusterScheduler(VcsConfig()).schedule(block, machine)
    assert _fingerprint(fast) == _fingerprint(oracle)
    assert fast.work <= oracle.work


@given(seed=st.integers(0, 10_000), budget=st.sampled_from([500, 2_000, 8_000]))
@settings(max_examples=8, deadline=None)
def test_budget_exhaustion_matches_copy_mode(seed, budget):
    """With a tight budget, trail probing and copy-based probing agree on
    everything, including whether and where the fallback kicked in."""
    block = _random_block(seed, 10, 3.0)
    machine = paper_4c_16i_1lat()
    trail = VirtualClusterScheduler(
        VcsConfig(use_trail=True, work_budget=budget)
    ).schedule(block, machine)
    copy = VirtualClusterScheduler(
        VcsConfig(use_trail=False, work_budget=budget)
    ).schedule(block, machine)
    assert _fingerprint(trail) == _fingerprint(copy)
    assert trail.work == copy.work

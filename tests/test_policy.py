"""Budget-policy semantics: tiers, graceful degradation, refinement.

The load-bearing invariants of the anytime-scheduling layer:

* ``finalize_partial`` never emits an invalid (or missing) schedule, no
  matter where in the pipeline the budget dies — and never does worse
  than the paper's pure-CARS timeout fallback;
* tier transitions escalate monotonically (healthy → warning → critical
  → exhausted) with non-decreasing spend coordinates;
* a policy with generous limits is byte-identical to no policy at all —
  the observer-driven budget path must not change schedules or the
  deterministic ``dp_work`` accounting (the conformance gate holds the same
  invariant for the default config on its golden cases);
* the refine phase is monotone: AWCT never worsens across rounds, and
  it stays inside the wall limit;
* the dp_work and wall limits live only in ``VcsConfig``: a policy
  spelling of them fails loudly, and the wall tier follows
  ``time_limit``;
* the three ``WorkBudget`` exhaustion paths (``charge``,
  ``charge_block``, the engine's inlined fast loop) raise one identical
  message with unit-exact ``spent``.
"""

import functools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.deduction.consequence import SetExitDeadlines
from repro.deduction.engine import (
    BudgetExhausted,
    DeductionProcess,
    WorkBudget,
    budget_exhausted_message,
)
from repro.deduction.state import SchedulingState
from repro.machine import paper_2c_8i_1lat, paper_4c_16i_1lat
from repro.scheduler import (
    TIERS,
    BackendSpec,
    CarsScheduler,
    PolicyTracker,
    SchedulePolicy,
    VcsConfig,
    VirtualClusterScheduler,
    validate_schedule,
)
from repro.scheduler import vcs as vcs_module
from repro.sgraph.scheduling_graph import SchedulingGraph
from repro.workloads import GeneratorConfig, SuperblockGenerator

from tests.helpers import linear_chain_block


def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"policy/{seed}")


# --------------------------------------------------------------------------- #
# WorkBudget: one exhaustion message, unit-exact spent, on all three paths
# --------------------------------------------------------------------------- #
class TestBudgetExhaustionMessage:
    def test_charge_path(self):
        budget = WorkBudget(limit=5, spent=5)
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge()
        assert budget.spent == 6
        assert str(exc.value) == budget_exhausted_message(5, 6)

    def test_charge_block_path(self):
        budget = WorkBudget(limit=5, spent=3)
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge_block(10)
        # Block accounting clamps to limit+1: the same spent value that
        # unit-by-unit charging would have recorded at the raise.
        assert budget.spent == 6
        assert str(exc.value) == budget_exhausted_message(5, 6)

    def test_inlined_fast_loop_path(self):
        """The deduction engine's inlined budget loop must raise the exact
        message (and spent value) of the generic ``charge`` path."""
        block = linear_chain_block(length=6)
        machine = paper_2c_8i_1lat()
        decision = SetExitDeadlines.from_mapping(
            {op_id: 40 for op_id in block.exit_ids}
        )

        # Measure the full deduction's work, then rerun with half the limit.
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        full = DeductionProcess().apply(state, decision, budget=WorkBudget())
        assert full.work > 2

        limit = full.work // 2
        budget = WorkBudget(limit=limit)
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        with pytest.raises(BudgetExhausted) as exc:
            DeductionProcess().apply(state, decision, budget=budget)
        assert budget.spent == limit + 1
        assert str(exc.value) == budget_exhausted_message(limit, limit + 1)

    def test_all_paths_produce_identical_text(self):
        messages = set()
        budget = WorkBudget(limit=7, spent=7)
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge()
        messages.add(str(exc.value))
        budget = WorkBudget(limit=7, spent=0)
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge_block(8)
        messages.add(str(exc.value))
        assert messages == {budget_exhausted_message(7, 8)}


# --------------------------------------------------------------------------- #
# SchedulePolicy: validation and serialisation
# --------------------------------------------------------------------------- #
class TestSchedulePolicy:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown exhaustion mode"):
            SchedulePolicy(exhaustion_mode="explode")

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError, match="tier thresholds"):
            SchedulePolicy(warning_at=0.9, critical_at=0.5)

    def test_parse_bare_mode(self):
        assert SchedulePolicy.parse("finalize_partial").finalizes_partial

    def test_parse_key_value_form(self):
        policy = SchedulePolicy.parse(
            "mode=finalize_partial, max_probes=2000, refine_rounds=2, warning_at=0.4"
        )
        assert policy.exhaustion_mode == "finalize_partial"
        assert policy.max_probes == 2000
        assert policy.refine_rounds == 2
        assert policy.warning_at == 0.4

    def test_dict_round_trip(self):
        policy = SchedulePolicy(exhaustion_mode="finalize_partial", max_probes=40)
        assert SchedulePolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SchedulePolicy keys"):
            SchedulePolicy.from_dict({"max_dp_woork": 5})

    @pytest.mark.parametrize("key", ["max_dp_work", "max_wall_s"])
    def test_removed_budget_keys_are_rejected(self, key):
        """The dp_work and wall limits live only in ``VcsConfig``; a
        policy spelling of them must fail naming the known keys, not
        vanish."""
        with pytest.raises(ValueError, match="unknown SchedulePolicy keys") as exc:
            SchedulePolicy.from_dict({key: 1})
        assert "known: [" in str(exc.value) and "exhaustion_mode" in str(exc.value)
        with pytest.raises(ValueError, match="unknown SchedulePolicy keys"):
            SchedulePolicy.parse(f"{key}=1")

    def test_vcs_config_coerces_policy(self):
        config = VcsConfig.from_dict({"policy": "mode=finalize_partial,max_probes=99"})
        assert config.policy == SchedulePolicy("finalize_partial", max_probes=99)
        round_trip = VcsConfig.from_dict(config.to_dict())
        assert round_trip.policy == config.policy

    def test_refine_without_a_budget_is_rejected(self):
        refine = SchedulePolicy(refine_rounds=2)
        with pytest.raises(ValueError, match="work_budget"):
            VcsConfig(policy=refine)
        with pytest.raises(ValueError, match="work_budget"):
            VcsConfig.from_dict({"policy": "refine_rounds=2"})
        with pytest.raises(ValueError, match="work_budget"):
            BackendSpec.from_env(env={"REPRO_VCS_POLICY": "refine_rounds=2"})
        env = {"REPRO_VCS_POLICY": "refine_rounds=2", "REPRO_VCS_WORK_BUDGET": "500"}
        assert BackendSpec.from_env(env=env).vcs == VcsConfig(work_budget=500, policy=refine)

    def test_refine_seed_is_deterministic_per_block(self):
        policy = SchedulePolicy(refine_seed=3)
        assert policy.refine_rng_seed("a") == policy.refine_rng_seed("a")
        assert policy.refine_rng_seed("a") != policy.refine_rng_seed("b")


# --------------------------------------------------------------------------- #
# tier transitions
# --------------------------------------------------------------------------- #
def _tier_indices(transitions):
    return [TIERS.index(t["tier"]) for t in transitions]


class TestTierTransitions:
    def test_dp_spend_walks_the_tiers_in_order(self):
        policy = SchedulePolicy(warning_at=0.5, critical_at=0.9)
        budget = WorkBudget(limit=100)
        tracker = PolicyTracker(policy, budget)
        tracker.attach(budget)
        assert budget.limit == 100
        assert tracker.tier == "healthy"
        for _ in range(49):
            budget.charge()
        assert tracker.tier == "healthy"
        budget.charge()
        assert tracker.tier == "warning"
        budget.charge_block(39)
        assert tracker.tier == "warning"
        budget.charge()
        assert tracker.tier == "critical"
        assert tracker.cheap

        indices = _tier_indices(tracker.transitions)
        assert indices == sorted(indices)
        spends = [t["dp_work"] for t in tracker.transitions]
        assert spends == sorted(spends)

    def test_attach_takes_the_budget_limit(self):
        budget = WorkBudget(limit=30)
        tracker = PolicyTracker(SchedulePolicy(), budget)
        tracker.attach(budget)
        assert budget.limit == 30
        assert budget.notify_at == 15
        budget = WorkBudget()
        tracker = PolicyTracker(SchedulePolicy(), budget)
        tracker.attach(budget)
        assert budget.limit is None
        assert budget.notify_at is None

    def test_wall_tier_follows_time_limit(self, monkeypatch):
        """With only ``VcsConfig.time_limit`` set, the wall fraction the
        tracker reports is measured against that limit.  The tracker's
        clock runs 50 s further ahead at each reading, so a 1000 s limit
        walks the tiers while the engine's real-time deadline never binds."""
        readings = []

        def clock():
            readings.append(None)
            return time.perf_counter() + 50.0 * len(readings)

        monkeypatch.setattr(
            vcs_module, "PolicyTracker", functools.partial(PolicyTracker, clock=clock)
        )
        config = VcsConfig(time_limit=1000.0, policy=SchedulePolicy())
        result = VirtualClusterScheduler(config).schedule(
            _random_block(3, 12, 3.0), paper_4c_16i_1lat()
        )
        assert result.policy["dp_limit"] is None
        tiers = [t["tier"] for t in result.policy["transitions"]]
        assert tiers[:3] == ["healthy", "warning", "critical"]
        warning, critical = result.policy["transitions"][1:3]
        assert 500.0 <= warning["wall_s"] < critical["wall_s"]
        assert critical["wall_s"] >= 850.0

    def test_probe_budget_exhausts(self):
        policy = SchedulePolicy(max_probes=3)
        budget = WorkBudget()
        tracker = PolicyTracker(policy, budget)
        tracker.attach(budget)
        for _ in range(3):
            tracker.note_probe()
        with pytest.raises(BudgetExhausted, match="probe budget"):
            tracker.note_probe()

    def test_real_run_records_escalating_tiers(self):
        block = _random_block(7, 12, 3.0)
        policy = SchedulePolicy(exhaustion_mode="finalize_partial")
        result = VirtualClusterScheduler(VcsConfig(work_budget=400, policy=policy)).schedule(
            block, paper_4c_16i_1lat()
        )
        transitions = result.policy["transitions"]
        indices = _tier_indices(transitions)
        assert indices == sorted(indices)
        assert transitions[0]["tier"] == "healthy"
        assert result.policy["tier"] == "exhausted"
        assert result.policy["partial_finalize"] is True


# --------------------------------------------------------------------------- #
# byte-identity: a generous policy must not change the scheduler's output
# --------------------------------------------------------------------------- #
class TestDefaultByteIdentity:
    @given(seed=st.integers(0, 10_000))
    @example(seed=336)
    @settings(max_examples=6, deadline=None)
    def test_generous_policy_matches_no_policy(self, seed):
        """With a budget far above actual spend, the observer-driven
        budget path must reproduce the policy-free run exactly: same
        schedule, same deterministic dp_work, same fallback flag."""
        block = _random_block(seed, 10, 3.0)
        machine = paper_4c_16i_1lat()
        bare = VirtualClusterScheduler(VcsConfig(work_budget=40_000)).schedule(
            block, machine
        )
        policy = SchedulePolicy(exhaustion_mode="finalize_partial")
        policed = VirtualClusterScheduler(
            VcsConfig(work_budget=40_000, policy=policy)
        ).schedule(block, machine)

        if bare.timed_out:
            # A few blocks (seed 336, pinned above) spend past the 40k work
            # budget, so the budget is not generous for them.  There the
            # two paths differ by design: the bare run falls back to CARS,
            # while the policy run escalates through its tiers and keeps
            # its partial state, which must be valid and no worse.
            cars = CarsScheduler().schedule(block, machine)
            assert bare.fallback_used
            assert bare.schedule.fingerprint() == cars.schedule.fingerprint()
            assert policed.policy["transitions"][0]["tier"] == "healthy"
            assert policed.policy["tier"] != "healthy"
            assert validate_schedule(policed.schedule).ok
            assert policed.awct <= cars.awct + 1e-9
            return

        bare_fp = bare.fingerprint()
        policed_fp = policed.fingerprint()
        # The policy summary appends one fingerprint element; everything
        # before it — scheduler, block, machine, work, fallback, schedule —
        # must be byte-identical.
        assert policed_fp[: len(bare_fp)] == bare_fp
        assert len(policed_fp) == len(bare_fp) + 1

    def test_no_policy_keeps_historical_fingerprint_shape(self):
        block = linear_chain_block()
        result = VirtualClusterScheduler().schedule(block, paper_2c_8i_1lat())
        assert result.policy is None
        assert len(result.fingerprint()) == 6
        assert len(result.schedule.fingerprint()) == 4


# --------------------------------------------------------------------------- #
# finalize_partial: always a valid schedule, never worse than pure CARS
# --------------------------------------------------------------------------- #
class TestFinalizePartial:
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(6, 14),
        ilp=st.floats(1.5, 5.0),
        budget=st.sampled_from([60, 150, 400, 1000, 2500]),
    )
    @settings(max_examples=20, deadline=None)
    def test_output_always_validates(self, seed, size, ilp, budget):
        block = _random_block(seed, size, ilp)
        policy = SchedulePolicy(exhaustion_mode="finalize_partial")
        result = VirtualClusterScheduler(VcsConfig(work_budget=budget, policy=policy)).schedule(
            block, paper_4c_16i_1lat()
        )
        assert result.schedule is not None
        report = validate_schedule(result.schedule)
        assert report.ok, (block.name, budget, report.errors)

    @given(seed=st.integers(0, 10_000), budget=st.sampled_from([100, 300, 800]))
    @settings(max_examples=10, deadline=None)
    def test_never_worse_than_pure_cars(self, seed, budget):
        block = _random_block(seed, 10, 3.0)
        machine = paper_4c_16i_1lat()
        cars = CarsScheduler().schedule(block, machine)
        policy = SchedulePolicy(exhaustion_mode="finalize_partial")
        result = VirtualClusterScheduler(VcsConfig(work_budget=budget, policy=policy)).schedule(
            block, machine
        )
        assert result.awct <= cars.awct + 1e-9

    def test_partial_schedule_carries_provenance(self):
        block = _random_block(11, 12, 3.0)
        policy = SchedulePolicy(exhaustion_mode="finalize_partial")
        result = VirtualClusterScheduler(VcsConfig(work_budget=80, policy=policy)).schedule(
            block, paper_4c_16i_1lat()
        )
        assert result.timed_out
        assert result.schedule.provenance["policy"] == "finalize_partial"
        assert result.schedule.provenance["source"] == result.policy["source"]
        # Provenance distinguishes the fingerprint from a plain schedule's.
        assert len(result.schedule.fingerprint()) == 5

    def test_fail_mode_reproduces_fallback_behaviour(self):
        block = _random_block(11, 12, 3.0)
        machine = paper_4c_16i_1lat()
        policy = SchedulePolicy(exhaustion_mode="fail")
        result = VirtualClusterScheduler(VcsConfig(work_budget=80, policy=policy)).schedule(
            block, machine
        )
        bare = VirtualClusterScheduler(VcsConfig(work_budget=80)).schedule(
            block, machine
        )
        assert result.fallback_used and bare.fallback_used
        assert result.schedule.fingerprint() == bare.schedule.fingerprint()
        assert result.policy["tier"] == "exhausted"

    def test_probe_limit_also_finalizes(self):
        block = _random_block(3, 12, 3.0)
        policy = SchedulePolicy(exhaustion_mode="finalize_partial", max_probes=5)
        result = VirtualClusterScheduler(VcsConfig(policy=policy)).schedule(
            block, paper_4c_16i_1lat()
        )
        assert result.schedule is not None
        assert validate_schedule(result.schedule).ok
        assert "probe budget" in (result.policy["exhausted_reason"] or "")


# --------------------------------------------------------------------------- #
# refine: AWCT monotone, deterministic
# --------------------------------------------------------------------------- #
class TestRefine:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_refine_never_worsens_awct(self, seed):
        block = _random_block(seed, 10, 3.0)
        machine = paper_4c_16i_1lat()
        base = VirtualClusterScheduler(VcsConfig(work_budget=40_000)).schedule(
            block, machine
        )
        policy = SchedulePolicy(refine_rounds=3, refine_neighborhood=3)
        refined = VirtualClusterScheduler(
            VcsConfig(work_budget=40_000, policy=policy)
        ).schedule(block, machine)
        if not (base.ok and refined.ok):
            return
        assert refined.awct <= base.awct + 1e-9
        # best_awct is monotone non-increasing across the recorded rounds.
        best = [entry["best_awct"] for entry in refined.policy["refine"] if "best_awct" in entry]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best, best[1:]))
        assert validate_schedule(refined.schedule).ok

    def test_refine_is_deterministic(self):
        block = _random_block(5, 12, 3.5)
        machine = paper_4c_16i_1lat()
        policy = SchedulePolicy(refine_rounds=2, refine_seed=7)
        config = VcsConfig(work_budget=100_000, policy=policy)
        first = VirtualClusterScheduler(config).schedule(block, machine)
        second = VirtualClusterScheduler(config).schedule(block, machine)
        assert first.fingerprint() == second.fingerprint()
        assert first.policy["refine"] == second.policy["refine"]

    def _refine_under_wall(self, monkeypatch, spent_before_refine):
        """Refine with a 5 s wall limit whose clock reads
        *spent_before_refine* seconds gone once refinement starts.
        Returns the result and the wall limit of each refinement round."""
        skew = [0.0]
        monkeypatch.setattr(
            vcs_module,
            "PolicyTracker",
            functools.partial(PolicyTracker, clock=lambda: time.perf_counter() + skew[0]),
        )
        refine = VirtualClusterScheduler._refine

        def late_refine(self, *args):
            skew[0] = spent_before_refine
            return refine(self, *args)

        round_limits = []
        schedule = VirtualClusterScheduler.schedule

        def spy(self, block, machine):
            if self.config.policy is None:
                round_limits.append(self.config.time_limit)
            return schedule(self, block, machine)

        monkeypatch.setattr(VirtualClusterScheduler, "_refine", late_refine)
        monkeypatch.setattr(VirtualClusterScheduler, "schedule", spy)
        config = VcsConfig(
            work_budget=100_000,
            time_limit=5.0,
            policy=SchedulePolicy(refine_rounds=2, refine_seed=7),
        )
        result = VirtualClusterScheduler(config).schedule(
            _random_block(5, 12, 3.5), paper_4c_16i_1lat()
        )
        assert result.policy["source"] == "vcs"
        return result, round_limits

    def test_refine_rounds_get_the_wall_time_left(self, monkeypatch):
        result, round_limits = self._refine_under_wall(monkeypatch, 4.0)
        assert len(result.policy["refine"]) == 2
        assert len(round_limits) == 2
        assert all(0.0 < limit <= 1.0 for limit in round_limits)

    def test_refine_stops_when_no_wall_time_is_left(self, monkeypatch):
        result, round_limits = self._refine_under_wall(monkeypatch, 6.0)
        assert result.policy["refine"] == []
        assert round_limits == []

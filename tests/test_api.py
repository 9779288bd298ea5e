"""Tests for the ``repro.api`` facade and the ``repro.config`` loader.

The load-bearing invariant: a :class:`ScheduleRequest` that round-trips
through its wire form (``to_dict``/``from_dict`` — the job server's
submission payload) schedules **byte-identically** to the original
in-process objects.  That holds only because ``block_to_dict``
serialises edges in :meth:`DependenceGraph.ordered_edges
<repro.ir.depgraph.DependenceGraph.ordered_edges>` order — an
insertion-compatible sequence that reproduces every node's
successor/predecessor iteration order, which the deduction engine's
``dp_work`` depends on.  Alongside it: the facade's local
``submit``/``wait`` path and the ``RuntimeConfig`` precedence contract
(explicit argument > environment > default).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    JobStatus,
    ScheduleRequest,
    ScheduleResponse,
    block_from_dict,
    block_to_dict,
    schedule_many,
    submit,
    wait,
)
from repro.config import RuntimeConfig, env_knob, parse_jobs
from repro.machine import paper_2c_8i_1lat
from repro.runner import CacheSpec, fingerprint_digest
from repro.scheduler import schedule as schedule_module
from repro.scheduler import VcsConfig, block_digest
from repro.scheduler.policy import SchedulePolicy
from repro.workloads import GeneratorConfig, SuperblockGenerator, paper_figure1_block


def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"api/{seed}")


def _request(block, policy=None, client="default"):
    return ScheduleRequest(
        block=block,
        machine=paper_2c_8i_1lat(),
        backend="vcs",
        vcs=VcsConfig(work_budget=50_000),
        policy=policy,
        client=client,
    )


def _adjacency(block):
    """Every node's successor and predecessor iteration order — the
    state the deduction engine's determinism is sensitive to."""
    graph = block.graph._graph
    return {
        node: (list(graph.successors(node)), list(graph.predecessors(node)))
        for node in graph.nodes()
    }


# --------------------------------------------------------------------------- #
# wire round trip
# --------------------------------------------------------------------------- #
class TestBlockWire:
    def test_round_trip_preserves_digest_and_adjacency(self):
        block = paper_figure1_block()
        rebuilt = block_from_dict(block_to_dict(block))
        assert block_digest(rebuilt) == block_digest(block)
        assert _adjacency(rebuilt) == _adjacency(block)

    def test_round_trip_schedules_byte_identically(self):
        block = paper_figure1_block()
        rebuilt = block_from_dict(block_to_dict(block))
        original = schedule_many([_request(block)], cache=CacheSpec.disabled())
        wire = schedule_many([_request(rebuilt)], cache=CacheSpec.disabled())
        assert original.values[0].fingerprint() == wire.values[0].fingerprint()
        assert original.values[0].work == wire.values[0].work

    @given(seed=st.integers(0, 10_000), size=st.integers(5, 20), ilp=st.floats(1.5, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_ordered_edges_is_insertion_compatible(self, seed, size, ilp):
        block = _random_block(seed, size, ilp)
        rebuilt = block_from_dict(block_to_dict(block))
        assert _adjacency(rebuilt) == _adjacency(block)
        assert block_digest(rebuilt) == block_digest(block)

    def test_ordered_edges_covers_every_edge_once(self):
        block = paper_figure1_block()
        ordered = block.graph.ordered_edges()
        flat = list(block.graph.edges())
        assert len(ordered) == len(flat)
        assert {(e.src, e.dst) for e in ordered} == {(e.src, e.dst) for e in flat}


class TestScheduleRequestWire:
    def test_round_trip_is_stable(self):
        policy = SchedulePolicy("finalize_partial", max_dp_work=500)
        request = _request(paper_figure1_block(), policy=policy, client="tenant-a")
        wire = request.to_dict()
        rebuilt = ScheduleRequest.from_dict(wire)
        assert rebuilt.to_dict() == wire
        assert rebuilt.client == "tenant-a"
        assert rebuilt.effective_vcs.policy == policy

    def test_rejects_unknown_backend(self):
        with pytest.raises(Exception):
            ScheduleRequest(
                block=paper_figure1_block(),
                machine=paper_2c_8i_1lat(),
                backend="no-such-backend",
            )

    def test_from_dict_rejects_unknown_keys(self):
        wire = _request(paper_figure1_block()).to_dict()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            ScheduleRequest.from_dict(wire)

    def test_job_pins_the_id_without_a_machine(self):
        # The runner strips the machine from its payload; the job id must
        # survive it (a request without job_name derives its id from it).
        request = _request(paper_figure1_block())
        assert not request.job_name
        assert replace(request.job(), machine=None).job_id == request.job_id


# --------------------------------------------------------------------------- #
# the facade entry points
# --------------------------------------------------------------------------- #
class TestFacade:
    def test_local_submit_wait(self, tmp_path):
        request = _request(paper_figure1_block())
        spec = CacheSpec(root=str(tmp_path))
        cold = wait(submit(request, cache=spec))
        warm = wait(submit(request, cache=spec))
        assert cold.state == warm.state == "done"
        assert cold.digest == warm.digest
        assert cold.cache == "miss" and warm.cache == "hit"
        reference = schedule_many([request], cache=CacheSpec.disabled())
        assert cold.digest == fingerprint_digest([reference.values[0].fingerprint()])
        assert cold.work == reference.values[0].work

    def test_from_result_evaluates_awct_once(self, monkeypatch):
        result = schedule_many(
            [_request(paper_figure1_block())], cache=CacheSpec.disabled()
        ).values[0]
        calls = []
        original = schedule_module.awct_from_schedule_cycles

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(schedule_module, "awct_from_schedule_cycles", counted)
        response = ScheduleResponse.from_result("j", result)
        assert len(calls) == 1
        assert response.awct == result.awct
        assert response.total_cycles == result.total_cycles

    def test_response_round_trip(self):
        request = _request(paper_figure1_block())
        response = wait(submit(request, cache=CacheSpec.disabled()))
        assert ScheduleResponse.from_dict(response.to_dict()) == response

    def test_job_status_round_trip_and_validation(self):
        status = JobStatus(job_id="j-000001", state="queued", queue_position=2)
        assert JobStatus.from_dict(status.to_dict()) == status
        with pytest.raises(ValueError, match="state"):
            JobStatus(job_id="j-000002", state="napping")


# --------------------------------------------------------------------------- #
# RuntimeConfig: one typed loader for every REPRO_* knob
# --------------------------------------------------------------------------- #
class TestRuntimeConfig:
    def test_defaults(self):
        config = RuntimeConfig.load(env={})
        assert config.jobs == 1
        assert config.scheduler == "vcs"
        assert config.bench_blocks is None
        assert config.bench_budget == 60_000
        assert config.cache is True
        assert config.service_host == "127.0.0.1"
        assert config.service_port == 0
        assert config.service_timeout is None

    def test_env_beats_default(self):
        env = {
            "REPRO_JOBS": "4",
            "REPRO_CACHE": "off",
            "REPRO_SERVICE_PORT": "8423",
            "REPRO_SERVICE_TIMEOUT": "2.5",
        }
        config = RuntimeConfig.load(env=env)
        assert config.jobs == 4
        assert config.cache is False
        assert config.service_port == 8423
        assert config.service_timeout == 2.5

    def test_explicit_override_beats_env(self):
        config = RuntimeConfig.load(env={"REPRO_JOBS": "4"}, jobs="2", cache="off")
        assert config.jobs == 2
        assert config.cache is False

    def test_unknown_override_is_an_error(self):
        with pytest.raises(TypeError, match="unknown"):
            RuntimeConfig.load(env={}, jbos=2)

    def test_jobs_parse_matches_runner_contract(self):
        assert parse_jobs("auto") >= 1
        with pytest.raises(ValueError, match="expected a positive integer or 'auto'"):
            parse_jobs("0")
        with pytest.raises(ValueError, match="expected a positive integer or 'auto'"):
            parse_jobs("many")

    def test_registry_covers_every_field(self):
        import dataclasses

        names = {field.name for field in dataclasses.fields(RuntimeConfig)}
        assert {env_knob(name).attr for name in names} == names

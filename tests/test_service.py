"""Tests for the asyncio HTTP job server (``repro.service``).

The contract under test: the service is a *transport*, not a scheduler —
every computed job flows through the identical
:func:`repro.api.schedule_many` path as a local batch, so responses are
byte-identical to batch results (digest and ``dp_work``), repeated
submissions are result-cache hits answered at submit, and the failure
taxonomy (error/timeout/crash/cancelled) passes through unchanged.  On
top of that, misses stream to the pool one at a time (a hit never waits
behind a running miss, and two workers compute two misses at once), the
fair per-client queue must not let a slow tenant starve a fast one, a
tenant's default :class:`SchedulePolicy` must follow its jobs (budget
exhaustion lands as a ``finalize_partial`` result), cancellation works
both while queued (immediate) and mid-run (cooperative), and finished
jobs are evicted after a TTL or beyond a cap.
"""

import json
import pickle
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import api as api_module
from repro.api import ScheduleRequest, ScheduleResponse, schedule_many
from repro.config import RuntimeConfig
from repro.machine import MachineSpec, paper_2c_8i_1lat
from repro.machine.presets import paper_configurations
from repro.runner import BatchScheduler, CacheSpec, ResultCache, fingerprint_digest
from repro.runner import jobs as jobs_module
from repro.runner.jobs import job_cache_key
from repro.scheduler import ScheduleResult, VcsConfig, schedule_cache_key
from repro.scheduler.fingerprint import wire_cache_key
from repro.scheduler.policy import SchedulePolicy
from repro.runner.pool import shared_pool_stats
from repro.cli import serve as serve_cli
from repro.service import JobServer, ServerThread, ServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.queue import FairQueue, ServiceJob
from repro.workloads import (
    GeneratorConfig,
    SuperblockGenerator,
    build_family,
    dot_product_kernel,
    paper_figure1_block,
)
from tests.helpers import edge_order_twin

#: ~0.9s of vcs scheduling on the 2-cluster paper machine — long enough
#: to observe/cancel a running job without flakiness, short enough for CI.
_SLOW_SIZE = 100


def _slow_block(seed: int = 7):
    config = GeneratorConfig(min_ops=_SLOW_SIZE, max_ops=_SLOW_SIZE, ilp=4.0, exit_every=6)
    return SuperblockGenerator(config, seed=seed).generate(f"service-slow/{seed}")


def _request(block, client="default", policy=None, job_name="", work_budget=500_000):
    return ScheduleRequest(
        block=block,
        machine=paper_2c_8i_1lat(),
        backend="vcs",
        vcs=VcsConfig(work_budget=work_budget, policy=policy),
        client=client,
        job_name=job_name,
    )


def _batch_reference(requests):
    batch = schedule_many(requests, cache=CacheSpec.disabled())
    return [
        (fingerprint_digest([result.fingerprint()]), result.work)
        for result in batch.values
    ]


@pytest.fixture()
def server(tmp_path):
    """One worker, so one job in flight — deterministic queue observation."""
    with ServerThread(
        runner=BatchScheduler(jobs=1), cache=CacheSpec(root=str(tmp_path / "cache"))
    ) as thread:
        yield thread


def _wait_until_running(client, job_id):
    deadline = time.monotonic() + 30
    status = client.status(job_id)
    while status.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.01)
        status = client.status(job_id)
    assert status.state == "running"
    return status


# --------------------------------------------------------------------------- #
# byte identity over the wire
# --------------------------------------------------------------------------- #
class TestHttpIdentity:
    def test_concurrent_clients_byte_identical_to_batch(self, server):
        requests = [
            _request(paper_figure1_block(), client="client-a"),
            _request(dot_product_kernel(), client="client-b"),
            _request(_slow_block(3), client="client-a"),
            _request(_slow_block(4), client="client-b"),
        ]
        reference = _batch_reference(requests)

        responses = [None] * len(requests)

        def worker(positions):
            client = ServiceClient(server.url)
            for index in positions:
                responses[index] = client.schedule(requests[index])

        threads = [
            threading.Thread(target=worker, args=(range(start, len(requests), 2),))
            for start in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for response, (digest, work) in zip(responses, reference):
            assert response.state == "done"
            assert response.digest == digest
            assert response.work == work

    def test_warm_resubmission_is_a_cache_hit(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        warm = client.schedule(request)
        assert cold.cache == "miss" and warm.cache == "hit"
        assert cold.digest == warm.digest
        assert cold.work == warm.work
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1

    def test_health_and_stats(self, server):
        client = ServiceClient(server.url)
        health = client.health()
        assert health["ok"] is True and health["version"]
        stats = client.stats()
        assert stats["n_workers"] == 1 and stats["running"] == 0
        assert stats["jobs"]["total"] == 0

    def test_submit_rejects_malformed_requests(self, server):
        client = ServiceClient(server.url)
        wire = _request(paper_figure1_block()).to_dict()
        wire["backend"]["name"] = "no-such-backend"
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/api/v1/jobs", wire)
        assert excinfo.value.status == 400
        assert "invalid schedule request" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/api/v1/jobs", {"nonsense": 1})
        assert excinfo.value.status == 400

    def test_removed_probing_keys_are_a_400_naming_the_key(self, server):
        client = ServiceClient(server.url)
        for key in ("use_trail", "probe_early_cut", "cycle_hints"):
            wire = _request(paper_figure1_block()).to_dict()
            wire["backend"]["vcs"] = {**VcsConfig().to_dict(), key: True}
            with pytest.raises(ServiceError) as excinfo:
                client._call("POST", "/api/v1/jobs", wire)
            assert excinfo.value.status == 400
            assert "unknown VcsConfig keys" in excinfo.value.message
            assert repr(key) in excinfo.value.message

    def test_removed_hybrid_backend_is_a_400_naming_the_registered_ones(self, server):
        wire = _request(paper_figure1_block()).to_dict()
        wire["backend"]["name"] = "hybrid"
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._call("POST", "/api/v1/jobs", wire)
        assert excinfo.value.status == 400
        assert "unknown scheduler backend 'hybrid'" in excinfo.value.message
        assert "registered: cars, vcs, list" in excinfo.value.message

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("j-999999")
        assert excinfo.value.status == 404


# --------------------------------------------------------------------------- #
# the hit path: keyed from the wire form, never decoded, never wrong
# --------------------------------------------------------------------------- #
def _forbid_decoding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit must not decode the block or the machine")

    monkeypatch.setattr(api_module, "block_from_dict", refuse)
    monkeypatch.setattr(MachineSpec, "to_machine", refuse)


class TestHitPath:
    def test_edge_reordered_twin_is_a_miss_with_its_own_result(self, server):
        client = ServiceClient(server.url)
        block = paper_figure1_block()
        twin = edge_order_twin(block, 3)
        reference = _batch_reference([_request(block), _request(twin)])
        assert reference[0][1] != reference[1][1]  # the twins' dp_work differ
        assert client.schedule(_request(block)).cache == "miss"
        response = client.schedule(_request(twin))
        assert response.cache == "miss"
        assert (response.digest, response.work) == reference[1]

    def test_outside_key_is_the_server_key_for_every_perfbench_request(
        self, tmp_path, monkeypatch
    ):
        """``schedule_cache_key`` on the objects equals the key the server
        derives from the JSON, for the 42 jobs of the benchmark: each
        entry stored under the outside key is served as a hit, with
        decoding forbidden.  The stand-in entries are CARS results, so a
        hit cannot come from anywhere but the stored entry."""
        requests = [
            ScheduleRequest(block=block, machine=machine, backend="vcs", vcs=VcsConfig())
            for workload in build_family("paper", 1)
            for block in workload.blocks
            for machine in paper_configurations()
        ]
        assert len(requests) == 42
        stand_ins = schedule_many(
            [replace(r, backend="cars", vcs=None) for r in requests], cache=CacheSpec.disabled()
        ).values
        spec = CacheSpec(root=str(tmp_path / "cache"))
        store = spec.open()
        for request, stand_in in zip(requests, stand_ins):
            key = schedule_cache_key(request.block, request.machine, request.spec.to_dict())
            wire = json.loads(json.dumps(request.to_dict()))
            rebuilt = ScheduleRequest.from_dict(wire)
            # A wire round trip keeps the key.
            assert schedule_cache_key(rebuilt.block, rebuilt.machine, rebuilt.spec.to_dict()) == key
            store.put(key, stand_in)
        with ServerThread(runner=BatchScheduler(jobs=1), cache=spec) as thread:
            client = ServiceClient(thread.url)
            _forbid_decoding(monkeypatch)
            for request, stand_in in zip(requests, stand_ins):
                response = client.schedule(request)
                assert response.cache == "hit"
                assert response.digest == fingerprint_digest([stand_in.fingerprint()])

    def test_resubmission_hits_without_decoding(self, server, monkeypatch):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        _forbid_decoding(monkeypatch)
        warm = client.schedule(request)
        assert warm.cache == "hit"
        assert (warm.digest, warm.work) == (cold.digest, cold.work)

    def test_rejected_bodies_are_a_400_even_when_they_would_hit(self, server):
        client = ServiceClient(server.url)
        vcs_request = _request(paper_figure1_block())
        cars_request = replace(vcs_request, backend="cars", vcs=None)
        for request in (vcs_request, cars_request):
            client.schedule(request)
            assert client.schedule(request).cache == "hit"
        unknown_key = {**vcs_request.to_dict(), "surprise": 1}
        unknown_vcs_key = vcs_request.to_dict()
        unknown_vcs_key["backend"]["vcs"]["surprise"] = 1
        policy = SchedulePolicy("finalize_partial").to_dict()
        cars_policy = {**cars_request.to_dict(), "policy": policy}
        # The budget lives only in ``VcsConfig``: a top-level policy and
        # a policy-held dp_work limit are both rejected, never dropped.
        vcs_policy = {**vcs_request.to_dict(), "policy": policy}
        removed_policy_key = vcs_request.to_dict()
        removed_policy_key["backend"]["vcs"]["policy"] = {**policy, "max_dp_work": 200}
        for wire in (unknown_key, unknown_vcs_key, cars_policy, vcs_policy, removed_policy_key):
            with pytest.raises(Exception) as expected:
                ScheduleRequest.from_dict(wire)
            with pytest.raises(ServiceError) as excinfo:
                client._call("POST", "/api/v1/jobs", wire)
            assert excinfo.value.status == 400
            assert excinfo.value.message == f"invalid schedule request: {expected.value}"

    def test_client_policy_is_keyed_before_the_lookup(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block(), client="tenant", work_budget=200)
        free = client.schedule(request)
        assert free.cache == "miss" and free.policy is None
        client.set_policy("tenant", SchedulePolicy("finalize_partial"))
        # The policy-free entry is not this client's job any more.
        budgeted = client.schedule(request)
        assert budgeted.cache == "miss"
        assert budgeted.policy["partial_finalize"] is True
        assert client.schedule(request).cache == "hit"

    def test_a_valid_body_that_is_not_canonical_still_hits(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        wire = request.to_dict()
        operations = wire["block"]["operations"]
        index = next(i for i, op in enumerate(operations) if op[7] == 0.0)
        operations[index][7] = 0  # to_dict writes 0.0
        _, payload = client._call("POST", "/api/v1/jobs", wire)
        warm = ScheduleResponse.from_dict(payload["response"])
        assert warm.cache == "hit"
        assert (warm.digest, warm.work) == (cold.digest, cold.work)

    def test_a_hit_is_answered_from_the_entry_head(self, server, monkeypatch):
        """No ``ScheduleResult`` is unpickled or summarised for a hit: the
        full reader, ``from_result`` and unpickling a result all raise."""
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        assert cold.cache == "miss"

        def refuse(*args, **kwargs):
            raise AssertionError("a hit must be answered from the entry's head")

        monkeypatch.setattr(ResultCache, "get", refuse)
        monkeypatch.setattr(ScheduleResponse, "from_result", refuse)
        monkeypatch.setattr(ScheduleResult, "__setstate__", refuse, raising=False)
        warm = client.schedule(request)
        assert warm.cache == "hit"
        same = (
            "digest", "fingerprint", "work", "awct", "total_cycles", "policy", "block", "machine"
        )
        assert {f: getattr(warm, f) for f in same} == {f: getattr(cold, f) for f in same}

    def test_an_entry_in_the_older_layout_refills_as_a_miss(self, tmp_path):
        """An entry holding the bare pickled result (no head) is neither
        a wrong hit nor a 500: it is recomputed, rewritten, then hit."""
        request = _request(paper_figure1_block())
        reference = schedule_many([request], cache=CacheSpec.disabled()).values[0]
        spec = CacheSpec(root=str(tmp_path / "cache"))
        path = Path(spec.open()._path(job_cache_key(request, spec)))
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL))
        with ServerThread(runner=BatchScheduler(jobs=1), cache=spec) as thread:
            client = ServiceClient(thread.url)
            first = client.schedule(request)
            second = client.schedule(request)
        assert (first.cache, second.cache) == ("miss", "hit")
        assert first.digest == second.digest == fingerprint_digest([reference.fingerprint()])
        assert first.work == second.work == reference.work

    def test_a_miss_is_keyed_twice_and_a_hit_once(self, server, monkeypatch):
        """A miss is keyed from its JSON and once canonically at submit;
        the runner reuses the canonical key.  A hit is keyed once."""
        calls = []

        def counted(key_function):
            def wrapper(*args, **kwargs):
                calls.append(key_function.__name__)
                return key_function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(server_module, "wire_cache_key", counted(wire_cache_key))
        monkeypatch.setattr(jobs_module, "schedule_cache_key", counted(schedule_cache_key))
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        assert client.schedule(request).cache == "miss"
        assert calls == ["wire_cache_key", "schedule_cache_key"]
        calls.clear()
        assert client.schedule(request).cache == "hit"
        assert calls == ["wire_cache_key"]


# --------------------------------------------------------------------------- #
# cancellation: queued = immediate, running = cooperative
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_while_queued(self, server):
        client = ServiceClient(server.url)
        # The slow job occupies the single dispatch slot; the second job
        # is still queued when the cancel lands.
        running = client.submit(_request(_slow_block(11)))
        queued = client.submit(_request(paper_figure1_block()))
        cancelled = client.cancel(queued.job_id)
        assert cancelled.state == "cancelled"
        response = client.result(queued.job_id)
        assert response.state == "cancelled"
        assert response.failure["kind"] == "cancelled"
        # The in-flight job is untouched.
        assert client.result(running.job_id).state == "done"
        assert client.client_state("default")["cancelled"] == 1

    def test_cancel_mid_run_discards_the_result(self, server):
        client = ServiceClient(server.url)
        status = _wait_until_running(
            client, client.submit(_request(_slow_block(12), client="tenant")).job_id
        )
        acknowledged = client.cancel(status.job_id)
        assert acknowledged.state in ("cancelling", "cancelled")
        response = client.result(status.job_id)
        assert response.state == "cancelled"
        assert response.failure["kind"] == "cancelled"
        assert client.client_state("tenant")["cancelled"] == 1
        assert client.client_state("tenant")["completed"] == 0

    def test_cancel_terminal_job_is_a_no_op(self, server):
        client = ServiceClient(server.url)
        done = client.schedule(_request(paper_figure1_block()))
        status = client.cancel(done.job_id)
        assert status.state == "done"


# --------------------------------------------------------------------------- #
# per-client policy and budget exhaustion
# --------------------------------------------------------------------------- #
class TestClientPolicy:
    def test_budget_exhaustion_finalizes_partial(self, server):
        client = ServiceClient(server.url)
        state = client.set_policy("tenant", SchedulePolicy("finalize_partial"))
        assert state["policy"] is not None
        # The request carries no policy of its own -> the tenant default
        # is merged in; its own 200 dp_work cannot finish the paper block
        # (983).
        response = client.schedule(
            _request(paper_figure1_block(), client="tenant", work_budget=200)
        )
        assert response.state == "done"
        assert response.policy is not None
        assert response.policy["partial_finalize"] is True
        accounting = client.client_state("tenant")
        assert accounting["partial_finalizes"] == 1
        assert accounting["completed"] == 1

    def test_a_budget_policy_hit_still_counts_for_the_client(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy("finalize_partial"))
        request = _request(paper_figure1_block(), client="tenant", work_budget=200)
        cold = client.schedule(request)
        warm = client.schedule(request)
        assert (cold.cache, warm.cache) == ("miss", "hit")
        assert warm.policy == cold.policy and warm.policy["partial_finalize"] is True
        accounting = client.client_state("tenant")
        assert accounting["completed"] == 2
        assert accounting["partial_finalizes"] == 2
        assert accounting["dp_work"] == 2 * cold.work > 0

    def test_request_policy_beats_client_default(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy("finalize_partial"))
        own = SchedulePolicy("fail")
        response = client.schedule(
            _request(paper_figure1_block(), client="tenant", policy=own, work_budget=200)
        )
        assert response.state == "done"
        assert response.policy["mode"] == "fail"
        assert response.policy["partial_finalize"] is False
        assert response.fallback_used

    def test_refining_default_without_a_budget_is_a_400(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy(refine_rounds=2))
        request = _request(paper_figure1_block(), client="tenant", work_budget=None)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(request)
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("client policy rejected:")
        assert "work_budget" in excinfo.value.message
        assert client.schedule(replace(request, client="other")).state == "done"

    def test_clearing_the_policy(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy("finalize_partial"))
        state = client.set_policy("tenant", None)
        assert state["policy"] is None
        response = client.schedule(
            _request(paper_figure1_block(), client="tenant", work_budget=200)
        )
        assert response.state == "done"
        assert response.policy is None


# --------------------------------------------------------------------------- #
# queue fairness
# --------------------------------------------------------------------------- #
class TestFairness:
    def test_slow_tenant_does_not_starve_a_fast_one(self, server):
        client = ServiceClient(server.url)
        hog_jobs = [
            client.submit(_request(_slow_block(20 + i), client="hog", job_name=f"hog-{i}"))
            for i in range(3)
        ]
        nimble = client.submit(
            _request(paper_figure1_block(), client="nimble", job_name="nimble-0")
        )
        nimble_response = client.result(nimble.job_id)
        assert nimble_response.state == "done"
        nimble_done = client.status(nimble.job_id).finished_s
        last_hog = client.result(hog_jobs[-1].job_id)
        assert last_hog.state == "done"
        hog_done = client.status(hog_jobs[-1].job_id).finished_s
        # Round-robin rounds: the nimble tenant's only job must not wait
        # behind the hog's whole backlog.
        assert nimble_done < hog_done

    def test_fair_queue_rotates_between_clients(self):
        queue = FairQueue()
        jobs = []
        for client, count in (("a", 3), ("b", 2), ("c", 1)):
            for index in range(count):
                job = ServiceJob(job_id=f"{client}-{index}", client=client, request=None)
                jobs.append(job)
                queue.push(job)
        order = []
        while len(queue):
            order.append(queue.pop().job_id)
        assert order == ["a-0", "b-0", "c-0", "a-1", "b-1", "a-2"]
        assert queue.pop() is None

    def test_fair_queue_skips_cancelled_jobs(self):
        queue = FairQueue()
        first = ServiceJob(job_id="a-0", client="a", request=None)
        second = ServiceJob(job_id="a-1", client="a", request=None)
        queue.push(first)
        queue.push(second)
        queue.cancel(first)
        assert len(queue) == 1
        assert queue.pop() is second
        assert len(queue) == 0 and queue.pop() is None


# --------------------------------------------------------------------------- #
# streaming: hits at submit, misses one at a time on the pool
# --------------------------------------------------------------------------- #
class TestStreaming:
    def test_hit_is_answered_at_submit_while_a_miss_runs(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        assert client.schedule(request).cache == "miss"
        slow = _wait_until_running(client, client.submit(_request(_slow_block(13))).job_id)
        status, response = client._submit(request)
        assert status.state == "done" and response.cache == "hit"
        # The hit did not wait for the miss in front of it.
        assert client.status(slow.job_id).state == "running"
        assert client.result(slow.job_id).state == "done"

    def test_two_workers_compute_two_misses_at_once(self, tmp_path):
        with ServerThread(
            runner=BatchScheduler(jobs=2), cache=CacheSpec(root=str(tmp_path / "cache"))
        ) as thread:
            client = ServiceClient(thread.url)
            served = shared_pool_stats().get("2", {}).get("batches_served", 0)
            first = client.submit(_request(_slow_block(15), client="a"))
            second = client.submit(_request(_slow_block(16), client="b"))
            for status in (first, second):
                assert client.result(status.job_id).state == "done"
            first, second = client.status(first.job_id), client.status(second.job_id)
            assert second.started_s < first.finished_s
            # Both misses ran on the pool, not in the server's process.
            assert shared_pool_stats()["2"]["batches_served"] == served + 2

    def test_ignored_job_timeouts_are_refused(self, monkeypatch, capsys):
        # An explicit runner carries its own timeout...
        with pytest.raises(ValueError, match="job_timeout applies only to the default runner"):
            JobServer(runner=BatchScheduler(jobs=2), job_timeout=5.0)
        # ...and one worker cannot preempt a running job.
        with pytest.raises(ValueError, match="needs 2 or more workers"):
            JobServer(runner=BatchScheduler(jobs=1, timeout=5.0))
        # The default runner takes its worker count from the config.
        config = RuntimeConfig.load(env={}, jobs="2")
        server = JobServer(config=config, job_timeout=5.0, cache=CacheSpec.disabled())
        assert server.runner.n_workers == 2 and server.runner.timeout == 5.0
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_SERVICE_TIMEOUT", raising=False)
        for argv in (["--timeout", "5"], ["--timeout", "5", "--jobs", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                serve_cli.main(argv)
            assert excinfo.value.code == 2
            assert "needs 2 or more workers" in capsys.readouterr().err

    def test_job_timeout_fails_the_job_and_the_pool_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        with ServerThread(
            job_timeout=0.5, cache=CacheSpec(root=str(tmp_path / "cache"))
        ) as thread:
            client = ServiceClient(thread.url)
            start = time.monotonic()
            timed_out = client.schedule(_request(_slow_block(17)))
            assert time.monotonic() - start < 20
            assert timed_out.state == "failed"
            assert timed_out.failure["kind"] == "timeout"
            assert client.schedule(_request(paper_figure1_block())).state == "done"


# --------------------------------------------------------------------------- #
# bounded retention of finished jobs
# --------------------------------------------------------------------------- #
class TestRetention:
    def test_finished_jobs_beyond_the_cap_are_evicted(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_FINISHED_JOBS", 1)
        client = ServiceClient(server.url)
        first = client.schedule(_request(paper_figure1_block()))
        # Fetching the result does not evict the job.
        assert client.status(first.job_id).state == "done"
        second = client.schedule(_request(dot_product_kernel()))
        with pytest.raises(ServiceError) as excinfo:
            client.status(first.job_id)
        assert excinfo.value.status == 404
        assert client.status(second.job_id).state == "done"
        assert client.stats()["jobs"]["total"] == 1

    def test_finished_jobs_expire_after_the_ttl(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "JOB_TTL_S", 0.5)
        client = ServiceClient(server.url)
        done = client.schedule(_request(paper_figure1_block()))
        assert client.status(done.job_id).state == "done"
        time.sleep(0.6)
        with pytest.raises(ServiceError) as excinfo:
            client.result(done.job_id)
        assert excinfo.value.status == 404

"""Tests for the content-addressed result cache (``repro.runner.cache``).

The invariant under test: a cache **hit** is byte-identical to a cold
compute — same schedule fingerprint, same deterministic work counter,
same stats dict — for any (block, machine, backend) triple, because the
cache key covers exactly the inputs the scheduler's determinism is
stated over.  Alongside it: invalidation on the code-version salt, the
two-frame entry layout (response head, then result) and its two
readers, atomicity under concurrent writers, recovery from corrupt,
truncated and older-layout entries, and the environment knobs
(``REPRO_CACHE``/``REPRO_CACHE_DIR``).
"""

import multiprocessing
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import example_2cluster, paper_2c_8i_1lat, paper_4c_16i_1lat, paper_4c_16i_2lat
from repro.api import ScheduleRequest, block_to_dict, schedule_many
from repro.runner import (
    BatchScheduler,
    CacheSpec,
    CacheStats,
    ResultCache,
    cache_enabled,
    default_cache_dir,
    enumerate_workload_jobs,
    run_schedule_job,
)
from repro.runner.jobs import job_cache_key
from repro.scheduler import VcsConfig, block_digest, machine_digest, schedule_cache_key
from repro.workloads import GeneratorConfig, SuperblockGenerator, paper_figure1_block
from tests.helpers import edge_order_twin

MACHINES = {
    "2c": paper_2c_8i_1lat,
    "4c-1lat": paper_4c_16i_1lat,
    "4c-2lat": paper_4c_16i_2lat,
}


def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"cache/{seed}")


def _jobs_for(block, machine, scheduler):
    return enumerate_workload_jobs(
        "cache-test",
        [block],
        machine,
        vcs_config=VcsConfig(work_budget=20_000),
        schedulers=[scheduler],
    )


# --------------------------------------------------------------------------- #
# the round-trip property
# --------------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(5, 14),
    ilp=st.floats(1.5, 5.0),
    machine_key=st.sampled_from(sorted(MACHINES)),
    scheduler=st.sampled_from(["cars", "vcs"]),
    twin_seed=st.integers(0, 10_000),
)
@settings(max_examples=10, deadline=None)
def test_cache_hit_is_byte_identical_to_cold_compute(
    seed, size, ilp, machine_key, scheduler, twin_seed
):
    block = _random_block(seed, size, ilp)
    machine = MACHINES[machine_key]()
    # The block and an edge-reordered twin, cached side by side: each hit
    # must reproduce its own cold compute, never its twin's.
    jobs = _jobs_for(block, machine, scheduler) + _jobs_for(
        edge_order_twin(block, twin_seed), machine, scheduler
    )
    with tempfile.TemporaryDirectory() as root:
        spec = CacheSpec(root=root)
        cold = schedule_many(jobs, cache=spec)
        warm = schedule_many(jobs, cache=spec)
    uncached = schedule_many(jobs, cache=CacheSpec.disabled())

    assert cold.cache.hits + cold.cache.stores == 2
    assert warm.cache.hits == 2 and warm.cache.misses == 0
    for a, b, c in zip(cold.values, uncached.values, warm.values):
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()
        assert a.work == b.work == c.work
        assert a.stats == b.stats == c.stats


# --------------------------------------------------------------------------- #
# keying and invalidation
# --------------------------------------------------------------------------- #
class TestCacheKey:
    def test_key_discriminates_every_coordinate(self):
        block_a = _random_block(1, 8, 2.0)
        block_b = _random_block(2, 8, 2.0)
        machine = paper_2c_8i_1lat()
        job = _jobs_for(block_a, machine, "vcs")[0]
        spec_dict = job.spec.to_dict()
        base = schedule_cache_key(block_a, machine, spec_dict)
        assert base == schedule_cache_key(block_a, machine, spec_dict)
        assert base != schedule_cache_key(block_b, machine, spec_dict)
        assert base != schedule_cache_key(block_a, paper_4c_16i_1lat(), spec_dict)
        other_spec = _jobs_for(block_a, machine, "cars")[0].spec.to_dict()
        assert base != schedule_cache_key(block_a, machine, other_spec)
        # Edge order: the twin has the same ops and edges, added in
        # another order, and schedules with a different dp_work.
        twin = edge_order_twin(block_a, 1)
        assert sorted(block_to_dict(twin)["edges"], key=repr) == sorted(
            block_to_dict(block_a)["edges"], key=repr
        )
        cold = schedule_many(
            _jobs_for(block_a, machine, "vcs") + _jobs_for(twin, machine, "vcs"),
            cache=CacheSpec.disabled(),
        )
        assert cold.values[0].work != cold.values[1].work
        assert base != schedule_cache_key(twin, machine, spec_dict)

    def test_salt_change_invalidates(self, tmp_path):
        block = _random_block(7, 8, 2.5)
        machine = paper_2c_8i_1lat()
        jobs = _jobs_for(block, machine, "cars")
        root = str(tmp_path)
        first = schedule_many(jobs, cache=CacheSpec(root=root, salt="v1"))
        stale = schedule_many(jobs, cache=CacheSpec(root=root, salt="v2"))
        fresh = schedule_many(jobs, cache=CacheSpec(root=root, salt="v1"))
        # A new code-version salt never reads old entries...
        assert stale.cache.hits == 0 and stale.cache.stores == 1
        # ...and the old salt's entries are still intact.
        assert fresh.cache.hits == 1
        assert first.values[0].fingerprint() == stale.values[0].fingerprint()

    def test_digest_helpers_are_stable(self):
        block = _random_block(3, 8, 2.0)
        machine = paper_4c_16i_2lat()
        assert block_digest(block) == block_digest(block)
        assert machine_digest(machine) == machine_digest(machine)
        assert block_digest(block) != block_digest(_random_block(4, 8, 2.0))


# --------------------------------------------------------------------------- #
# entry layout, atomicity and corruption
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def figure1_result():
    """The paper's Figure 1 block scheduled on its 2-cluster machine."""
    return run_schedule_job(
        ScheduleRequest(block=paper_figure1_block(), machine=example_2cluster(), backend="vcs")
    )


def _summary(result):
    """What a stored result must reproduce: its response head (digest,
    fingerprint, ``dp_work``, AWCT, flags) and its deterministic stats."""
    return (result.response_head(), result.stats)


def _store_same_key(args):
    """Worker: open the cache and store *value* under *key*."""
    root, key, value = args
    cache = ResultCache(root)
    cache.put(key, value)
    return cache.get(key)


class TestAtomicity:
    def test_concurrent_writers_same_key(self, tmp_path, figure1_result):
        """Two processes racing to store the same key must both leave the
        entry readable — the atomic tmp-rename protocol guarantees a
        reader never observes a partial write."""
        root = str(tmp_path)
        key = "ab" + "0" * 62
        payload = figure1_result
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            results = pool.map(
                _store_same_key, [(root, key, payload), (root, key, payload)]
            )
        assert [_summary(r) for r in results] == [_summary(payload)] * 2
        assert _summary(ResultCache(root).get(key)) == _summary(payload)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, figure1_result):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "1" * 62
        cache.put(key, figure1_result)
        path = Path(cache._path(key))
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entries must be evicted"
        assert cache.get(key) is None

    def test_put_then_get_round_trips_pickle_exactly(self, tmp_path, figure1_result):
        cache = ResultCache(str(tmp_path))
        key = "ef" + "2" * 62
        value = figure1_result
        cache.put(key, value)
        # Two frames: the response head, then the result.
        with open(cache._path(key), "rb") as handle:
            head = pickle.load(handle)
            raw = pickle.load(handle)
            assert handle.read() == b""
        assert Path(cache._path(key)).read_bytes() == pickle.dumps(
            value.response_head(), protocol=pickle.HIGHEST_PROTOCOL
        ) + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert head == value.response_head() == cache.head(key)
        assert _summary(raw) == _summary(value) == _summary(cache.get(key))
        assert key in cache


def _single_frame(path, result):
    """The older layout: the bare pickled result, no head."""
    path.write_bytes(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _head_only(path, result):
    """An entry that ends after its head."""
    path.write_bytes(pickle.dumps(result.response_head(), protocol=pickle.HIGHEST_PROTOCOL))


class TestOldAndDamagedEntries:
    @pytest.mark.parametrize(
        "damage", [_single_frame, _head_only], ids=["single-frame", "head-only"]
    )
    @pytest.mark.parametrize("reader", ["get", "head"])
    def test_is_a_miss_removed_and_rewritten_by_the_recompute(
        self, tmp_path, figure1_result, damage, reader
    ):
        request = ScheduleRequest(
            block=paper_figure1_block(), machine=example_2cluster(), backend="vcs"
        )
        spec = CacheSpec(root=str(tmp_path))
        cache = spec.open()
        key = job_cache_key(request, spec)
        cache.put(key, figure1_result)
        path = Path(cache._path(key))
        damage(path, figure1_result)
        assert getattr(cache, reader)(key) is None
        assert not path.exists(), "an entry without a head and a result must be evicted"

        recomputed = schedule_many([request], cache=spec)
        assert recomputed.cache.hits == 0
        assert (recomputed.cache.misses, recomputed.cache.stores) == (1, 1)
        assert _summary(recomputed.values[0]) == _summary(figure1_result)
        assert cache.head(key) == figure1_result.response_head()
        assert _summary(cache.get(key)) == _summary(figure1_result)


# --------------------------------------------------------------------------- #
# stats and environment knobs
# --------------------------------------------------------------------------- #
class TestStatsAndEnv:
    def test_stats_accounting(self):
        stats = CacheStats()
        stats.record("hit")
        stats.record("miss")
        stats.record("off")
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.lookups == 2 and stats.hit_rate == 0.5
        other = CacheStats(hits=3)
        stats.merge(other)
        assert stats.hits == 4
        assert stats.to_dict()["hits"] == 4

    def test_cache_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        for off in ("off", "0", "false", "no"):
            monkeypatch.setenv("REPRO_CACHE", off)
            assert not cache_enabled()

    def test_spec_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        spec = CacheSpec.from_env()
        assert spec.enabled and spec.root == str(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not CacheSpec.from_env().enabled
        assert not CacheSpec.disabled().enabled

    def test_default_dir_under_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(os.path.join(".cache", "repro"))


# --------------------------------------------------------------------------- #
# cache + parallel runner
# --------------------------------------------------------------------------- #
class TestParallelCache:
    def test_warm_hits_cross_process_boundary(self, tmp_path):
        """Results stored by a serial run must be served as hits to pool
        workers (the spec travels in the payload, not the environment)."""
        block = _random_block(11, 10, 3.0)
        machine = paper_2c_8i_1lat()
        jobs = _jobs_for(block, machine, "cars") + _jobs_for(block, machine, "vcs")
        spec = CacheSpec(root=str(tmp_path))
        cold = schedule_many(jobs, cache=spec)
        warm = schedule_many(
            jobs, runner=BatchScheduler(jobs=2, persistent=False), cache=spec
        )
        assert cold.cache.stores == len(jobs)
        assert warm.cache.hits == len(jobs) and warm.cache.misses == 0
        for a, b in zip(cold.values, warm.values):
            assert a.fingerprint() == b.fingerprint()
            assert a.stats == b.stats

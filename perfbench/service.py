"""The ``service-mixed`` workload: the HTTP job server under two
closed-loop clients.

The server is ``python -m repro.cli serve --jobs 2`` in its own process,
with a scrubbed environment, a fresh cache directory and an ephemeral
port.  Two client threads call ``ServiceClient.schedule`` and each waits
for its reply before sending the next request (build tools wait for
each compile), so the loop is closed.

Every new job is followed by three resubmissions of jobs the same client
sent earlier, picked from the client's own seeded stream; a resubmission
is always of a finished job, so exactly 3 of 4 requests are cache hits
whatever the timing.  New jobs come from one stream shared by both
clients: generation after generation of the 42 paper jobs in
seed-shuffled order, each generation under fresh block names so that its
jobs miss the cache and are computed again.  The measured time ends
with a whole generation, so every run serves the same mix of jobs.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.common import (
    ROOT,
    WORKERS,
    Outputs,
    child_env,
    children,
    key_of,
    largest_peak_rss_mb,
    make_request,
    percentile,
    renamed,
    share,
    shuffled,
)

CLIENTS = 2
RESUBMISSIONS = 3
#: Socket timeout of every client call: the slowest request takes about
#: two seconds, so a call that outlasts this means the server hangs.
CALL_TIMEOUT_S = 60
#: The server retains every job it served, so its memory at the end of a
#: run grows with the generations a faster host fits into the measured
#: time.  ``peak_rss_mb`` is therefore read when this generation starts,
#: after the same number of requests in every run of 40 s.
RSS_GENERATION = 4


def start_server(cache_dir: Path) -> Tuple[subprocess.Popen, str]:
    """Start the job server; returns it with its URL once health answers."""
    from repro.service.client import ServiceClient

    args = [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"]
    args += ["--jobs", str(WORKERS), "--cache-dir", str(cache_dir)]
    server = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"job server did not start: {line!r}")
        url = line.split("listening on ", 1)[1].strip()
        client = ServiceClient(url, timeout=10)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.health().get("ok"):
                    return server, url
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("job server health check did not answer")
            time.sleep(0.005)
    except BaseException:
        stop_server(server)
        raise


def stop_server(server: subprocess.Popen) -> None:
    """Interrupt the server, wait for it (and its pool) to exit; kill the
    server and its pool workers if it has not exited within 20 s."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            workers = children(server.pid)
            server.kill()
            server.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                os.path.exists(f"/proc/{pid}") for pid in workers
            ):
                time.sleep(0.05)
    server.stdout.close()


def warm_pool(url: str, pairs) -> None:
    """Start the server's lazy pool before timing: two requests submitted
    together share a dispatch round, and only a round of two or more jobs
    runs on the pool.  Their names are outside every generation."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=CALL_TIMEOUT_S)
    statuses = [
        client.submit(make_request(renamed(block, f"{block.name}@warm-up"), machine))
        for block, machine in pairs[:2]
    ]
    for status in statuses:
        client.result(status.job_id)


@dataclass
class Item:
    key: Tuple[str, str]
    name: str
    block: object
    machine: object
    request: object = None
    new: bool = True


class NewJobs:
    """The new-job stream shared by the clients (see module docstring)."""

    def __init__(
        self,
        pairs,
        rng: random.Random,
        seconds: float,
        generation: int,
        server_pid: Optional[int] = None,
    ):
        self.pairs = pairs
        self.rng = rng
        self.seconds = seconds
        self.generation = generation - 1
        self.first = generation
        self.pending: List[int] = []
        self.start = time.perf_counter()
        self.done = False
        #: Set when a call fails: the clients stop at their next request.
        self.failed = False
        self.lock = threading.Lock()
        self.server_pid = server_pid
        self.peak_rss_mb: Optional[float] = None

    @property
    def generations(self) -> int:
        return self.generation - self.first + 1

    def next(self) -> Optional[Item]:
        with self.lock:
            if self.failed:
                return None
            if not self.pending:
                started = self.generation >= self.first
                if self.done or (started and time.perf_counter() - self.start >= self.seconds):
                    self.done = True
                    return None
                self.generation += 1
                self.pending = shuffled(range(len(self.pairs)), self.rng)
                if self.server_pid is not None and self.generation - self.first == RSS_GENERATION:
                    self.peak_rss_mb = largest_peak_rss_mb([self.server_pid])
            block, machine = self.pairs[self.pending.pop()]
            name = f"{block.name}@g{self.generation}"
            return Item(key_of(block, machine), name, renamed(block, name), machine)


@dataclass
class Sample:
    key: Tuple[str, str]
    latency: float
    cache: str = ""
    steps: Dict[str, float] = field(default_factory=dict)


def _request(client, item: Item, cache) -> Tuple[object, Sample]:
    """One request; with a *cache* (the server's, opened here) it is traced."""
    from repro.api import ScheduleRequest
    from repro.scheduler.fingerprint import schedule_cache_key

    if cache is None:
        start = time.perf_counter()
        response = client.schedule(item.request)
        return response, Sample(item.key, time.perf_counter() - start, response.cache)
    t0 = time.perf_counter()
    body = json.dumps(item.request.to_dict())
    t1 = time.perf_counter()
    ScheduleRequest.from_dict(json.loads(body))
    t2 = time.perf_counter()
    status = client.submit(item.request)
    t3 = time.perf_counter()
    response = client.result(status.job_id)
    t4 = time.perf_counter()
    final = client.status(status.job_id)
    t5 = time.perf_counter()
    key = schedule_cache_key(item.block, item.machine, item.request.spec.to_dict(), salt=cache.salt)
    t6 = time.perf_counter()
    cache.get(key)
    t7 = time.perf_counter()
    steps = {
        "encode": t1 - t0,
        "decode": t2 - t1,
        "submit": t3 - t2,
        "fetch": t4 - t3,
        "queue_wait": final.started_s - final.submitted_s,
        "run": final.finished_s - final.started_s,
        "key": t6 - t5,
        "get": t7 - t6,
    }
    return response, Sample(item.key, t4 - t2, response.cache, steps)


def run_clients(
    pairs,
    url: str,
    seed: int,
    seconds: float,
    outputs: Outputs,
    generation: int,
    server_cache: Optional[Path] = None,
    server_pid: Optional[int] = None,
) -> Tuple[List[Sample], float, int, Optional[float]]:
    """Drive the server with the closed-loop clients.

    Returns the samples, the measured wall time, the number of whole
    generations served and, given the server's pid, its peak resident set
    when generation ``RSS_GENERATION`` started (None in a run too short to
    reach it).  Given the server's cache directory the run is traced: it
    also times ``schedule_cache_key`` and ``ResultCache.get`` on that cache
    for every request, from outside the server.
    """
    from repro.runner.cache import ResultCache
    from repro.service.client import ServiceClient

    stream = NewJobs(pairs, random.Random(f"{seed}:new"), seconds, generation, server_pid)
    samples: List[Sample] = []
    lock = threading.Lock()

    def one(client, cache, item: Item) -> None:
        try:
            response, sample = _request(client, item, cache)
        except Exception as exc:  # Any failed call counts against the run.
            with lock:
                outputs.attempted += 1
                outputs.fail(f"{item.name} on {item.key[1]}: {type(exc).__name__}: {exc}")
            # A failing server fails every later call too, each after a
            # timeout: end the run instead.
            stream.failed = True
            return
        expected_cache = "miss" if item.new else "hit"
        with lock:
            if outputs.check_response(item.key, item.name, response):
                if response.cache != expected_cache:
                    outputs.fail(f"{item.name}: cache {response.cache}, expected {expected_cache}")
                samples.append(sample)

    def client_loop(index: int) -> None:
        rng = random.Random(f"{seed}:client{index}")
        client = ServiceClient(url, timeout=CALL_TIMEOUT_S)
        cache = ResultCache(server_cache) if server_cache is not None else None
        earlier: List[Item] = []
        while True:
            item = stream.next()
            if item is None:
                return
            item.request = make_request(item.block, item.machine, client=f"client{index}")
            one(client, cache, item)
            earlier.append(Item(item.key, item.name, item.block, item.machine, item.request, False))
            for _ in range(RESUBMISSIONS):
                if stream.failed:
                    return
                one(client, cache, rng.choice(earlier))

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - start, stream.generations, stream.peak_rss_mb


def end_to_end(samples: List[Sample], wall: float) -> Dict[str, float]:
    latencies = [sample.latency for sample in samples]
    return {
        "blocks_per_s": len(samples) / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
    }


def trace_layers(
    samples: List[Sample], wall: float, generations: int, reference
) -> Dict[str, float]:
    """Per-layer metrics of a traced client run.  The scheduler counters of
    each miss are those of the cold reference compute of the same job
    (the server does not return them over HTTP)."""

    def steps(name: str) -> List[float]:
        return [sample.steps[name] for sample in samples]

    misses = [sample for sample in samples if sample.cache == "miss"]
    hits = [sample for sample in samples if sample.cache == "hit"]
    computed = [
        (result, result.wall_time)
        for result in (reference.results[sample.key] for sample in misses)
    ]
    out = layers.scheduler_layers(computed, passes=generations)
    run = steps("run")
    latency = sum(sample.latency for sample in samples)
    out.update(
        {
            "scheduler.fingerprint.key_us.p50": layers.p50_us(steps("key")),
            "runner.cache.get_us.p50": layers.p50_us(s.steps["get"] for s in hits),
            "runner.cache.hit_share": share(len(hits), len(samples)),
            # A hit's time in the server's dispatch round beyond its key and get.
            "runner.dispatch_us_per_job": layers.p50_us(
                s.steps["run"] - s.steps["key"] - s.steps["get"] for s in hits
            ),
            "api.request_encode_us.p50": layers.p50_us(steps("encode")),
            "api.request_decode_us.p50": layers.p50_us(steps("decode")),
            "service.submit_ms.p50": layers.p50_ms(steps("submit")),
            "service.fetch_ms.p50": layers.p50_ms(steps("fetch")),
            "service.queue_wait_ms.p50": layers.p50_ms(steps("queue_wait")),
            "service.queue_wait_ms.p90": percentile(steps("queue_wait"), 90) * 1e3,
            "service.run_ms.p50": layers.p50_ms(run),
            "service.run_ms.p90": percentile(run, 90) * 1e3,
            "runner.unaccounted_share": 1.0 - share(sum(run), latency),
            "blocks_per_s": len(samples) / wall,
        }
    )
    return out

#!/usr/bin/env python
"""CI service-identity gate: HTTP-vs-batch byte identity of the gated matrix.

Schedules the gated 12-cell scenario sample (``ring``/``p2p`` machine
families x ``membound``/``exitdense`` workload families, ``vcs``
backend) three ways in one process:

1. **batch reference** — the flat job list straight through
   :func:`repro.api.schedule_many` with caching disabled (the exact
   path ``repro suite`` and ``check_cache_identity.py`` exercise);
2. **HTTP cold** — the same jobs submitted to a live
   :class:`repro.service.JobServer` (fresh temp result cache) by
   ``--clients`` concurrent clients, every job long-polled to its
   :class:`~repro.api.ScheduleResponse`;
3. **HTTP warm** — the same submissions replayed, which must be served
   100% from the server's result cache.

Every HTTP response must carry the identical schedule digest and
``dp_work`` as the batch reference at the same position — the wire
round trip (block serialisation in :meth:`DependenceGraph.ordered_edges
<repro.ir.depgraph.DependenceGraph.ordered_edges>` order) is lossless
by construction and this gate enforces it.  Exits non-zero on any
digest/work drift, cold cache hit, or warm cache miss, and writes a
JSON report with submit-to-result latency percentiles (the CI
artifact).

Usage::

    PYTHONPATH=src python scripts/check_service_identity.py \
        [--output service_identity.json] [--jobs N] [--clients N]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import scenario_matrix_jobs  # noqa: E402
from repro.api import ScheduleRequest, ScheduleResponse, schedule_many  # noqa: E402
from repro.runner import (  # noqa: E402
    BatchScheduler,
    CacheSpec,
    ScheduleJob,
    fingerprint_digest,
)
from repro.service import ServerThread, ServiceClient  # noqa: E402

MACHINE_FAMILIES = ("ring", "p2p")
WORKLOAD_FAMILIES = ("membound", "exitdense")
BACKENDS = ("vcs",)
BLOCKS = 1


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank method."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def batch_reference(jobs: Sequence[ScheduleJob], n_jobs: int) -> List[dict]:
    batch = schedule_many(jobs, runner=BatchScheduler(jobs=n_jobs), cache=CacheSpec.disabled())
    return [
        {
            "job_id": job.job_id,
            "digest": fingerprint_digest([result.fingerprint()]),
            "dp_work": result.work,
        }
        for job, result in zip(jobs, batch.values)
    ]


def http_pass(url: str, jobs: Sequence[ScheduleJob], clients: int):
    """Submit every job over HTTP from ``clients`` concurrent threads.

    Jobs are strided across clients (client ``c`` takes positions ``c,
    c+clients, …``), each submitted and long-polled to completion.
    Returns (responses, latencies, errors) with responses/latencies in
    job-list position order.
    """
    responses: List[Optional[ScheduleResponse]] = [None] * len(jobs)
    latencies: List[float] = [0.0] * len(jobs)
    errors: List[str] = []
    lock = threading.Lock()

    def worker(name: str, positions: range) -> None:
        client = ServiceClient(url)
        for index in positions:
            request = ScheduleRequest.from_job(jobs[index], client=name)
            begin = time.perf_counter()
            try:
                response = client.schedule(request)
            except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
                with lock:
                    errors.append(f"{jobs[index].job_id} via {name}: {exc}")
                continue
            latencies[index] = time.perf_counter() - begin
            responses[index] = response

    threads = [
        threading.Thread(
            target=worker,
            args=(f"client-{c}", range(c, len(jobs), clients)),
            name=f"service-identity-client-{c}",
        )
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, latencies, errors


def compare_pass(
    label: str,
    reference: List[dict],
    responses: List[Optional[ScheduleResponse]],
    errors: List[str],
) -> List[str]:
    problems = [f"{label}: {message}" for message in errors]
    for expected, response in zip(reference, responses):
        if response is None:
            problems.append(f"{label}: {expected['job_id']} returned no response")
            continue
        if response.state != "done":
            problems.append(
                f"{label}: {expected['job_id']} finished {response.state!r}: "
                f"{response.failure}"
            )
            continue
        if response.digest != expected["digest"] or response.work != expected["dp_work"]:
            problems.append(
                f"{label}: {expected['job_id']} drifted from the batch path "
                f"(digest {response.digest[:12]}… vs {expected['digest'][:12]}…, "
                f"dp_work {response.work} vs {expected['dp_work']})"
            )
    return problems


def latency_summary(latencies: Sequence[float]) -> dict:
    return {
        "p50_s": percentile(latencies, 0.50),
        "p99_s": percentile(latencies, 0.99),
        "max_s": max(latencies) if latencies else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        metavar="PATH",
        default="service_identity.json",
        help="write the identity/latency report here",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count of the batch reference and the server (default: 1)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent HTTP clients per pass (default: 4)",
    )
    args = parser.parse_args()

    jobs = scenario_matrix_jobs(
        MACHINE_FAMILIES, WORKLOAD_FAMILIES, BACKENDS, blocks_per_benchmark=BLOCKS
    )
    reference = batch_reference(jobs, args.jobs)

    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-service-identity-") as root:
        with ServerThread(
            runner=BatchScheduler(jobs=args.jobs),
            cache=CacheSpec(root=root),
        ) as server:
            cold_responses, cold_latencies, cold_errors = http_pass(
                server.url, jobs, args.clients
            )
            warm_responses, warm_latencies, warm_errors = http_pass(
                server.url, jobs, args.clients
            )
            stats = ServiceClient(server.url).stats()

    errors += compare_pass("cold", reference, cold_responses, cold_errors)
    errors += compare_pass("warm", reference, warm_responses, warm_errors)

    cold_outcomes = Counter(r.cache for r in cold_responses if r is not None)
    warm_outcomes = Counter(r.cache for r in warm_responses if r is not None)
    if cold_outcomes.get("hit", 0):
        errors.append(
            f"cold pass hit a supposedly fresh cache ({cold_outcomes['hit']} hits) — "
            "the temp directory was not fresh or keying is unstable"
        )
    warm_hits = warm_outcomes.get("hit", 0)
    if warm_hits != len(jobs):
        errors.append(
            f"warm pass served {warm_hits}/{len(jobs)} jobs from cache "
            f"(outcomes: {dict(warm_outcomes)}) — expected a 100% cache-served replay"
        )

    report = {
        "matrix": {
            "machine_families": list(MACHINE_FAMILIES),
            "workload_families": list(WORKLOAD_FAMILIES),
            "backends": list(BACKENDS),
            "blocks_per_benchmark": BLOCKS,
            "jobs": len(jobs),
        },
        "workers": args.jobs,
        "clients": args.clients,
        "cold_outcomes": dict(cold_outcomes),
        "warm_outcomes": dict(warm_outcomes),
        "warm_hit_rate": warm_hits / len(jobs) if jobs else 0.0,
        "cold_latency": latency_summary(cold_latencies),
        "warm_latency": latency_summary(warm_latencies),
        "server_stats": stats,
        "digests_identical_http_vs_batch": not errors,
        "ok": not errors,
        "errors": errors,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for error in errors:
        print(f"[service-identity] REGRESSION: {error}")
    if errors:
        return 1
    print(
        f"[service-identity] ok: {len(jobs)} jobs x {args.clients} clients over HTTP, "
        f"cold+warm digests identical to the batch path, warm 100% cache hits "
        f"(cold p50 {report['cold_latency']['p50_s']:.3f}s, "
        f"warm p50 {report['warm_latency']['p50_s']:.3f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

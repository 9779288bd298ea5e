"""Shared pieces of the benchmark: inputs, the cold reference, output
checks, statistics and process bookkeeping.

Nothing here imports ``repro`` at module level: ``run.py`` first checks
that the checkout has ``src/repro`` and scrubs every ``REPRO_*``
variable from the environment, then imports the program.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file a run writes (result caches, server caches) lives below
#: this directory of the checkout and is removed when the run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Worker processes of every pool the benchmark or the server starts.
WORKERS = 2

Key = Tuple[str, str]


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob so the workload is what the benchmark
    says it is (jobs, pool mode, cache location, scheduler config)."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def child_env() -> Dict[str, str]:
    """The environment of processes the benchmark starts: scrubbed, with
    the checkout's ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def paper_pairs(benchmarks: Optional[int] = None) -> List[Tuple[object, object]]:
    """The (block, machine) pairs of the paper family on the three paper
    machines, in canonical order: 14 profiles x 1 block x 3 machines.

    ``benchmarks`` keeps only the first profiles (the tests' tiny size).
    """
    from repro.machine.presets import paper_configurations
    from repro.workloads import build_family

    workloads = build_family("paper", 1)
    if benchmarks is not None:
        workloads = workloads[:benchmarks]
    machines = paper_configurations()
    return [(block, machine) for w in workloads for block in w.blocks for machine in machines]


def make_request(block, machine, client: str = "default"):
    """One ``vcs`` request with the default ``VcsConfig``, validated in the
    worker (``check_schedule`` on)."""
    from repro.api import ScheduleRequest
    from repro.scheduler.vcs import VcsConfig

    return ScheduleRequest(
        block=block, machine=machine, backend="vcs", vcs=VcsConfig(), client=client
    )


def key_of(block, machine) -> Key:
    return (block.name, machine.name)


def renamed(block, name: str):
    """*block* under another name: a distinct cache key, the same schedule."""
    return replace(block, name=name)


def shuffled(items: Sequence, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------------- #
# the cold reference and the output checks
# --------------------------------------------------------------------------- #
def _rename_strings(value, old: str, new: str):
    if isinstance(value, str):
        return new if value == old else value
    if isinstance(value, (list, tuple)):
        return [_rename_strings(item, old, new) for item in value]
    if isinstance(value, dict):
        return {k: _rename_strings(v, old, new) for k, v in value.items()}
    return value


class Reference:
    """The cold compute of every distinct job: what every timed output
    must reproduce (schedule digest and ``dp_work``)."""

    def __init__(self, results: Dict[Key, object]):
        from repro.runner.jobs import fingerprint_digest

        self._digest = fingerprint_digest
        self.results = results
        self.digests = {key: fingerprint_digest([r.fingerprint()]) for key, r in results.items()}
        self._renamed: Dict[Tuple[Key, str], str] = {}
        self.doctored: set = set()

    def expected(self, key: Key, name: Optional[str] = None) -> Tuple[str, int]:
        """(digest, dp_work) of *key*'s cold compute; with *name*, the digest
        the same schedule has when its block carries that name."""
        result = self.results[key]
        if key in self.doctored:
            return "0" * 64, result.work
        if name is None or name == key[0]:
            return self.digests[key], result.work
        cached = self._renamed.get((key, name))
        if cached is None:
            fingerprint = _rename_strings(result.fingerprint(), key[0], name)
            cached = self._renamed[(key, name)] = self._digest([fingerprint])
        return cached, result.work

    def doctor(self, count: int) -> None:
        """Expect a wrong digest for the first *count* jobs: a self-test
        proving that a broken output check cannot pass silently."""
        self.doctored.update(sorted(self.results)[:count])


def compute_reference(pairs, runner, doctor: int = 0) -> Reference:
    """Cold-compute every pair once (cache off) and validate each schedule."""
    from repro.api import schedule_many
    from repro.runner.cache import CacheSpec
    from repro.scheduler.correctness import validate_schedule

    requests = [make_request(block, machine) for block, machine in pairs]
    batch = schedule_many(requests, runner=runner, cache=CacheSpec.disabled(), on_error="capture")
    if batch.failures:
        raise RuntimeError("reference compute failed: " + batch.failures[0].describe())
    results = {}
    for (block, machine), result in zip(pairs, batch.values):
        if result.schedule is None or not validate_schedule(result.schedule).ok:
            raise RuntimeError(f"reference schedule of {key_of(block, machine)} is invalid")
        results[key_of(block, machine)] = result
    reference = Reference(results)
    if doctor:
        reference.doctor(doctor)
    return reference


class Outputs:
    """Counts attempted and failed jobs.  A job fails when it errors, times
    out or crashes, when its HTTP call fails, when its schedule fails
    ``validate_schedule``, or when its digest or ``dp_work`` differs from
    the cold compute of the same job; the service also fails a request
    whose cache outcome is not the one the workload guarantees."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def check_digest(self, key: Key, digest: str, work: int, name: Optional[str] = None) -> bool:
        expected_digest, expected_work = self.reference.expected(key, name)
        if digest != expected_digest or work != expected_work:
            self.fail(f"{name or key[0]} on {key[1]}: digest/dp_work differ from the cold compute")
            return False
        return True

    def check_result(self, key: Key, result, failure: str = "") -> bool:
        """Check one ``ScheduleResult`` returned by the runner."""
        from repro.runner.jobs import fingerprint_digest
        from repro.scheduler.correctness import validate_schedule

        self.attempted += 1
        if result is None:
            self.fail(f"{key[0]} on {key[1]}: {failure or 'no result'}")
            return False
        if result.schedule is None:
            self.fail(f"{key[0]} on {key[1]}: no schedule")
            return False
        if not validate_schedule(result.schedule).ok:
            self.fail(f"{key[0]} on {key[1]}: schedule fails validate_schedule")
            return False
        digest = fingerprint_digest([result.fingerprint()])
        return self.check_digest(key, digest, result.work, result.block.name)

    def check_response(self, key: Key, name: str, response) -> bool:
        """Check one HTTP ``ScheduleResponse`` for a block served as *name*."""
        self.attempted += 1
        if response.state != "done" or not response.ok:
            self.fail(f"{name} on {key[1]}: state {response.state} {response.failure or ''}")
            return False
        return self.check_digest(key, response.digest, response.work, name)

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------------- #
def children(pid: int) -> List[int]:
    """The child processes of *pid*."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return out


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def largest_peak_rss_mb(pids: Sequence[int]) -> float:
    """The largest peak resident set among *pids* and their descendants.

    A sum over the processes moves by a fifth from run to run, with which
    pool worker drew the heaviest jobs; the largest repeats."""
    pending, peak = list(pids), 0
    while pending:
        current = pending.pop()
        peak = max(peak, _peak_kb(current))
        pending.extend(children(current))
    return peak / 1024.0


@dataclass
class SetupSample:
    seconds: float
    import_s: float
    build_s: float


def measure_setup(workload: str, cache_dir: Path, benchmarks: Optional[int]) -> SetupSample:
    """Time one complete set-up in a fresh interpreter.

    The probe (``run.py --setup-probe``) imports ``repro``, builds the
    inputs, starts the 2-worker pool (``service-mixed``: the server, until
    its health check answers), prints one line and waits; the time from
    spawn to that line is one ``setup_s`` sample.  Closing its stdin makes it
    tear everything down.
    """
    args = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe"]
    args += ["--workload", workload, "--cache-dir", str(cache_dir)]
    if benchmarks is not None:
        args += ["--benchmarks", str(benchmarks)]
    start = time.perf_counter()
    probe = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        line = probe.stdout.readline()
        seconds = time.perf_counter() - start
        probe.stdin.close()
        probe.stdout.read()
        code = probe.wait(timeout=120)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    info = json.loads(line)
    return SetupSample(seconds, info["import_s"], info["build_s"])

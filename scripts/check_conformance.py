#!/usr/bin/env python
"""Conformance gate: the golden schedule corpus in ``conformance.json``.

What this reproduction promises is the schedules themselves.  The
corpus stores them as data: each case is a (block ref, machine name,
``BackendSpec.to_dict()``) triple mapped to the result digest
(``fingerprint_digest([result.fingerprint()])``), the schedule-only
digest (``fingerprint_digest([schedule.fingerprint()])``, or of
``None`` without a schedule), ``dp_work``, AWCT and fallback flag it must produce.
Blocks are named, never stored: every ref in the
``blocks`` table is a recipe that rebuilds the block from
:mod:`repro.workloads`, and machines are rebuilt by name from the
machine families.  The ``suites`` table declares which cases exist
(blocks x machines x backends); ``cases`` holds the golden values.

Every case runs in three modes, each with its own identity claim:

* ``direct`` — serial, no result cache, ``validate_schedule`` on every
  schedule.  Must equal the golden values; a golden case the suites do
  not declare, or a declared case without a golden entry, also fails.
* ``pool`` — :func:`repro.api.schedule_many` on a 2-worker
  :class:`~repro.runner.BatchScheduler` against a fresh temp cache,
  cold then warm.  Equal to ``direct``; the cold pass has 0 cache hits
  and the warm pass is 100 % hits.
* ``http`` — the same, through a live job server
  (:class:`~repro.service.ServerThread`) from 4 concurrent clients.

Every runner, pool and cache setting is passed explicitly, so no
``REPRO_*`` environment variable changes what is checked.  Wall time is
not measured here; that is perfbench's job.

Usage::

    PYTHONPATH=src python scripts/check_conformance.py           # check
    PYTHONPATH=src python scripts/check_conformance.py --update  # accept

``--update`` rewrites the golden values from the ``direct`` run, prints
every case whose values changed — saying whether its schedule changed or
only ``dp_work`` moved — and one summary line per suite (cases with a
better or worse AWCT, fallbacks old -> new, geometric-mean AWCT ratio
new/old), then runs the identity modes as usual.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.workloads as workloads  # noqa: E402
from repro.api import ScheduleRequest, ScheduleResponse, schedule_many  # noqa: E402
from repro.config import RuntimeConfig  # noqa: E402
from repro.ir.superblock import Superblock  # noqa: E402
from repro.machine.families import machine_by_name  # noqa: E402
from repro.machine.machine import ClusteredMachine  # noqa: E402
from repro.runner import BatchScheduler, CacheSpec, fingerprint_digest  # noqa: E402
from repro.scheduler import BackendSpec, SchedulePolicy, VcsConfig  # noqa: E402
from repro.scheduler.correctness import validate_schedule  # noqa: E402
from repro.scheduler.fingerprint import CODE_SALT, canonical_json  # noqa: E402
from repro.scheduler.schedule import ScheduleResult  # noqa: E402
from repro.service import ServerThread, ServiceClient, ServiceError  # noqa: E402

GOLDEN = REPO_ROOT / "conformance.json"
#: Worker processes of the ``pool`` and ``http`` modes.
WORKERS = 2
#: Concurrent HTTP clients of the ``http`` mode.
CLIENTS = 4

Inputs = Tuple[Superblock, ClusteredMachine]


# --------------------------------------------------------------------------- #
# the corpus
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Case:
    block: str
    machine: str
    #: Canonical ``BackendSpec.to_dict()``.
    backend: dict

    @classmethod
    def of(cls, entry: dict) -> "Case":
        """The case a golden entry describes."""
        return cls(entry["block"], entry["machine"], entry["backend"])

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.block, self.machine, canonical_json(self.backend))

    @property
    def label(self) -> str:
        return f"{self.block} @ {self.machine} : {backend_label(self.backend)}"

    @property
    def spec(self) -> BackendSpec:
        return BackendSpec.from_dict(self.backend)


def backend_label(backend: dict) -> str:
    """The backend name plus every setting that differs from the default."""
    vcs = dict(backend.get("vcs") or {})
    policy = vcs.pop("policy", None) or {}
    default_vcs = VcsConfig().to_dict()
    default_policy = SchedulePolicy().to_dict()
    changed = [f"{k}={v}" for k, v in vcs.items() if default_vcs.get(k) != v]
    changed += [f"policy.{k}={v}" for k, v in policy.items() if default_policy.get(k) != v]
    changed += [f"{k}={v}" for k, v in sorted((backend.get("options") or {}).items())]
    return f"{backend['name']}({', '.join(changed)})" if changed else backend["name"]


def build_block(ref: str, recipe: dict) -> Superblock:
    """Rebuild one corpus block from its recipe (see ``conformance.json``)."""
    if "kernel" in recipe:
        if recipe["kernel"] not in workloads.__all__:
            raise ValueError(f"block {ref}: {recipe['kernel']!r} is not in repro.workloads")
        block = getattr(workloads, recipe["kernel"])(**recipe.get("args", {}))
    else:
        if "family" in recipe:
            profiles = {p.name: p for p in workloads.workload_family(recipe["family"]).profiles}
            profile = profiles[recipe["benchmark"]]
            config, seed = profile.generator, profile.seed
        else:
            config, seed = workloads.GeneratorConfig(**recipe["generator"]), recipe["seed"]
        index = recipe["index"]
        generator = workloads.SuperblockGenerator(config, seed=seed)
        block = generator.generate(f"{recipe['benchmark']}/sb_{index:04d}", index=index)
    if block.name != ref:
        raise ValueError(f"block recipe {ref!r} builds a block named {block.name!r}")
    return block


def suite_cases(suite: dict) -> List[Case]:
    """Expand one suite into its blocks x machines x backends cases."""
    return [
        Case(block, machine, BackendSpec.from_dict(backend).to_dict())
        for block in suite["blocks"]
        for machine in suite["machines"]
        for backend in suite["backends"]
    ]


def declared_cases(corpus: dict) -> List[Case]:
    """Every suite's cases, in suite order."""
    return [case for suite in corpus["suites"] for case in suite_cases(suite)]


def case_inputs(corpus: dict, cases: Sequence[Case]) -> List[Inputs]:
    blocks: Dict[str, Superblock] = {}
    machines: Dict[str, ClusteredMachine] = {}
    inputs = []
    for case in cases:
        if case.block not in blocks:
            blocks[case.block] = build_block(case.block, corpus["blocks"][case.block])
        if case.machine not in machines:
            machines[case.machine] = machine_by_name(case.machine)
        inputs.append((blocks[case.block], machines[case.machine]))
    return inputs


def outcome(result: ScheduleResult) -> dict:
    schedule = result.schedule.fingerprint() if result.schedule is not None else None
    return {
        "digest": fingerprint_digest([result.fingerprint()]),
        "schedule": fingerprint_digest([schedule]),
        "dp_work": result.work,
        "awct": result.awct if result.ok else None,
        "fallback": result.fallback_used,
    }


def response_outcome(response: ScheduleResponse) -> dict:
    # The response carries ``result.fingerprint()``, whose sixth entry is
    # the schedule's own fingerprint.
    schedule = response.fingerprint[5] if response.fingerprint is not None else None
    return {
        "digest": response.digest,
        "schedule": fingerprint_digest([schedule]),
        "dp_work": response.work,
        "awct": response.awct if response.ok else None,
        "fallback": response.fallback_used,
    }


def describe(values: Optional[dict]) -> str:
    if values is None:
        return "nothing"
    return (
        f"digest {values['digest'][:12]}, schedule {values['schedule'][:12]}, "
        f"dp_work {values['dp_work']}, awct {values['awct']}, fallback {values.get('fallback')}"
    )


def mismatch(mode: str, case: Case, got: Optional[dict], ref: dict) -> str:
    return f"{mode}: {case.label}: got {describe(got)}; direct {describe(ref)}"


# --------------------------------------------------------------------------- #
# the modes
# --------------------------------------------------------------------------- #
def run_direct(
    cases: Sequence[Case], inputs: Sequence[Inputs]
) -> Tuple[List[ScheduleResult], List[str]]:
    """Serial, uncached runs; every schedule must pass ``validate_schedule``."""
    results, errors = [], []
    for case, (block, machine) in zip(cases, inputs):
        result = case.spec.create().schedule(block, machine)
        if result.schedule is not None:
            report = validate_schedule(result.schedule)
            if not report.ok:
                errors.append(f"direct: {case.label}: invalid schedule: {report.errors[0]}")
        results.append(result)
    return results, errors


def check_golden(
    cases: Sequence[Case], outcomes: Sequence[dict], golden: Sequence[dict]
) -> List[str]:
    """Direct outcomes vs the golden values; missing and extra cases fail."""
    expected = {Case.of(g).key: g for g in golden}
    declared = {case.key for case in cases}
    errors = []
    for case, got in zip(cases, outcomes):
        want = expected.get(case.key)
        if want is None:
            errors.append(f"missing case: {case.label} has no golden entry")
        elif any(want.get(field) != got[field] for field in got):
            errors.append(f"direct: {case.label}: got {describe(got)}; golden {describe(want)}")
    for key, entry in expected.items():
        if key not in declared:
            label = Case.of(entry).label
            errors.append(f"extra case: {label} is not declared by any suite")
    return errors


def compare(
    mode: str,
    cases: Sequence[Case],
    got: Sequence[Optional[dict]],
    tags: Sequence[str],
    reference: Sequence[dict],
    want_tag: str,
) -> List[str]:
    errors = []
    for case, values, tag, ref in zip(cases, got, tags, reference):
        if values != ref:
            errors.append(mismatch(mode, case, values, ref))
        elif tag != want_tag:
            errors.append(f"{mode}: {case.label}: cache outcome {tag!r}, expected {want_tag!r}")
    return errors


def requests_for(cases: Sequence[Case], inputs: Sequence[Inputs]) -> List[ScheduleRequest]:
    """One request per case, named by its label; in the http mode, client
    ``c`` submits positions ``c, c + CLIENTS, ...``."""
    requests = []
    for index, (case, (block, machine)) in enumerate(zip(cases, inputs)):
        spec = case.spec
        requests.append(
            ScheduleRequest(
                block=block,
                machine=machine,
                backend=spec.name,
                vcs=spec.vcs,
                options=spec.options,
                check_schedule=False,
                client=f"client-{index % CLIENTS}",
                job_name=case.label,
            )
        )
    return requests


def explicit_runner() -> BatchScheduler:
    return BatchScheduler(jobs=WORKERS, chunk_size=1, timeout=None, persistent=True)


def fresh_cache(root: str) -> CacheSpec:
    return CacheSpec(root=root, salt=CODE_SALT, enabled=True)


def check_pool(
    cases: Sequence[Case], inputs: Sequence[Inputs], reference: Sequence[dict]
) -> List[str]:
    requests = requests_for(cases, inputs)
    errors = []
    with tempfile.TemporaryDirectory(prefix="repro-conformance-pool-") as root:
        for leg, tag in (("cold", "miss"), ("warm", "hit")):
            batch = schedule_many(
                requests, runner=explicit_runner(), cache=fresh_cache(root), on_error="capture"
            )
            errors += [f"pool {leg}: {failure.describe()}" for failure in batch.failures]
            got = [outcome(value) if value is not None else None for value in batch.values]
            errors += compare(f"pool {leg}", cases, got, batch.cache_outcomes, reference, tag)
    return errors


def http_pass(
    url: str, requests: Sequence[ScheduleRequest]
) -> Tuple[List[Optional[dict]], List[str], List[str]]:
    """Submit every request from ``CLIENTS`` concurrent threads.  Returns
    each position's outcome (``None`` unless done), cache tag and failure."""
    got: List[Optional[dict]] = [None] * len(requests)
    tags = [""] * len(requests)
    failures = [""] * len(requests)

    def worker(positions: range) -> None:
        client = ServiceClient(url)
        for index in positions:
            try:
                response = client.schedule(requests[index])
            except (ServiceError, OSError, ValueError) as exc:
                failures[index] = f"{type(exc).__name__}: {exc}"
                continue
            if response.state == "done":
                got[index], tags[index] = response_outcome(response), response.cache
            else:
                failures[index] = f"job {response.state}: {response.failure}"

    threads = [
        threading.Thread(target=worker, args=(range(c, len(requests), CLIENTS),))
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return got, tags, failures


def check_http(
    cases: Sequence[Case], inputs: Sequence[Inputs], reference: Sequence[dict]
) -> List[str]:
    requests = requests_for(cases, inputs)
    errors = []
    with tempfile.TemporaryDirectory(prefix="repro-conformance-http-") as root:
        with ServerThread(
            host="127.0.0.1",
            port=0,
            runner=explicit_runner(),
            cache=fresh_cache(root),
            config=RuntimeConfig(),
        ) as server:
            for leg, tag in (("cold", "miss"), ("warm", "hit")):
                got, tags, failures = http_pass(server.url, requests)
                errors += [
                    f"http {leg}: {case.label}: {failure}"
                    for case, failure in zip(cases, failures)
                    if failure
                ]
                errors += compare(f"http {leg}", cases, got, tags, reference, tag)
    return errors


# --------------------------------------------------------------------------- #
# the golden file
# --------------------------------------------------------------------------- #
def dump_corpus(corpus: dict) -> str:
    """The corpus as JSON with one table entry per line, for readable diffs."""
    parts = []
    for key, value in corpus.items():
        if isinstance(value, dict):
            rows = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
            value_text = "{\n" + ",\n".join(rows) + "\n  }"
        elif isinstance(value, list):
            value_text = "[\n" + ",\n".join(f"    {json.dumps(v)}" for v in value) + "\n  ]"
        else:
            value_text = json.dumps(value)
        parts.append(f"  {json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def update_golden(
    path: Path, corpus: dict, cases: Sequence[Case], outcomes: Sequence[dict]
) -> None:
    """Rewrite the golden values and print every case that changed, with
    whether its schedule changed or only ``dp_work`` moved, then one
    summary line per suite."""
    previous = {Case.of(g).key: g for g in corpus["cases"]}
    old = dict(previous)
    new_cases = []
    changed = {"schedule changed": 0, "schedule unchanged": 0}
    for case, got in zip(cases, outcomes):
        before = old.pop(case.key, None)
        if before is None:
            print(f"[conformance] new: {case.label}: awct {got['awct']}, dp_work {got['dp_work']}")
        elif any(before.get(field) != got[field] for field in got):
            verdict = (
                "schedule unchanged"
                if before.get("schedule") == got["schedule"]
                else "schedule changed"
            )
            changed[verdict] += 1
            print(
                f"[conformance] changed: {case.label}: {verdict}, "
                f"awct {before['awct']} -> {got['awct']}, "
                f"dp_work {before['dp_work']} -> {got['dp_work']}"
            )
        new_cases.append(
            {"block": case.block, "machine": case.machine, "backend": case.backend, **got}
        )
    for entry in old.values():
        label = Case.of(entry).label
        print(f"[conformance] dropped: {label}")
    path.write_text(dump_corpus({**corpus, "cases": new_cases}))
    print(
        f"[conformance] wrote {len(new_cases)} golden cases to {path.name}; "
        + ", ".join(f"{count} {verdict}" for verdict, count in changed.items())
    )
    current = {Case.of(g).key: g for g in new_cases}
    for suite in corpus["suites"]:
        keys = [case.key for case in suite_cases(suite)]
        print(f"[conformance] {suite_summary(suite['name'], keys, previous, current)}")


def suite_summary(name: str, keys: Sequence[tuple], before: dict, after: dict) -> str:
    """One suite's quality change: cases whose AWCT got better or worse,
    fallbacks old -> new and the geometric-mean AWCT ratio new/old, over
    the cases that have an old golden entry."""
    pairs = [(before[key], after[key]) for key in keys if key in before]
    better = worse = 0
    logs = []
    for old, new in pairs:
        if old["awct"] is None or new["awct"] is None:
            continue
        better += new["awct"] < old["awct"]
        worse += new["awct"] > old["awct"]
        logs.append(math.log(new["awct"] / old["awct"]))
    fallbacks_old = sum(bool(old.get("fallback")) for old, _ in pairs)
    fallbacks_new = sum(bool(new["fallback"]) for _, new in pairs)
    ratio = math.exp(sum(logs) / len(logs)) if logs else 1.0
    fresh = len(keys) - len(pairs)
    return (
        f"suite {name}: {len(keys)} cases{f' ({fresh} new)' if fresh else ''}, "
        f"awct {better} better, {worse} worse, fallbacks {fallbacks_old} -> {fallbacks_new}, "
        f"awct geomean new/old {ratio:.4f}"
    )


def main(argv: Optional[Sequence[str]] = None, golden: Path = GOLDEN) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the golden values from the direct run and list what changed",
    )
    args = parser.parse_args(argv)

    corpus = json.loads(Path(golden).read_text())
    cases = declared_cases(corpus)
    inputs = case_inputs(corpus, cases)
    direct, errors = run_direct(cases, inputs)
    reference = [outcome(result) for result in direct]
    if args.update:
        update_golden(Path(golden), corpus, cases, reference)
    else:
        errors += check_golden(cases, reference, corpus["cases"])
    errors += check_pool(cases, inputs, reference)
    errors += check_http(cases, inputs, reference)

    for error in errors:
        print(f"[conformance] FAIL {error}")
    if errors:
        print(f"[conformance] {len(errors)} failure(s) over {len(cases)} cases")
        return 1
    print(
        f"[conformance] ok: {len(cases)} cases match {Path(golden).name} in direct, "
        "pool and http (cold + warm) mode"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

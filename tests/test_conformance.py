"""The conformance gate (``scripts/check_conformance.py``) on bounded samples.

The full corpus runs in CI; these tests run a sample of it through every
mode and check that the gate fails, naming the case, when the golden
file is doctored, and that it never reads the user's result cache.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.api import ScheduleRequest, schedule_many
from repro.runner import BatchScheduler, ResultCache
from repro.scheduler import create
from repro.scheduler.fingerprint import CODE_SALT, schedule_cache_key

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_conformance", REPO_ROOT / "scripts" / "check_conformance.py"
)
cc = sys.modules["check_conformance"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cc)

SAMPLE_BLOCK = "paper/fig1"
SAMPLE_MACHINE = "2clust 1b 1lat"


def write_sample(tmp_path: Path, backends=None, policy_cases: int = 1) -> Path:
    """A temp copy of ``conformance.json`` cut down to one block on one
    machine (``backends``: all four by default) plus ``policy_cases``
    policy cases of the same block."""
    corpus = json.loads(cc.GOLDEN.read_text())
    suites = {suite["name"]: suite for suite in corpus["suites"]}
    bench = dict(suites["bench"], blocks=[SAMPLE_BLOCK], machines=[SAMPLE_MACHINE])
    if backends is not None:
        bench["backends"] = [b for b in bench["backends"] if b["name"] in backends]
    policy = suites[f"policy {SAMPLE_BLOCK}"]
    corpus["suites"] = [bench, dict(policy, backends=policy["backends"][:policy_cases])]
    declared = {case.key for case in cc.declared_cases(corpus)}
    corpus["cases"] = [g for g in corpus["cases"] if cc.Case.of(g).key in declared]
    assert len(corpus["cases"]) == len(declared)
    path = tmp_path / "conformance.json"
    path.write_text(cc.dump_corpus(corpus))
    return path


def run_gate(path: Path, capsys) -> tuple:
    status = cc.main([], golden=path)
    return status, capsys.readouterr().out


def test_sample_passes_every_mode(tmp_path, capsys):
    status, out = run_gate(write_sample(tmp_path), capsys)
    assert status == 0, out
    assert "[conformance] ok: 5 cases" in out


def test_doctored_digest_fails_and_names_the_case(tmp_path, capsys):
    path = write_sample(tmp_path, backends=("cars", "list"), policy_cases=0)
    corpus = json.loads(path.read_text())
    doctored = corpus["cases"][1]
    doctored["digest"] = "0" * 64
    path.write_text(cc.dump_corpus(corpus))
    status, out = run_gate(path, capsys)
    assert status == 1
    label = cc.Case.of(doctored).label
    assert f"FAIL direct: {label}: got digest" in out
    assert "golden digest 000000000000" in out


def test_update_says_whether_the_schedule_changed(tmp_path, capsys):
    path = write_sample(tmp_path, backends=("cars", "list"), policy_cases=0)
    corpus = json.loads(path.read_text())
    work_only, rescheduled = corpus["cases"]
    work_only["dp_work"] += 1
    rescheduled["digest"] = rescheduled["schedule"] = "0" * 64
    rescheduled["awct"] *= 2
    rescheduled["fallback"] = True
    path.write_text(cc.dump_corpus(corpus))
    status = cc.main(["--update"], golden=path)
    out = capsys.readouterr().out
    assert status == 0, out
    assert f"changed: {cc.Case.of(work_only).label}: schedule unchanged" in out
    assert f"changed: {cc.Case.of(rescheduled).label}: schedule changed" in out
    assert "1 schedule changed, 1 schedule unchanged" in out
    # The per-suite summary: the doctored case got better and stopped
    # falling back; the geometric mean is over both cases.
    assert (
        "suite bench: 2 cases, awct 1 better, 0 worse, fallbacks 1 -> 0, "
        "awct geomean new/old 0.7071" in out
    )
    assert run_gate(path, capsys)[0] == 0


def test_removed_golden_case_fails_and_names_the_case(tmp_path, capsys):
    path = write_sample(tmp_path, backends=("cars", "list"), policy_cases=0)
    corpus = json.loads(path.read_text())
    removed = corpus["cases"].pop(0)
    path.write_text(cc.dump_corpus(corpus))
    status, out = run_gate(path, capsys)
    assert status == 1
    label = cc.Case.of(removed).label
    assert f"FAIL missing case: {label} has no golden entry" in out


def test_extra_golden_case_fails_and_names_the_case(tmp_path, capsys):
    path = write_sample(tmp_path, backends=("cars", "list"), policy_cases=0)
    corpus = json.loads(path.read_text())
    extra = dict(corpus["cases"][0], machine="4clust 1b 2lat")
    corpus["cases"].append(extra)
    path.write_text(cc.dump_corpus(corpus))
    status, out = run_gate(path, capsys)
    assert status == 1
    assert f"FAIL extra case: {SAMPLE_BLOCK} @ 4clust 1b 2lat : cars is not declared" in out


def test_gate_never_reads_the_user_cache(tmp_path, capsys, monkeypatch):
    path = write_sample(tmp_path, backends=("vcs",), policy_cases=0)
    corpus = json.loads(path.read_text())
    (golden,) = corpus["cases"]
    block = cc.build_block(SAMPLE_BLOCK, corpus["blocks"][SAMPLE_BLOCK])
    machine = cc.machine_by_name(SAMPLE_MACHINE)

    # Poison the user cache: a CARS schedule under the vcs case's real key.
    user_cache = tmp_path / "user-cache"
    key = schedule_cache_key(block, machine, golden["backend"], salt=CODE_SALT)
    wrong = create("cars").schedule(block, machine)
    ResultCache(user_cache).put(key, wrong)
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(user_cache))

    # Code that follows the environment is served the poisoned entry...
    batch = schedule_many(
        [ScheduleRequest(block=block, machine=machine, backend="vcs")],
        runner=BatchScheduler(jobs=1),
    )
    assert batch.cache_outcomes == ["hit"]
    assert cc.outcome(batch.values[0])["digest"] != golden["digest"]

    # ...but the gate computes every mode and still reports the golden digest.
    status, out = run_gate(path, capsys)
    assert status == 0, out
    assert "[conformance] ok: 1 cases match" in out


def test_every_block_ref_rebuilds_by_name():
    corpus = json.loads(cc.GOLDEN.read_text())
    for ref, recipe in corpus["blocks"].items():
        assert cc.build_block(ref, recipe).name == ref

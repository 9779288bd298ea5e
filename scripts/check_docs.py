#!/usr/bin/env python
"""Docs gate: executable code fences + generated tuning-table sync.

Two checks keep ``docs/`` from rotting:

1. **Code fences execute.**  Every ```python fence in ``README.md`` and
   ``docs/*.md`` is run in a subprocess (``PYTHONPATH=src``, cwd = repo
   root) and must exit 0.  A fence preceded immediately by
   ``<!-- check_docs: no-run -->`` is skipped (for illustrative
   pseudo-code).  Bash fences are never executed.

2. **The tuning table is generated, not hand-maintained.**  The knob
   table in ``docs/tuning.md`` between the ``BEGIN/END GENERATED``
   markers is produced by this script from ``dataclasses.fields(VcsConfig)``
   plus the ``KNOB_NOTES`` dict below, and — for the process-level
   ``REPRO_*`` environment knobs — from the typed
   :data:`repro.config.ENV_KNOBS` registry (the same source
   ``RuntimeConfig.load`` parses from, so the table can't drift from the
   loader).  ``--write`` regenerates it in place; without ``--write``
   the script diffs and fails on mismatch.  A ``VcsConfig`` field
   missing from ``KNOB_NOTES`` is an error (new knobs must be
   documented to land), as is a stale ``KNOB_NOTES`` entry or a
   ``REPRO_*`` token in the source tree that the table does not cover.

Run from the repo root::

    PYTHONPATH=src python scripts/check_docs.py          # check (CI)
    PYTHONPATH=src python scripts/check_docs.py --write  # regenerate table
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.config import ENV_KNOBS  # noqa: E402
from repro.scheduler.vcs import VcsConfig  # noqa: E402

TUNING_MD = REPO / "docs" / "tuning.md"
BEGIN_MARK = "<!-- BEGIN GENERATED: knob-table (scripts/check_docs.py --write) -->"
END_MARK = "<!-- END GENERATED: knob-table -->"
NO_RUN_MARK = "<!-- check_docs: no-run -->"
FENCE_TIMEOUT_S = 240

# Per-VcsConfig-field documentation: (byte-identity impact, when to flip).
# The field name, its default and the REPRO_VCS_<FIELD> env override are
# derived from the dataclass; only the prose lives here.  A field absent
# from this dict fails the docs gate — document new knobs to land them.
KNOB_NOTES = {
    "work_budget": (
        "identical until the budget binds (then CARS fallback)",
        "bound compile effort deterministically (deduction rule firings)",
    ),
    "time_limit": (
        "wall-clock dependent — never use where digests are compared",
        "bound compile effort by wall time instead of dp_work",
    ),
    "max_awct_steps": (
        "identical unless the cap binds",
        "cap the AWCT-target enumeration from minAWCT upward",
    ),
    "stage1_slack_limit": (
        "behaviour-changing",
        "let stage 1 also study non-forced pairs up to this combination slack",
    ),
    "stage1_max_decisions": (
        "behaviour-changing when it binds",
        "cap stage-1 decisions per AWCT target",
    ),
    "cycle_candidates": (
        "behaviour-changing",
        "widen/narrow the cycle windows probed per operation in stages 2 and 6",
    ),
    "enable_plc": (
        "behaviour-changing (paper ablation A1)",
        "disable the partially-linked-communication rules",
    ),
    "eager_mapping": (
        "behaviour-changing (paper ablation A2)",
        "map virtual clusters right after stage 1 instead of at the end",
    ),
    "use_matching": (
        "behaviour-changing (paper ablation A3)",
        "replace max-weight matching in stage 3 with one-pair-at-a-time",
    ),
    "fallback_to_cars": (
        "identical until exhaustion (then a schedule-less result)",
        "turn off the CARS fallback to observe raw budget failures",
    ),
    "use_trail": (
        "byte-identical by construction (gated in CI)",
        "force copy-per-probe mode: the determinism oracle and perf baseline",
    ),
    "stage_order": (
        "behaviour-changing",
        "reorder the decision stages (names from ``available_stages()``)",
    ),
    "cycle_hints": (
        "behaviour-changing",
        "bias stage-2 cycle windows (the hybrid backend seeds these from CARS)",
    ),
    "probe_early_cut": (
        "same winner, fewer probes — opt-in dp_work change",
        "stop a cycle-pinning round once no candidate can beat the leader",
    ),
    "policy": (
        "``None`` byte-identical; a policy adds fingerprint provenance "
        "and degrades gracefully on exhaustion",
        "anytime scheduling: spend limits, status tiers, ``finalize_partial``, "
        "leftover-budget refinement (see docs/tuning.md below)",
    ),
}

# The process-level REPRO_* environment knobs are NOT listed here: they
# live in the typed ``repro.config.ENV_KNOBS`` registry (one source for
# the loader, this table and the service defaults).


def derived_env(field_name: str) -> str:
    return "REPRO_VCS_" + field_name.upper()


def format_default(value: object) -> str:
    if value is None:
        return "`None`"
    if isinstance(value, str):
        return f'`"{value}"`'
    return f"`{value}`"


def generate_table() -> tuple[str, list[str]]:
    """The knob table markdown and any coverage errors."""
    errors: list[str] = []
    fields = list(dataclasses.fields(VcsConfig))
    field_names = {f.name for f in fields}
    for name in field_names - set(KNOB_NOTES):
        errors.append(
            f"VcsConfig.{name} is undocumented — add it to KNOB_NOTES in "
            "scripts/check_docs.py and run --write"
        )
    for name in set(KNOB_NOTES) - field_names:
        errors.append(
            f"KNOB_NOTES documents a VcsConfig field {name!r} that no longer "
            "exists — remove it and run --write"
        )

    lines = [
        "| Knob | Env override | Default | Byte-identity | What it does / when to flip |",
        "| --- | --- | --- | --- | --- |",
    ]
    for f in fields:
        if f.name not in KNOB_NOTES:
            continue
        identity, note = KNOB_NOTES[f.name]
        lines.append(
            f"| `VcsConfig.{f.name}` | `{derived_env(f.name)}` "
            f"| {format_default(f.default)} | {identity} | {note} |"
        )
    for knob in ENV_KNOBS:
        lines.append(
            f"| — | `{knob.env}` | {knob.default_text} | {knob.identity} | {knob.note} |"
        )
    return "\n".join(lines), errors


ENV_TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")

# Knobs that were deleted.  Tests spell them to check that a stale setting
# is rejected rather than ignored; anywhere but tests and this list they
# are an error.
REMOVED_KNOBS = {"REPRO_VCS_PROBE_CACHE"}


def check_env_coverage(errors: list[str]) -> None:
    """Every REPRO_* token in the tree must be covered by the table."""
    known = {derived_env(f.name) for f in dataclasses.fields(VcsConfig)}
    known |= {knob.env for knob in ENV_KNOBS}
    known.add("REPRO_VCS_")  # the bare prefix constant in registry.py
    # Doc-prose mentions of knob *groups* ("REPRO_SERVICE_*"), not knobs.
    known.update({"REPRO_BENCH_", "REPRO_SERVICE_"})
    found: set[str] = set()
    for root in ("src", "scripts", "benchmarks", "tests", ".github"):
        base = REPO / root
        if not base.exists():
            continue
        for path in base.rglob("*"):
            if path.suffix not in {".py", ".yml", ".yaml"}:
                continue
            tokens = set(ENV_TOKEN.findall(path.read_text(encoding="utf-8")))
            if root == "tests" or path.resolve() == Path(__file__).resolve():
                tokens -= REMOVED_KNOBS
            found |= tokens
    # Generic doc mentions of the override *pattern* are not knobs.
    found -= {"REPRO_VCS_FIELD"}
    for token in sorted(found - known):
        errors.append(
            f"{token} appears in the source tree but is not covered by the "
            "tuning table (KNOB_NOTES / ENV_KNOBS in scripts/check_docs.py)"
        )


def check_table(write: bool, errors: list[str]) -> None:
    table, coverage_errors = generate_table()
    errors.extend(coverage_errors)
    if not TUNING_MD.exists():
        errors.append(f"{TUNING_MD.relative_to(REPO)} does not exist")
        return
    text = TUNING_MD.read_text(encoding="utf-8")
    if BEGIN_MARK not in text or END_MARK not in text:
        errors.append(
            f"{TUNING_MD.relative_to(REPO)} is missing the generated-table "
            f"markers ({BEGIN_MARK!r} ... {END_MARK!r})"
        )
        return
    head, rest = text.split(BEGIN_MARK, 1)
    current, tail = rest.split(END_MARK, 1)
    wanted = f"\n{table}\n"
    if current == wanted:
        print("[docs] tuning table in sync with VcsConfig")
        return
    if write:
        TUNING_MD.write_text(
            head + BEGIN_MARK + wanted + END_MARK + tail, encoding="utf-8"
        )
        print(f"[docs] rewrote the knob table in {TUNING_MD.relative_to(REPO)}")
    else:
        errors.append(
            "docs/tuning.md knob table is out of sync with VcsConfig — run "
            "`PYTHONPATH=src python scripts/check_docs.py --write` and commit"
        )


FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def iter_fences(path: Path):
    """Yield (line_number, code, runnable) for each ```python fence."""
    text = path.read_text(encoding="utf-8")
    for match in FENCE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        prefix = text[: match.start()].rstrip().rsplit("\n", 1)[-1]
        yield line, match.group(1), prefix.strip() != NO_RUN_MARK


def run_fences(errors: list[str]) -> None:
    docs = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    ran = skipped = 0
    for doc in docs:
        if not doc.exists():
            continue
        for line, code, runnable in iter_fences(doc):
            where = f"{doc.relative_to(REPO)}:{line}"
            if not runnable:
                skipped += 1
                continue
            with tempfile.NamedTemporaryFile(
                "w", suffix=".py", delete=False
            ) as handle:
                handle.write(code)
                snippet = handle.name
            try:
                proc = subprocess.run(
                    [sys.executable, snippet],
                    cwd=REPO,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=FENCE_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                errors.append(f"{where}: python fence timed out ({FENCE_TIMEOUT_S}s)")
                continue
            finally:
                os.unlink(snippet)
            ran += 1
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-6:]
                errors.append(
                    f"{where}: python fence exited {proc.returncode}:\n    "
                    + "\n    ".join(tail)
                )
    print(f"[docs] executed {ran} python fences ({skipped} marked no-run)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate the docs/tuning.md knob table instead of diffing it",
    )
    parser.add_argument(
        "--no-fences",
        action="store_true",
        help="skip executing code fences (table checks only)",
    )
    args = parser.parse_args()

    errors: list[str] = []
    check_table(args.write, errors)
    check_env_coverage(errors)
    if not args.no_fences:
        run_fences(errors)

    for error in errors:
        print(f"[docs] ERROR {error}", file=sys.stderr)
    if errors:
        print(f"[docs] FAIL ({len(errors)} error(s))", file=sys.stderr)
        return 1
    print("[docs] ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

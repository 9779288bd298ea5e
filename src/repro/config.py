"""One typed loader for every ``REPRO_*`` environment knob.

Historically each layer parsed its own environment variables —
``resolve_jobs`` read ``REPRO_JOBS`` in :mod:`repro.runner.batch`,
``cache_enabled`` read ``REPRO_CACHE`` in :mod:`repro.runner.cache`, the
pool read ``REPRO_POOL``, the benchmark conftest read
``REPRO_BENCH_*`` — which made the precedence between explicit
arguments and ambient environment a per-call-site convention.  This
module is the single source of truth:

* :data:`ENV_KNOBS` — the registry of every non-``VcsConfig`` knob
  (name, default, parser, byte-identity impact, description).  The
  generated knob table in ``docs/tuning.md`` is produced from it by
  ``scripts/check_docs.py``, so a knob cannot exist without being
  documented.
* :class:`RuntimeConfig` — a frozen snapshot of every knob, built by
  :meth:`RuntimeConfig.load` under one precedence rule: **explicit
  argument > environment variable > default**.  Loading never mutates
  the environment.
* Per-knob parse helpers (:func:`parse_jobs`, :func:`parse_cache`, …)
  that the legacy accessors (``resolve_jobs``, ``cache_enabled``,
  ``pool_reuse_enabled``, ``CacheSpec.from_env``) now delegate to, so
  the parse rules cannot drift between layers.

The module is deliberately stdlib-only (no ``repro`` imports): every
layer of the package, including the worker-pool initializer, can import
it without cycles.  ``VcsConfig`` fields keep their own
``REPRO_VCS_<FIELD>`` override path in :mod:`repro.scheduler.registry`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

# --------------------------------------------------------------------------- #
# per-knob parse rules
# --------------------------------------------------------------------------- #


def parse_jobs(value: object) -> int:
    """Parse a worker count: positive integer or ``"auto"`` (CPU count).

    The rule behind :func:`repro.runner.batch.resolve_jobs` — zero,
    negative and boolean counts are rejected with :class:`ValueError`.
    """
    jobs = value
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"invalid job count {value!r}: expected a positive integer or 'auto'"
            ) from None
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs <= 0:
        raise ValueError(f"invalid job count {value!r}: expected a positive integer or 'auto'")
    return jobs


def parse_scheduler(value: object) -> str:
    """Parse a default backend name; empty selects ``"vcs"``."""
    return str(value).strip() or "vcs"


def parse_cache(value: object) -> bool:
    """``REPRO_CACHE`` rule: anything but ``off``/``0``/``false``/``no`` is on."""
    return str(value).strip().lower() not in ("off", "0", "false", "no")


def parse_cache_dir(value: object) -> str:
    """``REPRO_CACHE_DIR`` rule: stripped path, empty means ``~/.cache/repro``."""
    text = str(value).strip()
    return text if text else str(Path.home() / ".cache" / "repro")


def parse_pool(value: object) -> bool:
    """``REPRO_POOL`` rule: anything but ``fresh``/``off``/``0``/``false``
    keeps the shared persistent pool."""
    return str(value).strip().lower() not in ("fresh", "off", "0", "false")


def parse_optional_int(name: str) -> Callable[[object], Optional[int]]:
    def parse(value: object) -> Optional[int]:
        if value is None:
            return None
        text = str(value).strip()
        if not text:
            return None
        try:
            parsed = int(text)
        except ValueError:
            raise ValueError(f"invalid {name} {value!r}: expected an integer") from None
        return parsed

    return parse


def parse_optional_float(name: str) -> Callable[[object], Optional[float]]:
    def parse(value: object) -> Optional[float]:
        if value is None:
            return None
        text = str(value).strip()
        if not text:
            return None
        try:
            parsed = float(text)
        except ValueError:
            raise ValueError(f"invalid {name} {value!r}: expected a number") from None
        if parsed <= 0:
            raise ValueError(f"invalid {name} {value!r}: expected a positive number")
        return parsed

    return parse


def parse_int(name: str) -> Callable[[object], int]:
    def parse(value: object) -> int:
        try:
            return int(str(value).strip())
        except ValueError:
            raise ValueError(f"invalid {name} {value!r}: expected an integer") from None

    return parse


def parse_host(value: object) -> str:
    return str(value).strip() or "127.0.0.1"


# --------------------------------------------------------------------------- #
# the knob registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class EnvKnob:
    """One documented environment knob: where it lives, how it parses,
    and the two prose columns of the generated tuning table."""

    #: ``RuntimeConfig`` attribute the knob populates.
    attr: str
    #: Environment variable name.
    env: str
    #: Raw default fed to :attr:`parse` when the variable is unset.
    default: object
    #: Parser from raw (string or explicit) value to the typed value.
    parse: Callable[[object], object]
    #: Human-readable default shown in the docs table.
    default_text: str
    #: Byte-identity impact column of the docs table.
    identity: str
    #: Description column of the docs table.
    note: str


#: Every non-``VcsConfig`` environment knob, in docs-table order.  The
#: ``docs/tuning.md`` env rows are generated from this tuple.
ENV_KNOBS: Tuple[EnvKnob, ...] = (
    EnvKnob(
        attr="jobs",
        env="REPRO_JOBS",
        default="1",
        parse=parse_jobs,
        default_text="1",
        identity="byte-identical for any value (the conformance gate checks 1 and 2 workers)",
        note="worker-process count for the benchmark harness and batch runner",
    ),
    EnvKnob(
        attr="scheduler",
        env="REPRO_SCHEDULER",
        default="vcs",
        parse=parse_scheduler,
        default_text="vcs",
        identity="selects the backend — results differ across backends by design",
        note="default backend for repro suite and the harness (vcs/cars/list/hybrid)",
    ),
    EnvKnob(
        attr="bench_blocks",
        env="REPRO_BENCH_BLOCKS",
        default=None,
        parse=parse_optional_int("REPRO_BENCH_BLOCKS"),
        default_text="unset (full workload)",
        identity="changes the workload, not determinism",
        note="cap synthetic blocks per suite — CI uses 1 for the hot-path micro-benchmarks",
    ),
    EnvKnob(
        attr="bench_budget",
        env="REPRO_BENCH_BUDGET",
        default="60000",
        parse=parse_int("REPRO_BENCH_BUDGET"),
        default_text="60000",
        identity="changes the benchmark work budget, not determinism",
        note='the "4-minute-equivalent" dp_work budget of the pytest benchmark harness',
    ),
    EnvKnob(
        attr="cache",
        env="REPRO_CACHE",
        default="on",
        parse=parse_cache,
        default_text="on",
        identity="byte-identical — hits replay stored results keyed by content",
        note="`off` disables the on-disk result cache (same as repro suite --no-cache)",
    ),
    EnvKnob(
        attr="cache_dir",
        env="REPRO_CACHE_DIR",
        default="",
        parse=parse_cache_dir,
        default_text="~/.cache/repro",
        identity="byte-identical — relocates the store, never the results",
        note="result-cache directory (repro suite --cache-dir overrides per run)",
    ),
    EnvKnob(
        attr="pool",
        env="REPRO_POOL",
        default="persistent",
        parse=parse_pool,
        default_text="persistent",
        identity="byte-identical — reuse only changes wall time",
        note="`fresh`/`off` restores an executor per batch instead of the shared "
        "persistent worker pool",
    ),
    EnvKnob(
        attr="service_host",
        env="REPRO_SERVICE_HOST",
        default="127.0.0.1",
        parse=parse_host,
        default_text="127.0.0.1",
        identity="byte-identical — transport only",
        note="bind address of `repro serve` (the asyncio job server)",
    ),
    EnvKnob(
        attr="service_port",
        env="REPRO_SERVICE_PORT",
        default="0",
        parse=parse_int("REPRO_SERVICE_PORT"),
        default_text="0 (ephemeral)",
        identity="byte-identical — transport only",
        note="TCP port of `repro serve`; 0 asks the OS for a free port",
    ),
    EnvKnob(
        attr="service_timeout",
        env="REPRO_SERVICE_TIMEOUT",
        default=None,
        parse=parse_optional_float("REPRO_SERVICE_TIMEOUT"),
        default_text="unset (no deadline)",
        identity="wall-clock dependent — a fired timeout fails the job",
        note="per-job wall-clock deadline (seconds) enforced by the job server",
    ),
)

_KNOBS_BY_ATTR: Dict[str, EnvKnob] = {knob.attr: knob for knob in ENV_KNOBS}


def env_knob(attr: str) -> EnvKnob:
    """The registered knob populating ``RuntimeConfig.<attr>``."""
    return _KNOBS_BY_ATTR[attr]


# --------------------------------------------------------------------------- #
# the typed snapshot
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RuntimeConfig:
    """A frozen snapshot of every environment knob, typed and parsed.

    Build one with :meth:`load`; field defaults here only describe the
    fully-default environment (they are re-derived through the same
    parsers on load, so the two cannot disagree).
    """

    jobs: int = 1
    scheduler: str = "vcs"
    bench_blocks: Optional[int] = None
    bench_budget: int = 60_000
    cache: bool = True
    cache_dir: str = ""
    pool: bool = True
    service_host: str = "127.0.0.1"
    service_port: int = 0
    service_timeout: Optional[float] = None

    @classmethod
    def load(cls, env: Optional[Mapping[str, str]] = None, **overrides: object) -> "RuntimeConfig":
        """Load every knob under the rule *explicit arg > env > default*.

        ``env`` defaults to ``os.environ``; keyword overrides name
        :class:`RuntimeConfig` fields and win over the environment.  An
        override of ``None`` means "no override" (fall through to the
        environment), matching the convention of ``resolve_jobs(None)``.
        """
        source: Mapping[str, str] = os.environ if env is None else env
        unknown = set(overrides) - set(_KNOBS_BY_ATTR)
        if unknown:
            raise TypeError(f"unknown RuntimeConfig field(s): {sorted(unknown)}")
        values: Dict[str, object] = {}
        for knob in ENV_KNOBS:
            raw = overrides.get(knob.attr)
            if raw is None:
                raw = source.get(knob.env, knob.default)
            values[knob.attr] = knob.parse(raw) if raw is not None else None
        return cls(**values)

    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot (report metadata)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

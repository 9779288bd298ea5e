"""The scheduler-backend registry: named, composable scheduler backends.

A *backend* is anything with a ``name`` and a
``schedule(block, machine) -> ScheduleResult`` method
(:class:`SchedulerBackend`).  The registry maps stable names to backend
factories so every layer above the schedulers — the runner's job type
:class:`~repro.api.ScheduleRequest`, the experiment drivers, the
benchmarks and the ``repro suite`` CLI — selects schedulers by name
instead of hard-coding classes, and new backends (alternative
heuristics, backend-vs-backend experiments) plug in without
touching the hot path.

Built-in backends:

* ``"vcs"`` — the paper's technique
  (:class:`~repro.scheduler.vcs.VirtualClusterScheduler`), composed with
  the ``"cars"`` backend as its budget-exhaustion fallback;
* ``"cars"`` — the CARS baseline (unified assign-and-schedule list
  scheduling);
* ``"list"`` — a plain list scheduler with naive cluster assignment.

Configuration travels as a picklable :class:`BackendSpec` (backend name
+ :class:`~repro.scheduler.vcs.VcsConfig` + backend-specific options)
with ``from_dict``/``to_dict`` round-tripping and environment overrides,
so heterogeneous-backend batches shard across worker processes like any
other job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.cars import CarsScheduler
from repro.scheduler.list_scheduler import ListScheduler
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig, VirtualClusterScheduler

#: Environment variables of :meth:`BackendSpec.from_env`.
SCHEDULER_ENV_VAR = "REPRO_SCHEDULER"
VCS_ENV_PREFIX = "REPRO_VCS_"


class SchedulerBackend(Protocol):
    """What the runner, experiments and CLI require of a scheduler."""

    name: str

    def schedule(self, block: Superblock, machine: ClusteredMachine) -> ScheduleResult:
        ...


class UnknownBackendError(ValueError):
    """A backend name that is not registered."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown scheduler backend {name!r}; registered: {', '.join(available_backends())}"
        )
        self.name = name


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    factory: Callable[..., SchedulerBackend]
    description: str = ""
    #: Whether the backend's factory accepts a ``vcs_config`` argument
    #: (the experiment drivers only thread the VCS knobs into backends
    #: that consume them).
    uses_vcs_config: bool = False


_REGISTRY: Dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    factory: Callable[..., SchedulerBackend],
    description: str = "",
    uses_vcs_config: bool = False,
) -> None:
    """Register (or replace) a backend factory under *name*.

    The factory is called as ``factory(vcs_config=..., **options)`` when
    ``uses_vcs_config`` is set and ``factory(**options)`` otherwise.

    For a custom backend to run inside the parallel runner's worker
    processes, register it at import time of a module the workers also
    import (jobs carry backend *names*; each worker re-creates the
    backend from its own registry — the same module-level requirement
    multiprocessing puts on the worker function itself).  A backend
    registered only in an interactive ``__main__`` works serially and
    under fork, but not under a spawn context."""
    _REGISTRY[name] = BackendInfo(
        name=name, factory=factory, description=description, uses_vcs_config=uses_vcs_config
    )


def available_backends() -> List[str]:
    """The registered backend names, in registration order."""
    return list(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name) from None


def create(
    name: str, vcs_config: Optional[VcsConfig] = None, **options: Any
) -> SchedulerBackend:
    """Instantiate the backend registered under *name*.

    ``vcs_config`` is forwarded only to backends that consume it, so
    callers can thread one config through a heterogeneous backend list."""
    info = backend_info(name)
    if info.uses_vcs_config:
        return info.factory(vcs_config=vcs_config, **options)
    return info.factory(**options)


# --------------------------------------------------------------------------- #
# the picklable backend spec (the unified config layer)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendSpec:
    """A fully-serialisable description of one scheduler backend.

    ``name`` selects the registry entry, ``vcs`` carries the
    :class:`VcsConfig` for VCS-derived backends, and ``options`` holds
    backend-specific constructor keywords as a sorted tuple of pairs (so
    the spec stays hashable and picklable).  Round-trips through
    :meth:`to_dict` / :meth:`from_dict`; :meth:`from_env` applies
    ``REPRO_SCHEDULER`` and ``REPRO_VCS_<FIELD>`` overrides."""

    name: str = "vcs"
    vcs: Optional[VcsConfig] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in _REGISTRY:
            raise UnknownBackendError(self.name)

    def create(self) -> SchedulerBackend:
        """Instantiate the described backend."""
        return create(self.name, vcs_config=self.vcs, **dict(self.options))

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.vcs is not None:
            out["vcs"] = self.vcs.to_dict()
        if self.options:
            out["options"] = dict(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendSpec":
        unknown = set(data) - {"name", "vcs", "options"}
        if unknown:
            raise ValueError(
                f"unknown BackendSpec keys {sorted(unknown)}; known: ['name', 'options', 'vcs']"
            )
        vcs = data.get("vcs")
        if isinstance(vcs, Mapping):
            vcs = VcsConfig.from_dict(vcs)
        options = data.get("options") or {}
        return cls(
            name=data.get("name", "vcs"),
            vcs=vcs,
            options=tuple(sorted(options.items())),
        )

    @classmethod
    def from_env(
        cls, base: Optional["BackendSpec"] = None, env: Optional[Mapping[str, str]] = None
    ) -> "BackendSpec":
        """Apply environment overrides on top of *base*.

        ``REPRO_SCHEDULER`` selects the backend name;
        ``REPRO_VCS_<FIELD>`` (e.g. ``REPRO_VCS_WORK_BUDGET=20000``,
        ``REPRO_VCS_ENABLE_PLC=0``) overrides individual
        :class:`VcsConfig` fields."""
        spec = base or cls()
        env = os.environ if env is None else env
        name = env.get(SCHEDULER_ENV_VAR)
        if name:
            spec = replace(spec, name=name)
        prefix_len = len(VCS_ENV_PREFIX)
        vcs_overrides = {
            key[prefix_len:].lower(): value
            for key, value in env.items()
            if key.startswith(VCS_ENV_PREFIX)
        }
        if vcs_overrides:
            merged = (spec.vcs or VcsConfig()).to_dict()
            merged.update(vcs_overrides)
            spec = replace(spec, vcs=VcsConfig.from_dict(merged))
        return spec


def _make_vcs(vcs_config: Optional[VcsConfig] = None, **options: Any) -> VirtualClusterScheduler:
    # The paper's budget-exhaustion fallback, expressed as composition:
    # the "vcs" backend embeds the "cars" backend rather than hard-wiring
    # the class inside the scheduler.
    options.setdefault("fallback", create("cars"))
    return VirtualClusterScheduler(vcs_config, **options)


register_backend(
    "cars",
    CarsScheduler,
    description="CARS baseline: unified assign-and-schedule list scheduling",
)
register_backend(
    "vcs",
    _make_vcs,
    description="the paper's virtual cluster scheduling (CARS fallback composed in)",
    uses_vcs_config=True,
)
register_backend(
    "list",
    ListScheduler,
    description="plain list scheduler with naive cluster assignment",
)

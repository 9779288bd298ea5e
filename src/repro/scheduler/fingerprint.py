"""Content digests of scheduling-job inputs: the result-cache key material.

A :class:`~repro.scheduler.schedule.ScheduleResult` is a pure function of
three inputs — the superblock, the machine and the backend configuration
— plus the code that interprets them.  This module canonicalises each
input into a JSON-stable structure and hashes it, so the disk-backed
result cache (:mod:`repro.runner.cache`) can key stored results by
*content* rather than by object identity or name:

* :func:`block_digest` — operations (id, opcode, class, latency,
  registers, exit probability, speculation) plus dependence edges,
  execution count and live-in/out sets, prefixed by the block name (two
  identically-named blocks with different bodies never collide, and two
  identical bodies under different names stay distinct because the name
  is part of every :meth:`Schedule.fingerprint`).
* :func:`machine_digest` — the declarative
  :class:`~repro.machine.spec.MachineSpec` dict of the machine (clusters,
  functional-unit mixes, interconnect topology/latency/channels,
  register-file limits).  Also the key under which warm pool workers
  intern reconstructed machines (:mod:`repro.runner.pool`).
* :func:`spec_digest` / :func:`schedule_cache_key` — the
  :class:`~repro.scheduler.registry.BackendSpec` dict (backend name,
  full ``VcsConfig`` including any budget policy, backend options)
  folded together with the block and machine digests and a
  code-version salt into the final cache key.

The salt (:data:`CODE_SALT`) names the behaviour revision of the
scheduler: bump it whenever a change legitimately moves ``dp_work`` or
schedule digests, and every previously cached result is invalidated at
once (old entries simply live under a different prefix).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.spec import MachineSpec

#: Code-version salt of the cached-result format: the scheduler behaviour
#: revision.  Bump on any change that moves dp_work or schedule digests
#: (the same changes that need ``check_conformance.py --update``) so
#: stale cache entries can never masquerade as fresh results.
CODE_SALT = "2026.10-structural-stop"


def canonical_json(payload: object) -> str:
    """The canonical JSON text of *payload* (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def block_fingerprint(block: Superblock) -> list:
    """A JSON-stable structural description of one superblock."""
    ops = [
        [
            op.op_id,
            op.opcode,
            op.op_class.value,
            op.latency,
            list(op.dests),
            list(op.srcs),
            op.is_exit,
            op.exit_prob,
            op.speculative,
        ]
        for op in block.operations
    ]
    edges = sorted(
        [edge.src, edge.dst, edge.kind.value, edge.latency, edge.value or ""]
        for edge in block.graph.edges()
    )
    return [
        block.name,
        ops,
        edges,
        block.execution_count,
        sorted(block.live_ins),
        sorted(block.live_outs),
    ]


def block_digest(block: Superblock) -> str:
    """SHA-256 digest of :func:`block_fingerprint`."""
    return _sha256(block_fingerprint(block))


def machine_fingerprint(machine: ClusteredMachine) -> dict:
    """The declarative spec dict describing *machine* (JSON-stable)."""
    return MachineSpec.from_machine(machine).to_dict()


def machine_digest(machine: ClusteredMachine) -> str:
    """SHA-256 digest of the machine's declarative spec."""
    return _sha256(machine_fingerprint(machine))


def spec_digest(spec_dict: Mapping) -> str:
    """SHA-256 digest of a backend-spec dict (``BackendSpec.to_dict()``)."""
    return _sha256(spec_dict)


def schedule_cache_key(
    block: Superblock,
    machine: ClusteredMachine,
    spec_dict: Mapping,
    salt: str = CODE_SALT,
    extra: Optional[Mapping] = None,
) -> str:
    """The content-addressed cache key of one scheduling job.

    Folds the block digest, the machine digest, the backend-spec dict and
    the code-version *salt* (plus any *extra* caller-provided coordinates)
    into one SHA-256 hex key.  Everything a
    :class:`~repro.scheduler.schedule.ScheduleResult` depends on is in the
    key; nothing host- or wall-clock-dependent is.
    """
    payload = {
        "salt": salt,
        "block": block_digest(block),
        "machine": machine_digest(machine),
        "backend": dict(spec_dict),
    }
    if extra:
        payload["extra"] = dict(extra)
    return _sha256(payload)

"""Content digests of scheduling-job inputs: the result-cache key material.

A :class:`~repro.scheduler.schedule.ScheduleResult` is a pure function of
three inputs — the superblock, the machine and the backend configuration
— plus the code that interprets them.  This module canonicalises each
input into a JSON-stable structure and hashes it, so the disk-backed
result cache (:mod:`repro.runner.cache`) can key stored results by
*content* rather than by object identity or name:

* :func:`block_digest` — the block's wire form,
  :func:`repro.api.block_to_dict`: name, operations in order (id, opcode,
  class, latency, registers, exit probability, speculation), dependence
  edges in :meth:`~repro.ir.depgraph.DependenceGraph.ordered_edges` order,
  execution count and live-in/out lists.  The edge *order* is part of the
  key on purpose: the deduction engine walks adjacency in insertion
  order, so two blocks that differ only in the order their edges were
  added can schedule with different ``dp_work`` (and different
  schedules): they are different jobs.  The name is in the key because
  it is part of every :meth:`Schedule.fingerprint`.
* :func:`machine_digest` — the declarative
  :class:`~repro.machine.spec.MachineSpec` dict of the machine (clusters,
  functional-unit mixes, interconnect topology/latency/channels,
  register-file limits).  Also the key under which warm pool workers
  intern reconstructed machines (:mod:`repro.runner.pool`).
* :func:`wire_cache_key` — the one definition of the cache key: the
  digests of the block and machine wire forms, the
  :class:`~repro.scheduler.registry.BackendSpec` dict (backend name,
  full ``VcsConfig`` including any budget policy, backend options) and a
  code-version salt.  The job server calls it on a request's parsed
  JSON; :func:`schedule_cache_key` calls it on the wire forms of
  in-memory objects, so both paths give one key for one job.

The salt (:data:`CODE_SALT`) names the behaviour revision of the
scheduler: bump it whenever a change legitimately moves ``dp_work`` or
schedule digests, and every previously cached result is invalidated at
once (old entries simply live under a different prefix).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.spec import MachineSpec

#: Code-version salt of the cached-result format: the scheduler behaviour
#: revision.  Bump on any change that moves dp_work or schedule digests
#: (the same changes that need ``check_conformance.py --update``) so
#: stale cache entries can never masquerade as fresh results.
CODE_SALT = "2026.10-ceiling-retry"


def canonical_json(payload: object) -> str:
    """The canonical JSON text of *payload* (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def fingerprint_digest(fingerprints: Iterable[object]) -> str:
    """A stable hex digest of a sequence of schedule fingerprints.

    ``fingerprint_digest([result.fingerprint()])`` is the per-case digest
    of the conformance corpus (``conformance.json``) and of
    :class:`~repro.api.ScheduleResponse`; over several results it digests
    a whole population (a scenario cell) byte-for-byte without storing
    it.
    """
    return _sha256(list(fingerprints))


def block_digest(block: Superblock) -> str:
    """SHA-256 digest of the block's wire form
    (:func:`repro.api.block_to_dict`)."""
    from repro.api import block_to_dict

    return _sha256(block_to_dict(block))


def machine_fingerprint(machine: ClusteredMachine) -> dict:
    """The declarative spec dict describing *machine* (JSON-stable)."""
    return MachineSpec.from_machine(machine).to_dict()


def machine_digest(machine: ClusteredMachine) -> str:
    """SHA-256 digest of the machine's declarative spec."""
    return _sha256(machine_fingerprint(machine))


def spec_digest(spec_dict: Mapping) -> str:
    """SHA-256 digest of a spec dict: a backend's ``BackendSpec.to_dict()``
    or a machine's :func:`machine_fingerprint`."""
    return _sha256(spec_dict)


def wire_cache_key(
    block: Mapping, machine: Mapping, spec_dict: Mapping, salt: str = CODE_SALT
) -> str:
    """The result-cache key of one job given in wire form.

    *block* is :func:`repro.api.block_to_dict` output, *machine* a
    :meth:`MachineSpec.to_dict` and *spec_dict* a ``BackendSpec.to_dict()``
    — parsed JSON works as it is, so the job server keys a request
    without decoding its block or machine.  The one definition of the
    key: :func:`schedule_cache_key` derives the same wire forms from the
    objects and calls it.
    """
    return _sha256(
        {
            "salt": salt,
            "block": _sha256(block),
            "machine": _sha256(machine),
            "backend": dict(spec_dict),
        }
    )


def schedule_cache_key(
    block: Superblock,
    machine: ClusteredMachine,
    spec_dict: Mapping,
    salt: str = CODE_SALT,
) -> str:
    """The content-addressed cache key of one scheduling job.

    Folds the block's and the machine's wire forms, the backend-spec dict
    and the code-version *salt* into one SHA-256 hex key (see
    :func:`wire_cache_key`).  Everything a
    :class:`~repro.scheduler.schedule.ScheduleResult` depends on is in the
    key; nothing host- or wall-clock-dependent is.
    """
    from repro.api import block_to_dict

    return wire_cache_key(block_to_dict(block), machine_fingerprint(machine), spec_dict, salt)

"""Content-addressed on-disk cache of :class:`ScheduleResult`\\ s.

A scheduling job is a pure function of (block, machine, backend spec)
plus the code revision — :mod:`repro.scheduler.fingerprint` folds those
into one SHA-256 key, and this module maps that key to a stored
:class:`~repro.scheduler.schedule.ScheduleResult` on disk.  A warm suite
re-run therefore recomputes only cells whose inputs (or the code salt)
changed; the gated 12-cell matrix re-runs with zero recomputed cells.

Layout and guarantees:

* Root directory defaults to ``~/.cache/repro``; ``REPRO_CACHE_DIR``
  overrides it and ``REPRO_CACHE=off`` disables the cache entirely.
* Entries live at ``<root>/<salt>/<key[:2]>/<key>.pkl`` — the salt is a
  path component, so bumping :data:`~repro.scheduler.fingerprint.CODE_SALT`
  invalidates every old entry at once without touching the disk.
* An entry is two pickle frames: the result's **head**
  (:meth:`~repro.scheduler.schedule.ScheduleResult.response_head`, the
  fields a :class:`~repro.api.ScheduleResponse` carries: digest,
  fingerprint, ``dp_work``, AWCT, flags, policy summary; about 0.5 KiB),
  then the full ``ScheduleResult``.  :meth:`ResultCache.put` writes
  both; nothing else writes an entry.
* Two readers: :meth:`ResultCache.get` returns the full result (the
  batch runner's warm hits); :meth:`ResultCache.head` unpickles only
  the head, which is all the job server needs to answer a hit, so the
  block, the machine and the schedule are never rebuilt for it.
* Writes are atomic: pickle to a unique temp file in the entry's
  directory, then ``os.replace`` — concurrent workers storing the same
  key cannot interleave partial writes, and a reader sees either the
  complete old entry or the complete new one.
* A corrupt or truncated entry is a miss in both readers (and is
  removed best-effort); the job simply recomputes and stores it anew.
  That includes an entry that ends after its head and one in the older
  single-frame layout (a bare pickled result, no head): such caches
  refill once, without a salt bump.
* :class:`CacheStats` counts hits/misses/stores.  The store keeps no
  counters of its own: the batch layer folds the workers' per-job
  outcome tags into ``BatchResult.cache``, so it reflects what actually
  happened in the pool.

A cache hit is byte-identical to a cold run of the same job: the stored
object is the full ``ScheduleResult`` (schedule, stats, dp_work,
fingerprints), serialized after the cold compute, and its head is
derived from it by the same function that builds a cold response.
That holds only because the key covers everything the scheduler reads,
in the order it reads it.  An earlier key sorted the dependence edges,
which the deduction engine walks in insertion order, so a block and its
edge-reordered twin shared an entry and one of them was served the
other's result; the key now hashes the block's wire form, edge order
included (:mod:`repro.scheduler.fingerprint`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.config import env_knob, parse_cache, parse_cache_dir
from repro.scheduler.fingerprint import CODE_SALT

#: Environment switch: ``REPRO_CACHE=off`` (or ``0``/``false``) disables
#: the result cache entirely.
CACHE_ENV_VAR = env_knob("cache").env
#: Environment override for the cache root directory.
CACHE_DIR_ENV_VAR = env_knob("cache_dir").env


def cache_enabled() -> bool:
    """Whether the result cache is enabled (``REPRO_CACHE``).

    Parse rule shared with :class:`repro.config.RuntimeConfig`.
    """
    return parse_cache(os.environ.get(CACHE_ENV_VAR, "on"))


def default_cache_dir() -> Path:
    """The cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(parse_cache_dir(os.environ.get(CACHE_DIR_ENV_VAR, "")))


@dataclass
class CacheStats:
    """Hit/miss/store counters for one batch or suite run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record(self, outcome: str) -> None:
        """Fold one worker-reported outcome tag into the counters."""
        if outcome == "hit":
            self.hits += 1
        elif outcome == "miss":
            self.misses += 1
            self.stores += 1

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class CacheSpec:
    """A picklable description of the cache a worker should use.

    Shipped inside job payloads so worker processes never consult the
    environment (a persistent pool's workers may have been spawned
    before the environment was mutated).  ``enabled=False`` is the
    explicit "no caching" spec.
    """

    root: str = ""
    salt: str = CODE_SALT
    enabled: bool = True

    @staticmethod
    def from_env(
        cache_dir: Optional[str] = None, enabled: Optional[bool] = None
    ) -> "CacheSpec":
        """The cache spec the current environment asks for, with optional
        explicit overrides (CLI flags win over env)."""
        if enabled is None:
            enabled = cache_enabled()
        root = str(Path(cache_dir) if cache_dir else default_cache_dir())
        return CacheSpec(root=root, salt=CODE_SALT, enabled=enabled)

    @staticmethod
    def disabled() -> "CacheSpec":
        return CacheSpec(root="", salt=CODE_SALT, enabled=False)

    def open(self) -> Optional["ResultCache"]:
        """The :class:`ResultCache` this spec describes, or ``None``."""
        if not self.enabled or not self.root:
            return None
        return ResultCache(Path(self.root), salt=self.salt)


class ResultCache:
    """The on-disk store: key -> response head + pickled ``ScheduleResult``."""

    def __init__(self, root: Path, salt: str = CODE_SALT):
        self.root = Path(root)
        self.salt = salt
        # Entry paths are joined as strings: three pathlib joins cost
        # about 7 µs per lookup, which shows on a ~15 µs head read.
        self._dir = os.path.join(self.root, salt)

    def _path(self, key: str) -> str:
        return f"{self._dir}/{key[:2]}/{key}.pkl"

    def _read(self, key: str, full: bool):
        """The entry's head (``full=False``) or its result, or ``None``.

        A missing entry is a miss.  So is one that cannot be read as a
        head followed by a result — corrupt, truncated after its head, or
        in the old single-result layout — and it is removed best-effort
        so the recompute rewrites it.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                head = pickle.load(handle)
                if not isinstance(head, dict):
                    raise ValueError("entry has no response head")
                if full:
                    value = pickle.load(handle)
                elif not handle.read(1):
                    raise EOFError("entry ends after its response head")
                else:
                    value = head
        except FileNotFoundError:
            return None
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return value

    def get(self, key: str):
        """The cached ``ScheduleResult`` for *key*, or ``None`` on a miss."""
        return self._read(key, full=True)

    def head(self, key: str) -> Optional[dict]:
        """The response head stored for *key*
        (:meth:`~repro.scheduler.schedule.ScheduleResult.response_head`),
        or ``None`` on a miss; the result itself is not unpickled."""
        return self._read(key, full=False)

    def put(self, key: str, result) -> None:
        """Store *result* under *key*, its response head first, atomically
        (tmp file + rename)."""
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result.response_head(), handle, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))


# Worker-local open cache handles, keyed by (root, salt) so one worker
# serving jobs with different cache specs keeps them separate.
_WORKER_CACHES: dict = {}


def worker_cache(spec: CacheSpec) -> Optional[ResultCache]:
    """The worker-process cache for *spec* (interned per worker)."""
    if not spec.enabled or not spec.root:
        return None
    key = (spec.root, spec.salt)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        cache = ResultCache(Path(spec.root), salt=spec.salt)
        _WORKER_CACHES[key] = cache
    return cache

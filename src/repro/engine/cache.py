"""Persistent content-addressed store for compilation results.

Entries live under a two-level fan-out (``<root>/<key[:2]>/<key>.pkl``)
keyed by :meth:`repro.engine.jobs.CompileJob.content_hash`. Each file
is a pickled envelope ``{"schema": ..., "result": CompileResult}``;
the schema check plus the engine version folded into the key itself
mean stale formats simply miss.

Durability rules:

* **atomic writes** — payloads land in a same-directory temp file and
  are ``os.replace``d into place, so readers never observe a torn
  entry and concurrent writers of the same key are last-writer-wins
  with either writer's bytes intact;
* **corruption-tolerant reads** — any failure to read/unpickle an
  entry (truncation, garbage, wrong schema, unpicklable class drift)
  is a cache *miss*, never a crash; the bad file is best-effort
  deleted so it is rebuilt.

``REPRO_CACHE_DIR`` overrides the default location (which is
``$XDG_CACHE_HOME/repro-engine`` when ``XDG_CACHE_HOME`` is set, else
``~/.cache/repro-engine``); ``REPRO_CACHE=off|0|false`` disables the
store (every lookup misses, writes are dropped).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import tempfile

from repro.engine.jobs import ENGINE_SCHEMA_VERSION
from repro.pipeline.driver import CompileResult

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache (``off``/``0``/``false``).
CACHE_SWITCH_ENV = "REPRO_CACHE"

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})


def cache_enabled() -> bool:
    """Whether the persistent cache is on (per ``REPRO_CACHE``)."""
    return os.environ.get(CACHE_SWITCH_ENV, "").strip().lower() not in _OFF_VALUES


def cache_root() -> pathlib.Path:
    """Configured cache directory.

    Resolution order: ``REPRO_CACHE_DIR`` (explicit override), then
    ``$XDG_CACHE_HOME/repro-engine`` (the XDG base-directory spec),
    then ``~/.cache/repro-engine``.
    """
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return pathlib.Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        return pathlib.Path(xdg).expanduser() / "repro-engine"
    return pathlib.Path.home() / ".cache" / "repro-engine"


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance plus disk usage."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evicted_corrupt: int = 0
    entries: int = 0
    total_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.hits}/{self.lookups} hits ({100.0 * self.hit_rate:.1f}%), "
            f"{self.writes} writes, {self.entries} entries on disk "
            f"({self.total_bytes / 1024:.0f} KiB)"
        )


class ResultCache:
    """On-disk content-addressed store of :class:`CompileResult`.

    Args:
        root: cache directory (default: :func:`cache_root`).
        enabled: force on/off (default: :func:`cache_enabled`).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else cache_root()
        self.enabled = cache_enabled() if enabled is None else enabled
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evicted = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a content hash."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> CompileResult | None:
        """Stored result for ``key``, or None (miss, never a crash)."""
        if not self.enabled:
            self._misses += 1
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != ENGINE_SCHEMA_VERSION
            ):
                raise ValueError("stale or malformed cache envelope")
            result = envelope["result"]
            if not isinstance(result, CompileResult):
                raise ValueError("cache entry is not a CompileResult")
        except FileNotFoundError:
            self._misses += 1
            return None
        except Exception:
            # Torn write, garbage, schema drift: treat as a miss and
            # drop the entry so the next run rebuilds it.
            self._misses += 1
            self._evicted += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._hits += 1
        return result

    def put(self, key: str, result: CompileResult) -> None:
        """Persist a result atomically (tmp file + rename)."""
        if not self.enabled:
            return
        raw = pickle.dumps(
            {"schema": ENGINE_SCHEMA_VERSION, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(raw)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk degrades to "no cache", silently:
            # compilation results are always recomputable.
            return
        self._writes += 1

    def stats(self) -> CacheStats:
        """Current counters plus a disk scan of entries/bytes."""
        entries = 0
        total = 0
        if self.enabled and self.root.is_dir():
            for path in self.root.glob("*/*.pkl"):
                try:
                    total += path.stat().st_size
                    entries += 1
                except OSError:
                    continue
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            evicted_corrupt=self._evicted,
            entries=entries,
            total_bytes=total,
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


_DEFAULT: ResultCache | None = None


def default_cache() -> ResultCache:
    """Process-wide shared cache (counters accumulate per process).

    The instance is created on first use from the environment; tests
    that monkeypatch ``REPRO_CACHE_DIR``/``REPRO_CACHE`` should build
    their own :class:`ResultCache` or call :func:`reset_default_cache`.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ResultCache()
    return _DEFAULT


def reset_default_cache() -> None:
    """Forget the shared instance (re-read env on next use)."""
    global _DEFAULT
    _DEFAULT = None

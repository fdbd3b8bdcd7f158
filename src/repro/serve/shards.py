"""Compatibility alias kept only for ``perfbench/``.

The benchmark's traced server (``perfbench/serve_launcher.py``) wraps
``repro.serve.shards.ShardedCache.get``/``put`` to time cache reads and
writes. The server's store is a plain
:class:`~repro.engine.cache.ResultCache`, so the name points at that
class. Delete this module on the next change to the benchmark.
"""

from repro.engine.cache import ResultCache as ShardedCache  # noqa: F401

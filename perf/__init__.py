"""Wall-clock benchmark of the serving stack (see ``perf/README.md``).

Run ``python3 perf/run.py --help``.  The package holds no code the
library imports: it drives :class:`repro.shard.ShardedService` through its
public API only, so changing the library cannot change what is measured.
"""

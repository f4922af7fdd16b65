"""Certified approximate tier: bounded answers when the exact path cannot.

The exact indexes answer ``box_sum`` bit-exactly, but under overload the
service can only shed, and under a replica-group outage only fail or go
partial.  This package adds a third option that is never silently wrong:
one box histogram per shard, updated in place by every admitted mutation,
answering with :class:`~repro.core.values.BoundedValue` intervals certified
to contain the exact answer.

Layering:

* :mod:`repro.approx.histogram` — :class:`ApproxTier`: the shared grid,
  the per-slot cells and the cell-by-cell bound;
* :mod:`repro.approx.bounds` — :class:`ApproxResult`, the typed degraded
  answer (never confusable with an exact one).

Serving wires it in behind one opt-in config, ``degrade="bounded"`` on
:class:`~repro.shard.ShardedService`; the default-off path is untouched.
"""

from .bounds import REASONS, ApproxResult
from .histogram import SUPPORTED_MEASURES, ApproxTier, measured_weight

__all__ = [
    "REASONS",
    "SUPPORTED_MEASURES",
    "ApproxResult",
    "ApproxTier",
    "measured_weight",
]

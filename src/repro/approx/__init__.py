"""Certified approximate tier: bounded answers when the exact path cannot.

The exact indexes answer ``box_sum`` bit-exactly, but under overload the
service can only shed, and under a replica-group outage only fail or go
partial.  This package adds a third option that is never silently wrong:
a PolyFit-style synopsis (piecewise low-degree polynomial fits over the
cumulative dominance aggregate, probed through the same 2^d corner
reduction) answering with :class:`~repro.core.values.BoundedValue`
intervals certified to contain the exact answer.

Layering:

* :mod:`repro.approx.fit` — per-corner-structure grid fits with
  certified per-piece envelopes (signed weights supported);
* :mod:`repro.approx.synopsis` — an immutable snapshot synopsis
  answering ``box_sum`` by interval arithmetic over corner probes;
* :mod:`repro.approx.builder` — :class:`ApproxTier`: per-slot mirrors,
  bounded-staleness envelopes, rebuild policy, metrics;
* :mod:`repro.approx.bounds` — :class:`ApproxResult`, the typed degraded
  answer (never confusable with an exact one).

Serving wires it in behind one opt-in config, ``degrade="bounded"`` on
:class:`~repro.shard.ShardedService`; the default-off path is untouched.
"""

from .bounds import REASONS, ApproxResult
from .builder import ApproxPolicy, ApproxTier
from .fit import CellFit, GridFit, build_grid_fit
from .synopsis import SUPPORTED_MEASURES, ApproxSynopsis, build_synopsis, measured_weight

__all__ = [
    "REASONS",
    "SUPPORTED_MEASURES",
    "ApproxPolicy",
    "ApproxResult",
    "ApproxSynopsis",
    "ApproxTier",
    "CellFit",
    "GridFit",
    "build_grid_fit",
    "build_synopsis",
    "measured_weight",
]

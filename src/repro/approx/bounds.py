"""Typed containers for degraded-but-certified answers.

An :class:`ApproxResult` is what the serving layer returns when it
answers from the approximate tier instead of shedding or failing: a list
of :class:`~repro.core.values.BoundedValue` intervals — one per query —
plus enough provenance (reason, which slots were approximated vs answered
exactly) for the caller to reason about the degradation.

Like :class:`~repro.resilience.partial.PartialResult`, it is deliberately
*not* iterable-as-floats: code that expects exact answers fails loudly
instead of silently consuming an interval.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.geometry import Box
from ..core.values import BoundedValue

#: The degradation paths an ApproxResult can come from.
REASONS = ("overload", "outage", "direct")


class ApproxResult:
    """A batch of certified-interval answers from the approximate tier.

    Attributes
    ----------
    results:
        One :class:`BoundedValue` per query, in query order.
    reason:
        Why the exact path was unavailable: ``"overload"`` (admission
        control would have shed), ``"outage"`` (one or more replica groups
        down; their contributions are intervals, the rest exact), or
        ``"direct"`` (explicitly requested, e.g. ``degraded_batch``).
    answered / approximated:
        Sorted slot (shard) ids whose contributions were exact sums vs
        histogram intervals.  An unsharded service uses the single slot 0.
    version:
        The tier's mutation version at answer time (its logical epoch).
    probes:
        Histogram cells examined, summed over queries and approximated slots.
    """

    __slots__ = (
        "results",
        "reason",
        "answered",
        "approximated",
        "version",
        "probes",
        "_queries",
    )

    def __init__(
        self,
        results: Sequence[BoundedValue],
        *,
        reason: str,
        approximated: Sequence[int],
        answered: Sequence[int] = (),
        version: int = 0,
        probes: int = 0,
        queries: Optional[Sequence[Box]] = None,
    ) -> None:
        results = list(results)
        for bv in results:
            if not isinstance(bv, BoundedValue):
                raise TypeError(
                    f"ApproxResult holds BoundedValue entries, got {type(bv).__name__}"
                )
        if reason not in REASONS:
            raise ValueError(f"reason must be one of {REASONS}, got {reason!r}")
        self.results = results
        self.reason = reason
        self.approximated = tuple(sorted(set(int(s) for s in approximated)))
        self.answered = tuple(sorted(set(int(s) for s in answered)))
        self.version = int(version)
        self.probes = int(probes)
        self._queries = tuple(queries) if queries is not None else None

    @property
    def queries(self) -> Optional[Tuple[Box, ...]]:
        """The query boxes, when the producer attached them."""
        return self._queries

    def estimates(self) -> List[float]:
        """The point estimates (always within the certified bands)."""
        return [bv.estimate for bv in self.results]

    def bands(self) -> List[Tuple[float, float]]:
        """The certified ``(lo, hi)`` intervals in query order."""
        return [(bv.lo, bv.hi) for bv in self.results]

    def max_width(self) -> float:
        """The widest certified band in the batch (0.0 when empty)."""
        return max((bv.width for bv in self.results), default=0.0)

    def contains(self, exact: Sequence[float]) -> bool:
        """True when every certified band contains its exact answer."""
        if len(exact) != len(self.results):
            raise ValueError(f"expected {len(self.results)} exact values, got {len(exact)}")
        return all(bv.contains(v) for bv, v in zip(self.results, exact))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[BoundedValue]:
        return iter(self.results)

    def __getitem__(self, index: int) -> BoundedValue:
        return self.results[index]

    def __repr__(self) -> str:
        return (
            f"ApproxResult(n={len(self.results)}, reason={self.reason!r}, "
            f"approximated={self.approximated}, answered={self.answered}, "
            f"max_width={self.max_width():.6g})"
        )


__all__ = ["REASONS", "ApproxResult"]

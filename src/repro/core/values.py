"""Aggregate value protocol: what a dominance-sum index stores and adds up.

The paper's indices are generic in the value they aggregate:

* the *simple* box-sum stores plain numbers (SUM of weights; COUNT is the
  special case where every weight is 1);
* the *functional* box-sum stores polynomial coefficient tuples, "with the
  difference that now we store and manipulate value functions instead of
  single values" (Section 3);
* AVG needs SUM and COUNT simultaneously, which we support with the
  :class:`SumCount` pair.

Any value type works with every index in this package as long as it
supports binary ``+``, unary ``-`` and equality; this module centralizes
the zero element and the byte-size accounting the storage layer uses to
compute page fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from .errors import NotSupportedError
from .polynomial import Polynomial

#: The union of value types shipped with the library.  Third-party types that
#: implement the same operators work equally well.
Value = Union[float, int, Polynomial, "SumCount"]


@dataclass(frozen=True)
class SumCount:
    """A (sum, count) pair aggregated component-wise; supports AVG queries.

    Inserting an object with weight ``w`` contributes ``SumCount(w, 1)``;
    the average over a query region is ``total.sum / total.count``.
    """

    total: float
    count: float

    def __add__(self, other: "SumCount") -> "SumCount":
        if not isinstance(other, SumCount):
            return NotImplemented
        return SumCount(self.total + other.total, self.count + other.count)

    def __neg__(self) -> "SumCount":
        return SumCount(-self.total, -self.count)

    def average(self) -> float:
        """``sum / count``; raises when the count is zero (empty region)."""
        if self.count == 0:
            raise ZeroDivisionError("average of an empty aggregate")
        return self.total / self.count


@dataclass(frozen=True)
class BoundedValue:
    """A certified interval answer: ``lo <= exact <= hi`` plus a point estimate.

    This is the currency of the approximate tier (:mod:`repro.approx`): a
    shard's histogram answers with one, and shards are combined by
    *interval arithmetic* — addition adds endpoints, negation swaps them —
    so the certified band survives every cross-shard merge.  IEEE-754
    addition is monotone, so accumulating the ``lo``/``estimate``/``hi``
    streams in the same order preserves ``lo <= estimate <= hi``
    bit-for-bit; the constructor clamps the estimate into the band as a
    belt-and-suspenders measure.

    A :class:`BoundedValue` is deliberately *not* a ``float`` subclass: a
    degraded answer must never be confusable with an exact one.
    """

    lo: float
    hi: float
    estimate: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval: lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "estimate", min(max(float(self.estimate), lo), hi))

    @classmethod
    def exact(cls, value: float) -> "BoundedValue":
        """The degenerate interval ``[value, value]`` (an exact contribution)."""
        v = float(value)
        return cls(v, v, v)

    @property
    def width(self) -> float:
        """Size of the certified band (0.0 when the value is exact)."""
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        """True when the band has collapsed to a single point."""
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the certified band."""
        return self.lo <= float(value) <= self.hi

    def __add__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        if isinstance(other, BoundedValue):
            return BoundedValue(
                self.lo + other.lo, self.hi + other.hi, self.estimate + other.estimate
            )
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            shift = float(other)
            return BoundedValue(self.lo + shift, self.hi + shift, self.estimate + shift)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.hi, -self.lo, -self.estimate)

    def __sub__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        if isinstance(other, BoundedValue):
            return self + (-other)
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self + (-float(other))
        return NotImplemented


#: Canonical zero elements, keyed by how the caller wants to aggregate.
SCALAR_ZERO = 0.0
SUMCOUNT_ZERO = SumCount(0.0, 0.0)


def zero_like(value: Value) -> Value:
    """The additive identity for ``value``'s type."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise NotSupportedError("bool is not a supported aggregate value")
    if isinstance(value, (int, float)):
        return 0.0
    if isinstance(value, Polynomial):
        return Polynomial(value.dims)
    if isinstance(value, SumCount):
        return SUMCOUNT_ZERO
    raise NotSupportedError(f"unsupported aggregate value type: {type(value).__name__}")


def value_nbytes(value: Value) -> int:
    """Byte footprint of a value under the storage layer's cost model.

    Scalars are 8-byte floats; a :class:`SumCount` is two of them; a
    polynomial reports its own coefficient-tuple size.  The page layout uses
    this to derive fan-out, which is how degree-2 value functions end up with
    smaller fan-out (and hence bigger indices) than degree-0 ones, exactly
    the effect Figure 9c measures.
    """
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, SumCount):
        return 16
    if isinstance(value, Polynomial):
        return value.nbytes()
    raise NotSupportedError(f"unsupported aggregate value type: {type(value).__name__}")


def values_equal(a: Value, b: Value, tol: float = 1e-9) -> bool:
    """Tolerant equality across every shipped value type (useful in tests)."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(a)), abs(float(b)))
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return a.almost_equal(b, tol)
    if isinstance(a, SumCount) and isinstance(b, SumCount):
        return abs(a.total - b.total) <= tol and abs(a.count - b.count) <= tol
    return bool(a == b)


def is_zero_value(value: Value, tol: float = 1e-12) -> bool:
    """True when ``value`` is (numerically) the additive identity."""
    if isinstance(value, (int, float)):
        return abs(float(value)) <= tol
    if isinstance(value, Polynomial):
        return value.is_zero
    if isinstance(value, SumCount):
        return abs(value.total) <= tol and abs(value.count) <= tol
    return False


def accumulate(values: Any, zero: Value) -> Value:
    """Sum an iterable of values starting from ``zero``."""
    total = zero
    for v in values:
        total = total + v
    return total

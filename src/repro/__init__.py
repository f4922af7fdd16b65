"""repro — efficient aggregation over objects with extent.

A complete, disk-cost-faithful Python implementation of the index family
from *"Efficient Aggregation over Objects with Extent"* (Zhang, Tsotras,
Gunopulos; PODS 2002):

* the **BA-tree** — the paper's primary contribution, a k-d-B-tree whose
  index records carry a subtotal and ``d`` lower-dimensional borders;
* the **ECDF-Bu-tree** and **ECDF-Bq-tree** — disk-based, dynamic
  externalizations of Bentley's ECDF-tree;
* the **aR-tree** (aggregate R*-tree) and plain **R*-tree** comparison
  baselines;
* the reduction of simple box-sum queries to ``2^d`` dominance-sums
  (Theorem 2) and of functional box-sums over polynomial value functions
  to ``2^d`` dominance-sums over coefficient tuples (Theorem 3).

Quickstart::

    from repro import Box, BoxSumIndex

    index = BoxSumIndex(dims=2, backend="ba")
    index.insert(Box((2, 10), (15, 26)), value=4.0)
    index.insert(Box((5, 3), (18, 15)), value=3.0)
    total = index.box_sum(Box((5, 7), (20, 15)))   # -> 7.0

See :mod:`repro.core.aggregator` for the full facade API and DESIGN.md for
the architecture and experiment map.
"""

from .approx import ApproxResult, ApproxTier
from .core import (
    BoundedValue,
    Box,
    NaiveBoxSum,
    NaiveDominanceSum,
    NaiveFunctionalBoxSum,
    Polynomial,
    ReproError,
    SumCount,
)
from .core.aggregator import (
    BoxSumIndex,
    FunctionalBoxSumIndex,
    make_dominance_index,
)
from .core.errors import (
    ReplicaDivergedError,
    ReplicationLogError,
    ShardUnavailableError,
)
from .core.explain import QueryProfile, profile
from .heal import (
    ComponentHealth,
    HealPolicy,
    HealReport,
    HealSupervisor,
)
from .obs import MetricsRegistry, Tracer, get_registry, tracing
from .replog import (
    Checkpoint,
    LogicalState,
    ReplicationLog,
    RestoreReport,
)
from .resilience import (
    BreakerConfig,
    ChaosPlan,
    CircuitBreaker,
    FaultyQueryService,
    PartialResult,
    ReplicaGroup,
    ResilienceConfig,
)
from .service import (
    BatchResult,
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from .shard import ShardedService, ShardMap, ShardRouter
from .storage import CostModel, IOCounter, StorageContext

__version__ = "1.0.0"

__all__ = [
    "Box",
    "Polynomial",
    "SumCount",
    "ReproError",
    "BoxSumIndex",
    "FunctionalBoxSumIndex",
    "make_dominance_index",
    "NaiveBoxSum",
    "NaiveDominanceSum",
    "NaiveFunctionalBoxSum",
    "StorageContext",
    "IOCounter",
    "CostModel",
    "MetricsRegistry",
    "Tracer",
    "get_registry",
    "tracing",
    "profile",
    "QueryProfile",
    "QueryService",
    "BatchResult",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ShardedService",
    "ShardMap",
    "ShardRouter",
    "BreakerConfig",
    "ChaosPlan",
    "CircuitBreaker",
    "FaultyQueryService",
    "PartialResult",
    "ReplicaGroup",
    "ResilienceConfig",
    "ShardUnavailableError",
    "ReplicationLog",
    "RestoreReport",
    "Checkpoint",
    "LogicalState",
    "ReplicationLogError",
    "ReplicaDivergedError",
    "HealPolicy",
    "HealSupervisor",
    "HealReport",
    "ComponentHealth",
    "BoundedValue",
    "ApproxResult",
    "ApproxTier",
    "__version__",
]

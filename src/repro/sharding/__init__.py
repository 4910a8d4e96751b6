"""Sharded scatter-gather retrieval: partitioned indexes, exact merges.

The sharding layer scales the read-mostly serving substrate across N
hash-partitioned shards while guaranteeing rankings bit-identical to the
monolithic engine: per-shard scorers rank with global collection statistics
(a :class:`GlobalStatsView` over each shard and the
:class:`ShardedInvertedIndex` facade), gathered partial
results merge *before* fusion, and writes route to the owning shard under
the engine's exclusive-writer discipline.  Select it through
``ServiceConfig(num_shards=N)`` or ``repro loadtest --shards N``;
``num_shards=1`` keeps today's single-engine path, byte for byte.
"""

from repro.sharding.engine import (
    ShardedEngine,
    ShardedTextScorer,
    ShardScorerFactory,
)
from repro.sharding.global_stats import GlobalStatsView
from repro.sharding.router import ShardRouter
from repro.sharding.views import ShardedInvertedIndex, ShardedVisualIndex

__all__ = [
    "GlobalStatsView",
    "ShardRouter",
    "ShardScorerFactory",
    "ShardedEngine",
    "ShardedInvertedIndex",
    "ShardedTextScorer",
    "ShardedVisualIndex",
]

"""Sharded scatter-gather retrieval: a partitioned text index, exact merges.

The sharding layer partitions the text substrate across N hash-routed
shards while guaranteeing rankings bit-identical to the monolithic engine:
per-shard scorers rank with global collection statistics (a
:class:`GlobalStatsView` over each shard and the
:class:`ShardedInvertedIndex` facade), gathered partial results merge
*before* fusion, and writes route to the owning shard under the engine's
exclusive-writer discipline.  Shots stay in the engine's one
:class:`~repro.index.visual.VisualIndex`, as in the monolithic engine.
Select it through ``ServiceConfig(num_shards=N)`` or ``repro loadtest
--shards N``;
``num_shards=1`` keeps today's single-engine path, byte for byte.
"""

from repro.sharding.engine import (
    ShardedEngine,
    ShardedTextScorer,
    ShardScorerFactory,
)
from repro.sharding.global_stats import GlobalStatsView
from repro.sharding.router import ShardRouter
from repro.sharding.views import ShardedInvertedIndex

__all__ = [
    "GlobalStatsView",
    "ShardRouter",
    "ShardScorerFactory",
    "ShardedEngine",
    "ShardedInvertedIndex",
    "ShardedTextScorer",
]

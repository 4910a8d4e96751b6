"""Shard segments: the on-disk split of a durable directory.

``ServiceConfig(num_shards=N)`` (``repro loadtest --shards N``) splits a
durable directory's write-ahead log and snapshot deltas into N segments.
The :class:`ShardRouter` decides which segment an id's records land in —
``crc32(id) % N``, stable across processes — and is the only thing
``num_shards`` selects.  The in-memory engine is the same for every shard
count: one :class:`~repro.index.inverted_index.InvertedIndex`, one text
scorer and one :class:`~repro.index.visual.VisualIndex`.
"""

from repro.sharding.router import ShardRouter

__all__ = ["ShardRouter"]

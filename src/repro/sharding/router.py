"""Deterministic routing of document/shot ids onto shard segments.

The router is the one place that decides which segment an id's records
belong to, so the write-ahead log, the snapshot deltas and any external
partitioner all agree by construction.  Routing is a pure function of the id string — ``crc32(id) % num_shards`` — so it is
stable across processes, Python versions and restarts (unlike the builtin
``hash``, which is salted per process).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List

from repro.utils.validation import ensure_positive


class ShardRouter:
    """Hash-partitions string ids over a fixed number of shards."""

    def __init__(self, num_shards: int) -> None:
        ensure_positive(num_shards, "num_shards")
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """How many shards ids are routed across."""
        return self._num_shards

    def shard_of(self, item_id: str) -> int:
        """The shard index owning ``item_id`` (stable across processes)."""
        return zlib.crc32(item_id.encode("utf-8")) % self._num_shards

    def partition(self, item_ids: Iterable[str]) -> List[List[str]]:
        """Split ids into per-shard lists, preserving input order per shard."""
        shards: List[List[str]] = [[] for _ in range(self._num_shards)]
        for item_id in item_ids:
            shards[self.shard_of(item_id)].append(item_id)
        return shards

    def partition_mapping(self, items: Dict[str, object]) -> List[Dict[str, object]]:
        """Split an ``{id: payload}`` mapping into per-shard mappings."""
        shards: List[Dict[str, object]] = [{} for _ in range(self._num_shards)]
        for item_id, payload in items.items():
            shards[self.shard_of(item_id)][item_id] = payload
        return shards

    def __eq__(self, other: object) -> bool:
        # Routing is a pure function of num_shards, so two routers with the
        # same shard count are interchangeable — which is what pickle
        # round-trip equality should mean.
        if not isinstance(other, ShardRouter):
            return NotImplemented
        return self._num_shards == other._num_shards

    def __hash__(self) -> int:
        return hash((ShardRouter, self._num_shards))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(num_shards={self._num_shards})"

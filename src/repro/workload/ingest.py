"""Deterministic synthetic ingest: the write phase of a durable loadtest.

The crash-recovery harness needs a stream of index mutations that is a
pure function of ``(seed, op index)``: a run killed after *k* ops and
recovered must be byte-identical to a clean run told to ingest exactly
*k* ops.  The generators here use plain modular arithmetic — no RNG state
that could drift between processes or Python versions — so op *i* is the
same bytes everywhere, always.

Ops alternate between transcript documents and visual shots so both WAL
record kinds, both indexes, and (with ``num_shards`` above one) every WAL
segment see traffic.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.validation import ensure_positive

#: Small closed vocabulary the synthetic transcripts draw from.
_VOCAB = (
    "election", "protest", "flood", "summit", "economy", "ceasefire",
    "wildfire", "transfer", "verdict", "launch", "strike", "harvest",
    "border", "vaccine", "tournament", "blackout",
)

_CONCEPTS = ("crowd", "flag", "water", "fire", "vehicle", "podium", "field", "night")

#: One ingest op: ``("doc", id, text)``, ``("shot", id, features, concepts)``,
#: or a mutable-corpus op — ``("del", id)``, ``("delshot", id)``,
#: ``("upd", id, text)``.
IngestOp = Tuple


def _mix(seed: int, *values: int) -> int:
    """A deterministic integer hash of ``(seed, *values)`` (no RNG state)."""
    h = (seed & 0xFFFFFFFF) ^ 0x9E3779B9
    for value in values:
        h = (h * 1_000_003 + value * 7919 + 0x7F4A7C15) & 0xFFFFFFFF
        h ^= h >> 13
    return h


def synthetic_ingest_ops(
    count: int, seed: int = 0, feature_dim: int = 16
) -> List[IngestOp]:
    """The first ``count`` ops of the seed's deterministic ingest stream."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    ensure_positive(feature_dim, "feature_dim")
    ops: List[IngestOp] = []
    for i in range(count):
        if i % 2 == 0:
            words = [
                _VOCAB[_mix(seed, i, position) % len(_VOCAB)]
                for position in range(6 + _mix(seed, i) % 6)
            ]
            ops.append(("doc", f"ingest-doc-{seed}-{i:06d}", " ".join(words)))
        else:
            features = [
                (_mix(seed, i, dim) % 1000) / 1000.0 for dim in range(feature_dim)
            ]
            concepts: Dict[str, float] = {
                _CONCEPTS[_mix(seed, i, 100 + slot) % len(_CONCEPTS)]: (
                    (_mix(seed, i, 200 + slot) % 900) + 100
                )
                / 1000.0
                for slot in range(2)
            }
            ops.append(("shot", f"ingest-shot-{seed}-{i:06d}", features, concepts))
    return ops


def service_feature_dim(service, default: int = 16) -> int:
    """The corpus's feature-vector dimensionality (for compatible ingest).

    Visual similarity scans require equal-length vectors, so ingested
    shots must match whatever the collection was analysed with.
    """
    visual_index = service.engine.visual_index
    shot_ids = visual_index.shot_ids()
    if not shot_ids:
        return default
    return len(visual_index.features_of(shot_ids[0]))


def apply_ingest(service, ops: Sequence[IngestOp], pause: float = 0.0) -> int:
    """Apply ingest ops to a live service, one writer scope per op.

    One-op-at-a-time is deliberate: each op is its own WAL append and
    checkpoint opportunity, which is what gives the crash harness its
    dense set of kill points.  ``pause`` (seconds between ops) stretches
    the window so an external SIGKILL lands mid-stream.  Returns the
    number of ops applied.
    """
    applied = 0
    for op in ops:
        kind = op[0]
        if kind == "doc":
            service.index_documents({op[1]: op[2]})
        elif kind == "shot":
            service.index_shot(op[1], op[2], op[3])
        elif kind == "del":
            service.delete_document(op[1])
        elif kind == "delshot":
            service.delete_shot(op[1])
        elif kind == "upd":
            service.update_document(op[1], op[2])
        else:
            raise ValueError(f"unknown ingest op kind {kind!r}")
        applied += 1
        if pause > 0.0:
            time.sleep(pause)
    return applied

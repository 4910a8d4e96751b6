"""The one synthetic mutation stream and its one applier.

Every write the harnesses make to a live service is an *ingest op*, a
tuple the durability tier can replay: ``("doc", id, text)``,
``("shot", id, features, concepts)``, ``("del", id)``, ``("delshot", id)``
or ``("upd", id, text)``.  :func:`apply_ingest` is the only code that turns
them into service calls; the durable loadtest, the continuous mix
(:mod:`repro.workload.continuous`), the chaos run and its clean-prefix
oracle all apply their ops through it.

Payloads come from two synthesisers, :func:`synthetic_text` and
:func:`synthetic_shot`.  They use plain modular arithmetic (:func:`_mix`)
with no RNG state that could drift between processes or Python versions,
so an op is a pure function of its seed and key: a run killed after *k*
ops and recovered must be byte-identical to a clean run told to apply
exactly *k* ops.  :func:`synthetic_ingest_ops` keys them by op index and
alternates transcript documents with visual shots, so both WAL record
kinds and both indexes see traffic; the mix keys them by ``(salt, epoch,
slot)``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.errors import InvalidArgumentError
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


def _draws(seed: int, key: Tuple[int, ...], count: int) -> List[int]:
    """``count`` hashes ``_mix(seed, *key[:-1], key[-1] + k)``, k = 0, 1, ..."""
    *prefix, first = key
    return [_mix(seed, *prefix, first + k) for k in range(count)]


def synthetic_text(seed: int, key: Tuple[int, ...], base: int) -> str:
    """A transcript of ``base`` to ``2 * base - 1`` vocabulary words."""
    length = base + _mix(seed, *key) % base
    return " ".join(_VOCAB[h % len(_VOCAB)] for h in _draws(seed, (*key, 0), length))


def synthetic_shot(
    seed: int,
    features_key: Tuple[int, ...],
    concepts_key: Tuple[int, ...],
    weights_key: Tuple[int, ...],
    feature_dim: int,
) -> Tuple[List[float], Dict[str, float]]:
    """A shot's feature vector and two concept weights in ``[0.1, 1.0)``."""
    features = [h % 1000 / 1000.0 for h in _draws(seed, features_key, feature_dim)]
    concepts = {
        _CONCEPTS[concept % len(_CONCEPTS)]: (weight % 900 + 100) / 1000.0
        for concept, weight in zip(
            _draws(seed, concepts_key, 2), _draws(seed, weights_key, 2)
        )
    }
    return features, concepts


def synthetic_ingest_ops(
    count: int, seed: int = 0, feature_dim: int = 16
) -> List[IngestOp]:
    """The first ``count`` ops of the seed's deterministic ingest stream."""
    if count < 0:
        raise InvalidArgumentError(f"count must be non-negative, got {count}")
    ensure_positive(feature_dim, "feature_dim")
    ops: List[IngestOp] = []
    for i in range(count):
        if i % 2 == 0:
            ops.append(("doc", f"ingest-doc-{seed}-{i:06d}", synthetic_text(seed, (i,), 6)))
        else:
            features, concepts = synthetic_shot(
                seed, (i, 0), (i, 100), (i, 200), feature_dim
            )
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
    dense set of kill points.  ``pause`` (seconds after each op) stretches
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
            raise InvalidArgumentError(f"unknown ingest op kind {kind!r}")
        applied += 1
        if pause > 0.0:
            time.sleep(pause)
    return applied

"""Canonical digests of index state: the recovery oracle.

Durability's correctness claim is *byte-identity*: recovering a snapshot +
WAL tail must yield exactly the index state the live engine held.  The
digest here pins that claim without comparing object graphs: both sides —
a live engine and a :class:`~repro.durability.recovery.RecoveredState` —
reduce to the same canonical JSON document and are hashed.

The canonical form is insensitive to everything that genuinely does not
affect retrieval (per-document term order, postings dict insertion order,
and — since the mutable-corpus tier — **tombstoned dense slots**: live
items are enumerated in slot order with holes skipped, so an engine that
deleted and compacted digests identically to one that deleted and has not
compacted yet, and to a rebuild over the survivors) and sensitive to
everything that does: the **global live interning order** of documents and
shots (the adaptation kernel's scratch arrays and every ranking tie-break
depend on it), term frequencies, feature vectors and concept scores.
Floats round-trip exactly through JSON (``repr`` shortest-form), so a
digest match is a bit-level statement about scores.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: One text item: ``(document_id, {term: frequency})``.
TextItem = Tuple[str, Mapping[str, int]]

#: One visual item: ``(shot_id, features, {concept: score})``.
VisualItem = Tuple[str, Sequence[float], Mapping[str, float]]


def state_digest(
    text_items: Iterable[TextItem], visual_items: Iterable[VisualItem]
) -> str:
    """SHA-256 hex digest of canonical index state.

    ``text_items`` and ``visual_items`` must be supplied in global dense
    interning order (insertion order); per-item term/concept maps are
    canonicalised by sorting, so dict ordering never perturbs the digest.
    """
    documents: List[list] = [
        [document_id, sorted((term, int(count)) for term, count in vector.items())]
        for document_id, vector in text_items
    ]
    shots: List[list] = [
        [
            shot_id,
            [float(value) for value in features],
            sorted((concept, float(score)) for concept, score in concepts.items()),
        ]
        for shot_id, features, concepts in visual_items
    ]
    payload = json.dumps(
        {"documents": documents, "shots": shots},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def engine_text_items(engine) -> Iterable[TextItem]:
    """A live engine's text state in global dense interning order.

    The :class:`~repro.index.inverted_index.InvertedIndex` lists its live
    ids in slot order, which is the global insertion order for every
    ``num_shards``.
    """
    index = engine.inverted_index
    for document_id in index.document_ids():
        yield document_id, index.document_vector_view(document_id)


def engine_visual_items(engine) -> Iterable[VisualItem]:
    """A live engine's visual state in global insertion order."""
    index = engine.visual_index
    for shot_id in index.shot_ids():
        yield shot_id, index.features_of(shot_id), index.concept_scores_of(shot_id)


def engine_state_digest(engine) -> str:
    """Canonical state digest of a live engine (monolithic or sharded)."""
    return state_digest(engine_text_items(engine), engine_visual_items(engine))

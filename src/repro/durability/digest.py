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

The document is never built whole: :func:`state_digest` feeds the hash
its bytes a chunk of canonical entries at a time, from the lazy
:func:`engine_text_items` / :func:`engine_visual_items` (the iterators a
full checkpoint streams too), so a digest of a live engine holds one chunk
of entries, not a copy of the state.  The bytes are exactly those of one
``json.dumps`` of the whole document, so every digest ever recorded stands.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

from repro.utils.serialization import canonical_json

#: One text item: ``(document_id, {term: frequency})``.
TextItem = Tuple[str, Mapping[str, int]]

#: One visual item: ``(shot_id, features, {concept: score})``.
VisualItem = Tuple[str, Sequence[float], Mapping[str, float]]


#: Items per encoder call in :func:`state_digest`: the most it holds at once.
_CHUNK_ITEMS = 32


def _chunk_bytes(entries: Iterable[list]) -> Iterator[bytes]:
    """The bytes of ``json.dumps(list(entries))`` between its brackets, one
    encoder call per :data:`_CHUNK_ITEMS` entries."""
    entries = iter(entries)
    separator = b""
    while True:
        chunk = list(islice(entries, _CHUNK_ITEMS))
        if not chunk:
            return
        yield separator + canonical_json(chunk)[1:-1].encode("utf-8")
        separator = b","


def state_digest(
    text_items: Iterable[TextItem], visual_items: Iterable[VisualItem]
) -> str:
    """SHA-256 hex digest of canonical index state.

    ``text_items`` and ``visual_items`` must be supplied in global dense
    interning order (insertion order); per-item term/concept maps are
    canonicalised by sorting, so dict ordering never perturbs the digest.
    The hashed bytes are ``json.dumps({"documents": [...], "shots": [...]},
    sort_keys=True, separators=(",", ":"))``, fed to the hash a chunk at a
    time, so the digest holds :data:`_CHUNK_ITEMS` canonical entries at
    once rather than the whole state.
    """
    documents = (
        [document_id, sorted((term, int(count)) for term, count in vector.items())]
        for document_id, vector in text_items
    )
    shots = (
        [
            shot_id,
            [float(value) for value in features],
            sorted((concept, float(score)) for concept, score in concepts.items()),
        ]
        for shot_id, features, concepts in visual_items
    )
    digest = hashlib.sha256(b'{"documents":[')
    for piece in _chunk_bytes(documents):
        digest.update(piece)
    digest.update(b'],"shots":[')
    for piece in _chunk_bytes(shots):
        digest.update(piece)
    digest.update(b"]}")
    return digest.hexdigest()


def engine_text_items(engine) -> Iterable[TextItem]:
    """A live engine's text state in global dense interning order.

    The :class:`~repro.index.inverted_index.InvertedIndex` holds its live
    ids in slot order, which is the global insertion order.  Lazy, and each map is the index's own: nothing is
    copied.
    """
    index = engine.inverted_index
    for document_id in index.slots.ids:
        if document_id is not None:
            yield document_id, index.document_vector_view(document_id)


def engine_visual_items(engine) -> Iterable[VisualItem]:
    """A live engine's visual state in global insertion order, lazily (the
    concept map of each shot is a copy)."""
    index = engine.visual_index
    for shot_id in index.slots.ids:
        if shot_id is not None:
            yield shot_id, index.features_of(shot_id), index.concept_scores_of(shot_id)


def engine_state_digest(engine) -> str:
    """Canonical state digest of a live engine."""
    return state_digest(engine_text_items(engine), engine_visual_items(engine))

"""WAL op records: how they are built, walked and applied.

The one owner of the op-record schema and of the one function that
applies an op.  A write is an op ``(op, item_id, payload)``: the live
engine checks it, logs :func:`op_record` when durable and applies it with
:func:`apply_op`.  Crash recovery, the WAL-tailing replicas and the
checkpoint writer select a gap-free run with :func:`gap_free_tail`, and
recovery, replicas and the snapshot chain's fold (an ops checkpoint is a
slice of the WAL) replay it with :func:`apply_record` — :func:`read_op`,
then the same :func:`apply_op` — so none of them can drift apart.

Replay is idempotent: a record whose effect is already present (a crash
landed between a checkpoint's manifest rename and its WAL truncation, or
the add a delete undoes never became durable) is counted as a skipped
duplicate instead of applied, so replaying twice converges to the same
state.  A live write never skips: the engine refuses it first.

A shot record's ``"features"`` is one :func:`~repro.utils.serialization.
encode_vector` string (packed float64s, exact); records of format-1
directories carry a JSON list instead, and :func:`read_op` reads both.  A
vector that decodes to neither, and a record missing a field its op
needs, is a :class:`ReplayError` naming the record's LSN.

Recovery replays into :class:`TextItems` / :class:`VisualItems`, the
insertion-ordered item tables the snapshot fold fills first; the replicas
and the live engine apply to their live indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.utils.serialization import VectorDecodeError, decode_vector, encode_vector

Record = Dict[str, object]

#: Ops that remove or relocate an existing item (reported as
#: ``mutation-ops``; replay handles them like any other record).
MUTATION_OPS = frozenset({"del", "upd"})


class ReplayError(ValueError, ReproError):
    """A WAL record names an op this build does not know how to replay,
    lacks a field its op needs, or carries a vector that does not decode."""


@dataclass
class ReplayCounts:
    """What a replay did, by kind (``RecoveredState`` carries the same fields)."""

    wal_index_ops: int = 0
    wal_mutation_ops: int = 0
    wal_feedback_ops: int = 0
    wal_skipped_duplicates: int = 0


def shot_record(
    shot_id: str,
    features: Sequence[float],
    concept_scores: Optional[Mapping[str, float]] = None,
) -> Record:
    """One ``index_shot`` op (``features`` packed by ``encode_vector``)."""
    return {
        "op": "shot",
        "id": shot_id,
        "features": encode_vector(features),
        "concepts": dict(concept_scores or {}),
    }


def feedback_record(user_id: str, session_id: str, events: Sequence) -> Record:
    """One interaction batch (meta segment; not index state)."""
    return {
        "op": "feedback",
        "user": user_id,
        "session": session_id,
        "events": [event.as_dict() for event in events],
    }


def gap_free_tail(
    records: Sequence[Record], applied_lsn: int
) -> Tuple[List[Record], List[Record]]:
    """Split the LSN-sorted records past ``applied_lsn`` into ``(run, rest)``.

    ``run`` is the maximal contiguous LSN run starting at ``applied_lsn +
    1``; ``rest`` is everything behind the first hole.  Dense interning
    order — and therefore every score and tie-break — is defined by
    insertion order, so applying a subsequence with a hole would silently
    shift every later dense index; only ``run`` is ever a true prefix of
    the write history.
    """
    tail = [record for record in records if int(record["lsn"]) > applied_lsn]
    for position, record in enumerate(tail):
        if int(record["lsn"]) != applied_lsn + 1 + position:
            return tail[:position], tail[position:]
    return tail, []


class TextItems(dict):
    """Insertion-ordered ``{document_id: frequencies}`` behind the index
    write API: the table the snapshot fold and the WAL tail replay into."""

    has_document = dict.__contains__
    add_document_frequencies = dict.__setitem__
    delete_document = dict.__delitem__

    def update_document_frequencies(self, document_id: str, frequencies) -> None:
        # Delete + re-add, so the document moves to the end of the
        # insertion sequence exactly as the live engine re-interns it.
        del self[document_id]
        self[document_id] = frequencies


class VisualItems(dict):
    """Insertion-ordered ``{shot_id: (features, concepts)}``, same API."""

    has_shot = dict.__contains__
    delete_shot = dict.__delitem__

    def add_shot(self, shot_id: str, features, concepts) -> None:
        self[shot_id] = (features, concepts)


def _field(record: Record, key: str, convert=lambda value: value):
    """``convert(record[key])``, or a :class:`ReplayError` naming the LSN."""
    if key not in record:
        problem = "is missing"
    else:
        try:
            return convert(record[key])
        except (AttributeError, TypeError, ValueError) as error:
            problem = f"is malformed: {error}"
    raise ReplayError(
        f"{record.get('op')} record at lsn {record.get('lsn')}: field {key!r} {problem}"
    )


def op_record(op: str, item_id: str, payload) -> Record:
    """The WAL record of one op; :func:`read_op` is its inverse.

    ``payload`` is a ``doc`` / ``upd`` (update, replayed as delete +
    re-add) op's term frequencies, a ``shot`` op's ``(features,
    concept_scores)`` or a ``del`` op's kind, ``"doc"`` or ``"shot"``.
    """
    if op == "shot":
        return shot_record(item_id, *payload)
    if op == "del":
        return {"op": "del", "kind": payload, "id": item_id}
    return {"op": op, "id": item_id, "tf": dict(payload)}


def read_op(record: Record) -> Tuple[str, str, object]:
    """``(op, item_id, payload)`` of one index-op record.

    Every field the op needs is read once and checked, so an unknown op, a
    missing or mistyped field and a shot whose vector does not decode are
    a :class:`ReplayError` naming the record's LSN.
    """
    op = record.get("op")
    if op not in ("doc", "shot", "del", "upd"):
        raise ReplayError(f"unknown WAL op {op!r} at lsn {record.get('lsn')}")
    item_id = _field(record, "id", str)
    if op == "del":
        return op, item_id, "shot" if record.get("kind") == "shot" else "doc"
    if op != "shot":
        return op, item_id, _field(
            record, "tf", lambda tf: {str(t): int(f) for t, f in tf.items()}
        )
    try:
        features = decode_vector(_field(record, "features"))
    except VectorDecodeError as error:
        raise ReplayError(
            f"shot {item_id!r} at lsn {record.get('lsn')}: {error}"
        ) from None
    concepts = _field(
        record, "concepts", lambda cs: {str(c): float(v) for c, v in cs.items()}
    )
    return op, item_id, (features, concepts)


def apply_op(op: str, item_id: str, payload, text, visual, counts) -> None:
    """Apply one op to ``text`` / ``visual``, idempotently.

    The live engine calls it with the values it has just checked, replay
    with what :func:`read_op` read.  The targets speak the index write API
    (``has_document`` / ``add_document_frequencies`` / ``delete_document``
    / ``update_document_frequencies``; ``has_shot`` / ``add_shot`` /
    ``delete_shot``): the live indexes of an engine or a replica, a
    :class:`TextItems` / :class:`VisualItems` pair in recovery.
    ``counts`` is a :class:`ReplayCounts` (or anything with its fields).
    """
    counts.wal_index_ops += 1
    if op in MUTATION_OPS:
        counts.wal_mutation_ops += 1
    if op in ("doc", "upd"):
        if not text.has_document(item_id):
            text.add_document_frequencies(item_id, payload)
        elif op == "upd":
            # Delete + re-add: the document moves to the dense tail, live
            # and in every replay alike.
            text.update_document_frequencies(item_id, payload)
        else:
            counts.wal_skipped_duplicates += 1
    elif op == "shot":
        if visual.has_shot(item_id):
            counts.wal_skipped_duplicates += 1
        else:
            visual.add_shot(item_id, *payload)
    elif payload == "shot":
        if visual.has_shot(item_id):
            visual.delete_shot(item_id)
        else:
            counts.wal_skipped_duplicates += 1
    elif text.has_document(item_id):
        text.delete_document(item_id)
    else:
        counts.wal_skipped_duplicates += 1


def apply_record(record: Record, text, visual, counts) -> None:
    """Replay one record into ``text`` / ``visual``: :func:`read_op`, then
    :func:`apply_op` (a feedback batch is only counted)."""
    if record.get("op") == "feedback":
        counts.wal_feedback_ops += 1
        return
    apply_op(*read_op(record), text, visual, counts)
